package balancer_test

import (
	"strings"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/namespace"
)

// TestTotalTargetSumsInRankOrder: a float sum depends on its order, so
// TotalTarget adds in ascending rank order however the map iterates. In
// that order 1e16 absorbs rank 1's 1 and the sum is 1; rank 3's 1 first
// would make it 2.
func TestTotalTargetSumsInRankOrder(t *testing.T) {
	for i := 0; i < 200; i++ {
		targets := balancer.Targets{3: 1, 2: -1e16, 0: 1e16, 1: 1}
		if got := targets.TotalTarget(); got != 1 {
			t.Fatalf("try %d: TotalTarget = %v, want 1 (1e16 + 1 - 1e16 + 1, in rank order)", i, got)
		}
	}
	many := balancer.Targets{}
	want := 0.0
	for r := 0; r < 100; r++ {
		many[namespace.Rank(r)] = float64(r) / 3
	}
	for r := 0; r < 100; r++ {
		want += float64(r) / 3
	}
	if got := many.TotalTarget(); got != want {
		t.Fatalf("100 targets sum to %v, want %v", got, want)
	}
}

// TestValidateReportsLowestRank: of several offending ranks, Validate names
// the lowest, whatever order the map iterates in.
func TestValidateReportsLowestRank(t *testing.T) {
	e := envWithLoads(1, 10, 20, 30, 40)
	for _, c := range []struct {
		targets balancer.Targets
		want    string
	}{
		{balancer.Targets{9: 1, 1: 5, 2: -1, 3: 1}, "targeted itself (rank 1)"},
		{balancer.Targets{9: 1, 2: -1, 3: 1, -2: 4}, "target rank -2 out of range"},
		{balancer.Targets{9: 1, 3: -1, 2: 7, 0: 1}, "invalid target load -1 for rank 3"},
		{balancer.Targets{7: 1, 9: 1, 0: 2}, "target rank 7 out of range"},
	} {
		for i := 0; i < 100; i++ {
			err := c.targets.Validate(e)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%v: Validate = %v, want %q", c.targets, err, c.want)
			}
		}
	}
}
