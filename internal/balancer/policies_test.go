package balancer_test

import (
	"math"
	"slices"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/core"
	"mantle/internal/namespace"
)

// The paper's balancers ship as the Lua of policies/; these tests hold the
// listings to the behaviour the paper describes, through the Balancer
// interface the MDS calls.

// envWithLoads is a scored environment as an MDS builds it: each rank's
// load, and the deciding rank's own load as its local metadata load.
func envWithLoads(who int, loads ...float64) *balancer.Env {
	e := &balancer.Env{WhoAmI: namespace.Rank(who), State: &balancer.MemState{}}
	for _, l := range loads {
		e.MDSs = append(e.MDSs, balancer.MDSMetrics{Load: l, All: l, Auth: l})
		e.Total += l
	}
	e.AuthMetaLoad, e.AllMetaLoad = loads[who], loads[who]
	return e
}

func compile(t *testing.T, p core.Policy) *core.LuaBalancer {
	t.Helper()
	b, err := core.NewLuaBalancer(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func when(t *testing.T, b balancer.Balancer, e *balancer.Env) bool {
	t.Helper()
	ok, err := b.When(e)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// decide runs when and then, as the MDS does only when it fired, where: a
// listing's where may read a global its when set.
func decide(t *testing.T, b balancer.Balancer, e *balancer.Env) balancer.Targets {
	t.Helper()
	if !when(t, b, e) {
		return nil
	}
	targets, err := b.Where(e)
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

func TestCephFSMDSLoadFormula(t *testing.T) {
	b := compile(t, core.DefaultPolicy())
	e := &balancer.Env{MDSs: []balancer.MDSMetrics{{Auth: 10, All: 20, Req: 5, Queue: 3}}}
	got, err := b.MDSLoad(0, e)
	if err != nil {
		t.Fatal(err)
	}
	// 0.8*10 + 0.2*20 + 5 + 10*3 = 47
	if got != 47 {
		t.Fatalf("MDSLoad = %v, want 47", got)
	}
}

func TestCephFSWhen(t *testing.T) {
	b := compile(t, core.DefaultPolicy())
	if !when(t, b, envWithLoads(0, 100, 10, 10)) {
		t.Fatal("overloaded MDS should migrate")
	}
	if when(t, b, envWithLoads(1, 100, 10, 10)) {
		t.Fatal("underloaded MDS should not migrate")
	}
	// Tiny cluster load is suppressed.
	if when(t, b, envWithLoads(0, 0.3, 0.1, 0.1)) {
		t.Fatal("min start load not honoured")
	}
	// Single MDS never migrates.
	if when(t, b, envWithLoads(0, 100)) {
		t.Fatal("single MDS migrated")
	}
}

func TestCephFSWhereTargetsUnderloaded(t *testing.T) {
	b := compile(t, core.DefaultPolicy())
	e := envWithLoads(0, 90, 10, 20)
	targets := decide(t, b, e)
	if len(targets) != 2 {
		t.Fatalf("targets = %v", targets)
	}
	// mean = 40; deficits 30 (rank1), 20 (rank2); excess 50 = deficit,
	// so scale 1; with the 0.8 fudge → 24 and 16.
	if targets[1] != 30*0.8 || targets[2] != 20*0.8 {
		t.Fatalf("targets = %v", targets)
	}
	if err := targets.Validate(e); err != nil {
		t.Fatal(err)
	}
}

func TestCephFSWhereScalesToExcess(t *testing.T) {
	b := compile(t, core.DefaultPolicy())
	// mean 30, rank 0's excess 30, deficits 60 (ranks 1 and 2; rank 3 is
	// over the mean) → scale 1/2: ships 0.8 of its excess, not of the
	// deficit.
	targets := decide(t, b, envWithLoads(0, 60, 0, 0, 60))
	if got := targets.TotalTarget(); math.Abs(got-0.8*30) > 1e-9 || len(targets) != 2 {
		t.Fatalf("targets = %v, total %v", targets, got)
	}
}

func TestGreedySpillNeighbour(t *testing.T) {
	b := compile(t, core.GreedySpillPolicy())
	// Listing 1 counts inode writes only.
	if got, err := b.MetaLoad(namespace.CounterSnapshot{IRD: 9, IWR: 4}); err != nil || got != 4 {
		t.Fatalf("metaload = %v, %v, want IWR only", got, err)
	}
	e := envWithLoads(0, 10, 0, 0, 0)
	targets := decide(t, b, e)
	if len(targets) != 1 || targets[1] != 5 {
		t.Fatalf("targets = %v, want half to rank 1", targets)
	}
	// Neighbour busy → no spill.
	if when(t, b, envWithLoads(0, 10, 9, 0, 0)) {
		t.Fatal("busy neighbour should block spill")
	}
	// Last rank has no neighbour.
	if when(t, b, envWithLoads(3, 0, 0, 0, 10)) {
		t.Fatal("last rank spilled off the end")
	}
	how, err := b.HowMuch(e)
	if err != nil || len(how) != 1 || how[0] != "half" {
		t.Fatalf("howmuch = %v, %v", how, err)
	}
}

func TestGreedySpillEvenDissemination(t *testing.T) {
	b := compile(t, core.GreedySpillEvenPolicy())
	// Round 1: rank 0 loaded, all others idle → target half-way (rank 2).
	if targets := decide(t, b, envWithLoads(0, 10, 0, 0, 0)); targets[2] != 5 {
		t.Fatalf("round 1 targets = %v, want rank 2", targets)
	}
	// Round 2 from rank 2's view: 0 and 2 loaded → rank 2 aims at 3.
	if targets := decide(t, b, envWithLoads(2, 5, 0, 5, 0)); targets[3] != 2.5 {
		t.Fatalf("round 2 targets = %v, want rank 3", targets)
	}
	// Round 2 from rank 0's view: half-way rank 2 is busy → walk back
	// to rank 1.
	if targets := decide(t, b, envWithLoads(0, 5, 0, 5, 2.5)); targets[1] != 2.5 {
		t.Fatalf("round 2 rank0 targets = %v, want rank 1", targets)
	}
	// Fully loaded cluster → nowhere to go.
	if when(t, b, envWithLoads(0, 5, 5, 5, 5)) {
		t.Fatal("no idle MDS but still spilled")
	}
}

func TestFillAndSpillThreeStrikes(t *testing.T) {
	b := compile(t, core.FillAndSpillPolicy())
	e := envWithLoads(0, 40, 0)
	hot := func() bool {
		e.MDSs[0].CPU = 95
		return when(t, b, e)
	}
	if hot() || hot() {
		t.Fatal("spilled before three consecutive hot samples")
	}
	if !hot() {
		t.Fatal("three hot samples should spill")
	}
	// Counter resets after firing.
	if hot() || hot() {
		t.Fatal("counter did not reset after spill")
	}
	// A cool sample resets the streak.
	e.MDSs[0].CPU = 10
	if when(t, b, e) {
		t.Fatal("cool MDS spilled")
	}
	if hot() || hot() {
		t.Fatal("streak not reset by cool sample")
	}
	if !hot() {
		t.Fatal("three hot samples after the cool one should spill")
	}
}

func TestFillAndSpillWhere(t *testing.T) {
	b := compile(t, core.FillAndSpillPolicy())
	e := envWithLoads(0, 40, 0)
	e.MDSs[0].CPU = 95
	when(t, b, e)
	when(t, b, e)
	if targets := decide(t, b, e); len(targets) != 1 || targets[1] != 10 { // 25% of 40
		t.Fatalf("targets = %v", targets)
	}
	// Last rank spills nowhere: Listing 3 guards whoami < #MDSs.
	last := envWithLoads(1, 0, 40)
	last.MDSs[1].CPU = 95
	for i := 0; i < 6; i++ {
		if when(t, b, last) {
			t.Fatalf("last rank fired on hot sample %d", i+1)
		}
	}
}

func TestAdaptableMajorityCondition(t *testing.T) {
	b := compile(t, core.AdaptablePolicy())
	// Listing 4 weighs inode reads and writes alike.
	if got, err := b.MetaLoad(namespace.CounterSnapshot{IRD: 3, IWR: 4}); err != nil || got != 7 {
		t.Fatalf("metaload = %v, %v, want IRD+IWR", got, err)
	}
	// 60% of total and the max → migrate.
	if !when(t, b, envWithLoads(0, 60, 20, 20)) {
		t.Fatal("majority holder should migrate")
	}
	// 40% of total → no.
	if when(t, b, envWithLoads(0, 40, 30, 30)) {
		t.Fatal("non-majority migrated")
	}
	// Not the max → no (restricts to one exporter).
	if when(t, b, envWithLoads(0, 30, 65, 5)) {
		t.Fatal("non-max migrated")
	}
	if when(t, b, envWithLoads(0, 0, 0, 0)) {
		t.Fatal("idle cluster migrated")
	}
}

func TestAdaptableWhereFillsToMean(t *testing.T) {
	b := compile(t, core.AdaptablePolicy())
	e := envWithLoads(0, 90, 0, 0)
	if targets := decide(t, b, e); targets[1] != 30 || targets[2] != 30 {
		t.Fatalf("targets = %v", targets)
	}
	how, err := b.HowMuch(e)
	if err != nil || !slices.Equal(how, []string{"half", "small", "big", "big_small"}) {
		t.Fatalf("howmuch = %v, %v", how, err)
	}
}

func TestConservativeFloor(t *testing.T) {
	b := compile(t, core.ConservativePolicy(50))
	if when(t, b, envWithLoads(0, 40, 0, 0)) {
		t.Fatal("below floor but migrated")
	}
	if !when(t, b, envWithLoads(0, 60, 0, 0)) {
		t.Fatal("above floor should migrate")
	}
}

func TestTooAggressiveMigratesOnAnyImbalance(t *testing.T) {
	b := compile(t, core.TooAggressivePolicy())
	if !when(t, b, envWithLoads(0, 34, 33, 33)) {
		t.Fatal("slight imbalance should trigger the too-aggressive policy")
	}
	if when(t, b, envWithLoads(1, 34, 33, 33)) {
		t.Fatal("below-mean MDS migrated")
	}
}

func TestNoBalancerNeverMigrates(t *testing.T) {
	if when(t, balancer.NoBalancer{}, envWithLoads(0, 1000, 0, 0)) {
		t.Fatal("NoBalancer migrated")
	}
}

func TestTargetsValidate(t *testing.T) {
	e := envWithLoads(0, 10, 0)
	if err := (balancer.Targets{1: 5}).Validate(e); err != nil {
		t.Fatal(err)
	}
	if err := (balancer.Targets{0: 5}).Validate(e); err == nil {
		t.Fatal("self-target accepted")
	}
	if err := (balancer.Targets{7: 5}).Validate(e); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := (balancer.Targets{1: -3}).Validate(e); err == nil {
		t.Fatal("negative load accepted")
	}
}

func TestMemState(t *testing.T) {
	var s balancer.MemState
	if s.Read() != nil {
		t.Fatal("fresh state not nil")
	}
	s.Write(2.0)
	if s.Read() != 2.0 {
		t.Fatal("read back")
	}
}

// TestPolicyNames: a built-in balancer, and a variant, run under its own
// name.
func TestPolicyNames(t *testing.T) {
	names := map[string]balancer.Balancer{"none": balancer.NoBalancer{}}
	for _, name := range core.PolicyNames() {
		names[name] = compile(t, core.Policies()[name])
	}
	names["fill_and_spill_10"] = compile(t, core.FillAndSpillPolicyWithFraction(0.10))
	for want, b := range names {
		if b.Name() != want {
			t.Errorf("Name() = %q, want %q", b.Name(), want)
		}
	}
}
