package live

import (
	"fmt"
	"sync"
	"testing"

	"mantle/internal/mds"
	"mantle/internal/namespace"
)

// TestRouterLearnsRankZeroUnderNonZeroAncestor: a rank-0 hint for a
// directory below a rank-3 subtree must be stored. Reading a missing entry
// as rank 0 made the learn fast path skip it, so every op under /a/b was
// sent to rank 3 and forwarded, forever.
func TestRouterLearnsRankZeroUnderNonZeroAncestor(t *testing.T) {
	r := newRouter(4)
	r.learn(mds.Hint{DirPath: "/a", Rank: 3})
	r.learn(mds.Hint{DirPath: "/a/b", Rank: 0})
	if got := r.rankFor("/a/b/f"); got != 0 {
		t.Fatalf("/a/b/f routes to %d, want 0", got)
	}
	if got := r.rankFor("/a/c"); got != 3 {
		t.Fatalf("/a/c routes to %d, want 3", got)
	}
}

// TestRouterClampsToActiveRanks: after a shrink, a hint naming a retired
// rank routes to rank 0; growing back restores it.
func TestRouterClampsToActiveRanks(t *testing.T) {
	r := newRouter(4)
	r.learn(mds.Hint{DirPath: "/a", Rank: 3})
	r.setNumRanks(2)
	if got := r.rankFor("/a/f"); got != 0 {
		t.Fatalf("retired rank 3 routed to %d, want 0", got)
	}
	r.setNumRanks(4)
	if got := r.rankFor("/a/f"); got != 3 {
		t.Fatalf("/a/f routes to %d after regrow, want 3", got)
	}
}

// TestRouterReplicaSets: a hint's replica list replaces the learned set,
// and a hint without one clears it, even when rank and frags are unchanged.
func TestRouterReplicaSets(t *testing.T) {
	r := newRouter(4)
	r.learn(mds.Hint{DirPath: "/hot", Rank: 1, Replicas: []namespace.Rank{2, 3}})
	if got := r.replicasOf("/hot"); fmt.Sprint(got) != "[2 3]" {
		t.Fatalf("replicas %v, want [2 3]", got)
	}
	r.learn(mds.Hint{DirPath: "/hot", Rank: 1})
	if got := r.replicasOf("/hot"); got != nil {
		t.Fatalf("replicas %v after a hint without them, want none", got)
	}
}

// TestRouterConcurrentLearnAndRoute exercises the read-lock fast path
// against writers; run it with -race.
func TestRouterConcurrentLearnAndRoute(t *testing.T) {
	r := newRouter(4)
	kids := namespace.RootFrag.Split(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h := mds.Hint{DirPath: fmt.Sprintf("/d%d", i%8), Rank: namespace.Rank((g + i) % 4)}
				if i%3 == 0 {
					h.Frags = []mds.FragHint{{Frag: kids[0], Rank: 0}, {Frag: kids[1], Rank: 1}}
				}
				r.learn(h)
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if rk := r.rankFor(fmt.Sprintf("/d%d/f%d", i%8, i)); rk < 0 || rk >= 4 {
					t.Errorf("rank %d outside the active set", rk)
					return
				}
			}
		}()
	}
	wg.Wait()
}
