package namespace

import (
	"fmt"
	"sync"
	"testing"

	"mantle/internal/sim"
)

// TestPendingHitsBounded: over more ops than the bound, the deferred-hit log
// never holds maxPendingHits records once a RecordOp has returned, and the
// ops it folded on its own are all in the counters.
func TestPendingHitsBounded(t *testing.T) {
	ns := New(sim.Second)
	dir := mustCreate(t, ns, "/a/b", true)
	const ops = 3*maxPendingHits + 5
	peak := 0
	for i := 0; i < ops; i++ {
		ns.RecordOp(dir, "f", OpIWR, 0)
		peak = max(peak, ns.PendingHits())
	}
	if peak != maxPendingHits-1 {
		t.Errorf("log peaked at %d records, want %d", peak, maxPendingHits-1)
	}
	if got := ns.PendingHits(); got != ops%maxPendingHits {
		t.Errorf("%d records pending after %d ops, want %d", got, ops, ops%maxPendingHits)
	}
	if got := ns.Root().Load(0).IWR; got != ops {
		t.Errorf("root IWR %v, want %d", got, ops)
	}
}

// TestShardedBoundedFlush: rank views fill their logs past the bound
// concurrently, with local and remote charges, while another goroutine
// reads counters. Every charge lands exactly once, and no log exceeds the
// bound. Run under -race: the fold a full log takes on its own writes the
// shared ancestor counters, so it must hold the write lock.
func TestShardedBoundedFlush(t *testing.T) {
	const ranks, perRank = 4, 2*maxPendingHits + 100
	ns := New(sim.Second)
	ns.EnableSharding(ranks)
	shared := mustCreate(t, ns, "/shared", true)
	dirs := make([]*Node, ranks)
	for r := range dirs {
		dirs[r] = mustCreate(t, ns, fmt.Sprintf("/shared/r%d/deep", r), true)
	}
	var wg sync.WaitGroup
	stop, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			shared.Load(0)
			if n := ns.PendingHits(); n > ranks*maxPendingHits {
				t.Errorf("%d records pending across %d domains", n, ranks)
			}
		}
	}()
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			v := ns.View(r)
			for i := 0; i < perRank; i++ {
				if i%3 == 0 {
					v.RecordOpRemote(dirs[(r+1)%ranks], "f", OpIRD, 0)
				} else {
					v.RecordOp(dirs[r], "f", OpIWR, 0)
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	got := shared.Load(0)
	remote := ranks * ((perRank + 2) / 3)
	if got.IRD != float64(remote) || got.IWR != float64(ranks*perRank-remote) {
		t.Errorf("shared IRD %v IWR %v, want %d and %d", got.IRD, got.IWR, remote, ranks*perRank-remote)
	}
}

// TestShardedLateHitDecays: the fold replays rank domains in rank order, not
// time order, so a hit can reach an ancestor counter after a later one. It
// must weigh what it would have in time order: an IRD hit at 1 s through
// View(1) and one at 3 s through View(0) leave 1·2⁻² + 1 = 1.25 at 3 s
// (half-life 1 s), not the 2.0 of adding the late hit in full.
func TestShardedLateHitDecays(t *testing.T) {
	ns := New(sim.Second)
	ns.EnableSharding(2)
	dir := mustCreate(t, ns, "/a/b", true)
	ns.View(1).RecordOp(dir, "f", OpIRD, 1*sim.Second)
	ns.View(0).RecordOp(dir, "f", OpIRD, 3*sim.Second)
	for n := dir; n != nil; n = n.Parent() {
		if got := n.Load(3 * sim.Second).IRD; got != 1.25 {
			t.Errorf("%s: IRD %v at 3 s, want 1.25", n.Path(), got)
		}
	}
}
