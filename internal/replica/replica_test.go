package replica

import (
	"reflect"
	"sync"
	"testing"

	"mantle/internal/namespace"
)

func TestGrantAndHolders(t *testing.T) {
	reg := NewRegistry()
	if !reg.Grant("/hot", 1) {
		t.Fatal("first grant refused")
	}
	if reg.Grant("/hot", 1) {
		t.Fatal("duplicate grant accepted")
	}
	if !reg.Grant("/hot", 2) {
		t.Fatal("second holder refused")
	}
	if !reg.ActiveHolder("/hot", 1) || !reg.ActiveHolder("/hot", 2) {
		t.Fatal("holders not active")
	}
	if reg.ActiveHolder("/hot", 3) {
		t.Fatal("non-holder reported active")
	}
	got := reg.Holders("/hot")
	want := []namespace.Rank{1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Holders = %v, want %v", got, want)
	}
	if hp := reg.HeldPaths(1); len(hp) != 1 || hp[0] != "/hot" {
		t.Fatalf("HeldPaths(1) = %v", hp)
	}
	// HeldPaths is sorted whatever the map order: the replica load is
	// summed in this order, so identical states advertise identical floats.
	for _, p := range []string{"/z", "/a/b", "/m", "/a", "/hot/x"} {
		reg.Grant(p, 1)
	}
	want1 := []string{"/a", "/a/b", "/hot", "/hot/x", "/m", "/z"}
	for i := 0; i < 20; i++ {
		if hp := reg.HeldPaths(1); !reflect.DeepEqual(hp, want1) {
			t.Fatalf("HeldPaths(1) = %v, want %v", hp, want1)
		}
	}
}

// TestHoldersPublished: Holders hands out the published set without
// allocating, and a later grant or drop publishes a new slice instead of
// writing into one a caller may still be reading.
func TestHoldersPublished(t *testing.T) {
	reg := NewRegistry()
	reg.Grant("/d", 3)
	reg.Grant("/d", 1)
	got := reg.Holders("/d")
	if allocs := testing.AllocsPerRun(1000, func() { reg.Holders("/d") }); allocs != 0 {
		t.Fatalf("Holders allocates %.0f objects, want 0", allocs)
	}
	reg.Grant("/d", 2)
	if !reflect.DeepEqual(got, []namespace.Rank{1, 3}) {
		t.Fatalf("grant changed a published set: %v", got)
	}
	if now := reg.Holders("/d"); !reflect.DeepEqual(now, []namespace.Rank{1, 2, 3}) {
		t.Fatalf("Holders = %v after grant", now)
	}
	got = reg.Holders("/d")
	reg.DropRank(1)
	if !reflect.DeepEqual(got, []namespace.Rank{1, 2, 3}) {
		t.Fatalf("drop changed a published set: %v", got)
	}
	if now := reg.Holders("/d"); !reflect.DeepEqual(now, []namespace.Rank{2, 3}) {
		t.Fatalf("Holders = %v after drop", now)
	}
	notify, ok := reg.Revoke("/d")
	if !ok || !reflect.DeepEqual(notify, []namespace.Rank{2, 3}) {
		t.Fatalf("Revoke = %v, %v", notify, ok)
	}
	if reg.Holders("/d") != nil {
		t.Fatal("holder set advertised mid-revoke")
	}
}

// TestHoldersConcurrent reads published sets on several goroutines while
// others grant and drop ranks; under -race a write into a published slice
// shows as a data race.
func TestHoldersConcurrent(t *testing.T) {
	reg := NewRegistry()
	paths := []string{"/a", "/b", "/c"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				p := paths[(i+w)%len(paths)]
				reg.Grant(p, namespace.Rank(1+(i*7+w)%5))
				if i%5 == 4 {
					reg.DropRank(namespace.Rank(1 + (i+w)%5))
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				hs := reg.Holders(paths[(i+g)%len(paths)])
				for j := 1; j < len(hs); j++ {
					if hs[j-1] >= hs[j] {
						t.Errorf("holder set %v not strictly sorted", hs)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
}

func TestWriteIntentBlocksGrant(t *testing.T) {
	reg := NewRegistry()
	if _, wait := reg.BeginWrite("/d", 0, nil); wait {
		t.Fatal("write with no holders should not wait")
	}
	if reg.Grant("/d", 1) {
		t.Fatal("grant accepted while a write intent is open")
	}
	reg.EndWrite("/d", 0)
	if !reg.Grant("/d", 1) {
		t.Fatal("grant refused after intent released")
	}
}

func TestBeginWriteRevokeFlow(t *testing.T) {
	reg := NewRegistry()
	reg.Grant("/d", 1)
	reg.Grant("/d", 2)
	fired := false
	notify, wait := reg.BeginWrite("/d", 0, func() { fired = true })
	if !wait {
		t.Fatal("write over holders should wait")
	}
	if !reflect.DeepEqual(notify, []namespace.Rank{1, 2}) {
		t.Fatalf("notify = %v", notify)
	}
	// While revoking, reads must not treat the replica as servable and no
	// new grants may land.
	if reg.ActiveHolder("/d", 1) {
		t.Fatal("holder still active mid-revoke")
	}
	if reg.Grant("/d", 3) {
		t.Fatal("grant accepted mid-revoke")
	}
	reg.Ack("/d", 1)
	if fired {
		t.Fatal("done fired before the last ack")
	}
	reg.Ack("/d", 2)
	if !fired {
		t.Fatal("done not fired after the last ack")
	}
	if reg.HasHolders("/d") {
		t.Fatal("holders survived the revoke")
	}
	// The intent is still open until EndWrite.
	if reg.Grant("/d", 1) {
		t.Fatal("grant accepted before EndWrite")
	}
	reg.EndWrite("/d", 0)
	if !reg.Grant("/d", 1) {
		t.Fatal("grant refused after EndWrite")
	}
	st := reg.Stats()
	if st.Grants != 3 || st.Revokes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestForceComplete(t *testing.T) {
	reg := NewRegistry()
	if reg.ForceComplete("/d") {
		t.Fatal("force-complete with no revoke in flight")
	}
	reg.Grant("/d", 1)
	fired := false
	if _, wait := reg.BeginWrite("/d", 0, func() { fired = true }); !wait {
		t.Fatal("expected wait")
	}
	if !reg.ForceComplete("/d") {
		t.Fatal("force-complete refused")
	}
	if !fired {
		t.Fatal("done not fired by force-complete")
	}
	if reg.Stats().ForcedRevokes != 1 {
		t.Fatalf("stats = %+v", reg.Stats())
	}
	// A late ack from the dead holder must be a no-op.
	reg.Ack("/d", 1)
}

func TestDropRankCompletesRevokes(t *testing.T) {
	reg := NewRegistry()
	reg.Grant("/a", 1)
	reg.Grant("/a", 2)
	reg.Grant("/b", 1)
	fired := false
	if _, wait := reg.BeginWrite("/a", 0, func() { fired = true }); !wait {
		t.Fatal("expected wait")
	}
	reg.Ack("/a", 2)
	// Rank 1 dies holding /b and owing the last /a ack: the revoke must
	// complete and /b must be released.
	reg.DropRank(1)
	if !fired {
		t.Fatal("revoke not completed by DropRank")
	}
	if reg.HasHolders("/b") {
		t.Fatal("dead rank still holds /b")
	}
	if len(reg.HeldPaths(1)) != 0 {
		t.Fatal("dead rank still listed as holder")
	}
}

func TestDropRankClearsWriteIntents(t *testing.T) {
	reg := NewRegistry()
	reg.BeginWrite("/d", 1, nil)
	reg.DropRank(1)
	if !reg.Grant("/d", 2) {
		t.Fatal("dead rank's write intent still blocks grants")
	}
}

func TestInvalidateSubtree(t *testing.T) {
	reg := NewRegistry()
	reg.Grant("/a", 1)
	reg.Grant("/a/b", 2)
	reg.Grant("/ab", 2) // sibling sharing the prefix bytes, not the subtree
	fired := false
	if _, wait := reg.BeginWrite("/a/b", 0, func() { fired = true }); !wait {
		t.Fatal("expected wait")
	}
	reg.InvalidateSubtree("/a")
	if !fired {
		t.Fatal("pending revoke not completed by invalidation")
	}
	if reg.HasHolders("/a") || reg.HasHolders("/a/b") {
		t.Fatal("subtree replicas survived invalidation")
	}
	if !reg.HasHolders("/ab") {
		t.Fatal("sibling /ab wrongly invalidated")
	}
	if reg.Stats().Invalidations == 0 {
		t.Fatal("invalidations not counted")
	}
}

func TestPathsUnder(t *testing.T) {
	reg := NewRegistry()
	reg.Grant("/a", 1)
	reg.Grant("/a/b", 1)
	reg.Grant("/ab", 1)
	got := reg.PathsUnder("/a")
	want := []string{"/a", "/a/b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PathsUnder = %v, want %v", got, want)
	}
}

func TestDispatchRouting(t *testing.T) {
	reg := NewRegistry()
	var ran []namespace.Rank
	reg.Dispatch = func(r namespace.Rank, fn func()) {
		ran = append(ran, r)
		fn()
	}
	reg.Grant("/d", 1)
	if _, wait := reg.BeginWrite("/d", 3, func() {}); !wait {
		t.Fatal("expected wait")
	}
	reg.Ack("/d", 1)
	if !reflect.DeepEqual(ran, []namespace.Rank{3}) {
		t.Fatalf("dispatch ranks = %v", ran)
	}
}
