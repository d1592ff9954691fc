package namespace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mantle/internal/sim"
)

// boundedTree builds a random tree with nested directory bounds and fragment
// bounds spread over numRanks, heated by random ops at random times. The
// same seed builds the same tree, so two of them can be driven differently
// and compared.
func boundedTree(t *testing.T, seed int64, numRanks int) *Namespace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ns := New(5 * sim.Second)
	dirs := []*Node{ns.Root()}
	for i := 0; i < 40; i++ {
		parent := dirs[rng.Intn(len(dirs))]
		d, err := ns.Create(parent, fmt.Sprintf("d%d", i), true)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, d)
		for f := rng.Intn(6); f > 0; f-- {
			if _, err := ns.Create(d, fmt.Sprintf("f%d", f), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	now := sim.Time(0)
	heat := func(n int) {
		for ; n > 0; n-- {
			now += sim.Time(rng.Intn(300)) * sim.Millisecond
			d := dirs[rng.Intn(len(dirs))]
			ns.RecordOp(d, fmt.Sprintf("f%d", 1+rng.Intn(5)), OpKind(rng.Intn(int(numOpKinds))), now)
		}
	}
	heat(300)
	for _, d := range dirs[1:] {
		switch rng.Intn(4) {
		case 0:
			ns.SetAuthOverride(d, Rank(rng.Intn(numRanks)))
		case 1:
			for _, f := range ns.SplitDir(d, RootFrag, 1+uint8(rng.Intn(2)), now) {
				if rng.Intn(2) == 0 {
					ns.SetFragAuth(d, f, Rank(rng.Intn(numRanks)))
				}
			}
		}
	}
	heat(300)
	return ns
}

// TestAuthLoadOfMatchesAuthLoad: for every rank, the filtered own-rank pass
// returns AuthLoad's entry bit for bit, calls load on fewer bounds, and
// leaves every counter decayed exactly as the full pass does.
func TestAuthLoadOfMatchesAuthLoad(t *testing.T) {
	const numRanks = 5
	now := 200 * sim.Second
	var fullCalls, ownCalls int
	for seed := int64(1); seed <= 12; seed++ {
		for r := Rank(0); r < numRanks; r++ {
			full, own := boundedTree(t, seed, numRanks), boundedTree(t, seed, numRanks)
			counting := func(calls *int) func(CounterSnapshot) float64 {
				return func(s CounterSnapshot) float64 { *calls++; return s.CephLoad() }
			}
			want := full.AuthLoad(numRanks, now, counting(&fullCalls))[r]
			got := own.AuthLoadOf(r, numRanks, now, counting(&ownCalls))
			if !bitsEqual(got, want) {
				t.Fatalf("seed %d rank %d: AuthLoadOf = %v (%x), AuthLoad = %v (%x)",
					seed, r, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			// A later look at every counter sees the same decayed state.
			compareTrees(t, own.Root(), full.Root(), now+3*sim.Second)
		}
	}
	if ownCalls*2 > fullCalls {
		t.Fatalf("own-rank passes called load %d times, full passes %d: the filter skips too little", ownCalls, fullCalls)
	}
	if got := boundedTree(t, 1, numRanks).AuthLoadOf(numRanks, numRanks, now, CounterSnapshot.CephLoad); got != 0 {
		t.Fatalf("rank outside the cluster has load %v", got)
	}
}

// TestHasSubdirTracksStructure follows the subdirectory count through
// create, remove and rename; CheckInvariants recounts it for every
// directory.
func TestHasSubdirTracksStructure(t *testing.T) {
	ns := New(0)
	a := mustCreate(t, ns, "/a", true)
	b := mustCreate(t, ns, "/b", true)
	mustCreate(t, ns, "/a/file", false)
	if a.HasSubdir() {
		t.Fatal("a directory holding only a file reports a subdirectory")
	}
	mustCreate(t, ns, "/a/sub", true)
	if !a.HasSubdir() || b.HasSubdir() {
		t.Fatalf("after mkdir /a/sub: a=%v b=%v", a.HasSubdir(), b.HasSubdir())
	}
	if err := ns.Rename(a, "sub", b, "moved"); err != nil {
		t.Fatal(err)
	}
	if a.HasSubdir() || !b.HasSubdir() {
		t.Fatalf("after rename to /b/moved: a=%v b=%v", a.HasSubdir(), b.HasSubdir())
	}
	if err := ns.Remove(b, "moved"); err != nil {
		t.Fatal(err)
	}
	if b.HasSubdir() || !ns.Root().HasSubdir() {
		t.Fatalf("after rmdir: b=%v root=%v", b.HasSubdir(), ns.Root().HasSubdir())
	}
	if err := ns.CheckInvariants(1, false); err != nil {
		t.Fatal(err)
	}
}
