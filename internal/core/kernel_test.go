package core

import (
	"strings"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/namespace"
)

// treeSpelling is the same load hook spelled so that it stays on the
// tree-walker: a number is truthy, so `(e) or 0` is e, but `or` is outside
// the kernel grammar.
func treeSpelling(src string) string { return "(" + src + ") or 0" }

// TestKernelPublishesGlobals: a tree-walked when hook that reads what the
// load hooks leave behind — the five counters and i — sees the same values
// whether those hooks ran as kernels or on the tree-walker, and so does
// every other global.
func TestKernelPublishesGlobals(t *testing.T) {
	kernels := Policy{
		Name:     "leftovers",
		MetaLoad: `IRD + 2*IWR + READDIR + FETCH + STORE`,
		MDSLoad:  `MDSs[i]["all"] + total/8`,
		When:     `seen = IRD * 1000 + i + STORE / 7 return i == #MDSs`,
	}
	tree := kernels
	tree.MetaLoad, tree.MDSLoad = treeSpelling(kernels.MetaLoad), treeSpelling(kernels.MDSLoad)
	var sides [2]*LuaBalancer
	for s, p := range []Policy{kernels, tree} {
		b, err := NewLuaBalancer(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sides[s] = b
	}
	if meta, mds := sides[0].Kernels(); !meta || !mds {
		t.Fatalf("the kernel spelling compiled to kernels: metaload %v, mdsload %v", meta, mds)
	}
	if meta, mds := sides[1].Kernels(); meta || mds {
		t.Fatalf("the tree spelling compiled to kernels: metaload %v, mdsload %v", meta, mds)
	}
	for tick := 0; tick < 4; tick++ {
		var got [2]string
		for s, b := range sides {
			e := envN(3+tick%2, float64(tick))
			for r := range e.MDSs {
				e.MDSs[r].Load = 0
			}
			e.Total = 0
			snap := namespace.CounterSnapshot{IRD: 1.25 + float64(tick), IWR: 3, Readdir: 0.5, Fetch: 7, Store: 1e-3}
			if _, err := b.MetaLoad(snap); err != nil {
				t.Fatal(err)
			}
			if err := balancer.ScoreAll(b, e); err != nil {
				t.Fatal(err)
			}
			if tick%2 == 1 {
				// A lone MDSLoad after the round: i is its rank's now.
				if _, err := b.MDSLoad(1, e); err != nil {
					t.Fatal(err)
				}
			}
			ok, err := b.When(e)
			if err != nil {
				t.Fatal(err)
			}
			if want := tick%2 == 0; ok != want {
				t.Fatalf("tick %d side %d: when saw i == #MDSs: %v, want %v", tick, s, ok, want)
			}
			got[s] = dumpEnv(b.vm)
		}
		if got[0] != got[1] {
			t.Fatalf("tick %d: globals after kernels\n%s\nafter the tree-walker\n%s", tick, got[0], got[1])
		}
		if !strings.Contains(got[0], "seen=") || !strings.Contains(got[0], "IRD=") {
			t.Fatalf("tick %d: the when hook's globals are missing:\n%s", tick, got[0])
		}
	}
}

// TestShippedHooksRunAsKernels: every policy of policies/ prices a dirfrag
// and scores a rank with Go arithmetic.
func TestShippedHooksRunAsKernels(t *testing.T) {
	for name, p := range policyFiles() {
		b, err := NewLuaBalancer(p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if meta, mds := b.Kernels(); !meta || !mds {
			t.Errorf("%s: metaload runs as a kernel: %v, mdsload: %v", name, meta, mds)
		}
	}
}
