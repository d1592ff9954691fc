package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/namespace"
)

// treeSpelling is the same load hook spelled so that it stays on the
// tree-walker: a number is truthy, so `(e) or 0` is e, but `or` is outside
// the kernel grammar.
func treeSpelling(src string) string { return "(" + src + ") or 0" }

// walkedSpelling is a decision hook spelled so that it stays on the
// tree-walker: a string local is outside the kernel grammar.
func walkedSpelling(src string) string { return "local walk = 'tree' " + strings.TrimSpace(src) }

// TestKernelPublishesGlobals: a tree-walked when hook that reads what the
// load hooks leave behind — the five counters and i — sees the same values
// whether those hooks ran as kernels or on the tree-walker, and so does
// every other global.
func TestKernelPublishesGlobals(t *testing.T) {
	kernels := Policy{
		Name:     "leftovers",
		MetaLoad: `IRD + 2*IWR + READDIR + FETCH + STORE`,
		MDSLoad:  `MDSs[i]["all"] + total/8`,
		When:     walkedSpelling(`seen = IRD * 1000 + i + STORE / 7 return i == #MDSs`),
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

// TestShippedHooksRunAsKernels pins which hooks of every policy of
// policies/ run as kernels: every hook, except the when or where of a
// policy that keeps state through RDstate/WRstate.
func TestShippedHooksRunAsKernels(t *testing.T) {
	all := [numHooks]bool{true, true, true, true, true}
	want := map[string][numHooks]bool{
		"adaptable":                all,
		"adaptable_conservative":   all,
		"adaptable_too_aggressive": all,
		"cephfs_original":          all,
		"coalesce_home":            {true, true, false, true, true},
		"elastic":                  all,
		"feedback":                 {true, true, true, false, true},
		"fill_and_spill":           {true, true, false, true, true},
		"greedy_spill":             all,
		"greedy_spill_even":        all,
		"replicate":                all,
	}
	files := policyFiles()
	if len(files) != len(want) {
		t.Fatalf("%d policy files, %d pinned here", len(files), len(want))
	}
	for name, p := range files {
		b, err := NewLuaBalancer(p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got [numHooks]bool
		got[hookMetaLoad], got[hookMDSLoad] = b.Kernels()
		got[hookWhen], got[hookWhere], got[hookHowMuch] = b.DecisionKernels()
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not pinned here", name)
		}
		for h := hookMetaLoad; h < numHooks; h++ {
			if got[h] != w[h] {
				t.Errorf("%s: %s runs as a kernel: %v, want %v", name, hookNames[h], got[h], w[h])
			}
		}
	}
}

// TestDecisionKernelPairing: a kernel-shaped decision hook walks beside a
// tree-walked metaload, which could read the globals its skipped bind would
// have left, and when it assigns a global a load kernel leaves, since those
// publish in any order; the linter says why.
func TestDecisionKernelPairing(t *testing.T) {
	treeMeta := AdaptablePolicy()
	treeMeta.MetaLoad = treeSpelling(treeMeta.MetaLoad)
	leavesIRD := AdaptablePolicy()
	leavesIRD.When = "IRD = total " + leavesIRD.When
	for _, c := range []struct {
		p    Policy
		want [3]bool
		why  string
	}{
		{treeMeta, [3]bool{}, "needs a metaload kernel beside it"},
		{leavesIRD, [3]bool{false, true, true}, "assigns a global a load kernel leaves"},
	} {
		b, err := NewLuaBalancer(c.p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got [3]bool
		got[0], got[1], got[2] = b.DecisionKernels()
		if got != c.want {
			t.Errorf("%q / %q: when, where, howmuch run as kernels: %v, want %v", c.p.MetaLoad, c.p.When, got, c.want)
		}
		if runs := b.runs(); !strings.Contains(runs[hookWhen], c.why) {
			t.Errorf("%q / %q: the linter says %q, want it to say it %s", c.p.MetaLoad, c.p.When, runs[hookWhen], c.why)
		}
	}
}

// TestGreedySpillEvenLeavesT: greedy_spill_even's when picks the rank to
// spill to and leaves it in the global t; its where reads t. The Targets
// must have the same bits with both hooks as kernels, with the where forced
// onto the tree-walker, and with both walked.
func TestGreedySpillEvenLeavesT(t *testing.T) {
	kernels := GreedySpillEvenPolicy()
	whereWalks := kernels
	whereWalks.Where = walkedSpelling(kernels.Where)
	bothWalk := whereWalks
	bothWalk.When = walkedSpelling(kernels.When)
	var sides [3]*LuaBalancer
	for s, p := range []Policy{kernels, whereWalks, bothWalk} {
		b, err := NewLuaBalancer(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sides[s] = b
	}
	for s, want := range [][2]bool{{true, true}, {true, false}, {false, false}} {
		if when, where, _ := sides[s].DecisionKernels(); when != want[0] || where != want[1] {
			t.Fatalf("side %d: when runs as a kernel: %v, where: %v; want %v", s, when, where, want)
		}
	}
	spills := 0
	for n := 2; n <= 9; n++ {
		for who := 0; who < n; who++ {
			for idle := 0; idle < n; idle++ {
				// Rank who is loaded, and so is every rank but idle: t
				// walks down from half-way across to the idle one.
				var got [3]string
				for s, b := range sides {
					e := &balancer.Env{WhoAmI: namespace.Rank(who), State: &balancer.MemState{}, AllMetaLoad: 3.25 + float64(who)}
					for r := 0; r < n; r++ {
						m := balancer.MDSMetrics{All: 1.5 + float64(r)/7}
						if r == idle && r != who {
							m.All = 0.001
						}
						e.MDSs = append(e.MDSs, m)
					}
					if err := balancer.ScoreAll(b, e); err != nil {
						t.Fatal(err)
					}
					ok, err := b.When(e)
					if err != nil {
						t.Fatal(err)
					}
					got[s] = fmt.Sprint(ok)
					if ok {
						targets, err := b.Where(e)
						got[s] += fmt.Sprintf(" %v %v", targetBits(targets), err)
					}
				}
				if got[0] != got[1] || got[0] != got[2] {
					t.Fatalf("%d ranks, whoami %d, idle %d: kernels %s, where walked %s, both walked %s", n, who+1, idle+1, got[0], got[1], got[2])
				}
				if strings.HasPrefix(got[0], "true") {
					spills++
				}
			}
		}
	}
	if spills == 0 {
		t.Fatal("no state made greedy_spill_even spill")
	}
	// Only a tree-walked hook binds MDSs: the kernels never bailed.
	if sides[0].vm.Globals.GetString("MDSs") != nil {
		t.Fatal("a hook of the all-kernel side walked")
	}
}

// targetBits renders targets in rank order, amounts by their bits.
func targetBits(targets balancer.Targets) string {
	var b strings.Builder
	for r := namespace.Rank(0); int(r) < 64; r++ {
		if v, ok := targets[r]; ok {
			fmt.Fprintf(&b, "%d:%016x ", r, math.Float64bits(v))
		}
	}
	return b.String()
}
