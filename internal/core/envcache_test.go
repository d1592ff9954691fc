package core

import (
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/namespace"
)

// The Table 2 environment is cached across hook invocations (only numeric
// fields are overwritten). These tests prove a long-lived balancer sees
// exactly what a freshly built one sees, including when the cluster grows
// or shrinks between heartbeats.

func envN(n int, bump float64) *balancer.Env {
	e := &balancer.Env{WhoAmI: 0, State: &balancer.MemState{}}
	for i := 0; i < n; i++ {
		load := float64(10*(n-i)) + bump
		e.MDSs = append(e.MDSs, balancer.MDSMetrics{
			Load: load, All: load, Auth: load / 2,
			CPU: 0.25, Mem: 0.5, Queue: float64(i), Req: 100 + load,
		})
		e.Total += load
	}
	return e
}

func decideAll(t *testing.T, b *LuaBalancer, e *balancer.Env) (bool, balancer.Targets, []string, []float64) {
	t.Helper()
	when, err := b.When(e)
	if err != nil {
		t.Fatal(err)
	}
	var targets balancer.Targets
	var sel []string
	if when {
		if targets, err = b.Where(e); err != nil {
			t.Fatal(err)
		}
		if sel, err = b.HowMuch(e); err != nil {
			t.Fatal(err)
		}
	}
	loads := make([]float64, len(e.MDSs))
	for i := range e.MDSs {
		l, err := b.MDSLoad(namespace.Rank(i), e)
		if err != nil {
			t.Fatal(err)
		}
		loads[i] = l
	}
	return when, targets, sel, loads
}

// TestEnvCacheMatchesFreshBalancer drives one balancer through a sequence
// of heartbeats with varying cluster sizes and loads, comparing every
// decision against a brand-new balancer evaluating the same Env.
func TestEnvCacheMatchesFreshBalancer(t *testing.T) {
	for _, name := range []string{"greedy_spill", "adaptable", "cephfs_original"} {
		p, ok := Policies()[name]
		if !ok {
			t.Fatalf("no policy %q", name)
		}
		cached, err := NewLuaBalancer(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Grow, shrink, regrow: 3 -> 5 -> 2 -> 4 ranks.
		for step, n := range []int{3, 5, 2, 4} {
			e := envN(n, float64(step)*0.37)
			fresh, err := NewLuaBalancer(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantWhen, wantTargets, wantSel, wantLoads := decideAll(t, fresh, envN(n, float64(step)*0.37))
			gotWhen, gotTargets, gotSel, gotLoads := decideAll(t, cached, e)
			if gotWhen != wantWhen {
				t.Fatalf("%s step %d: when = %v, fresh balancer says %v", name, step, gotWhen, wantWhen)
			}
			if len(gotTargets) != len(wantTargets) {
				t.Fatalf("%s step %d: targets %v, want %v", name, step, gotTargets, wantTargets)
			}
			for r, amt := range wantTargets {
				if gotTargets[r] != amt {
					t.Fatalf("%s step %d: targets[%d] = %v, want %v", name, step, r, gotTargets[r], amt)
				}
			}
			if len(gotSel) != len(wantSel) {
				t.Fatalf("%s step %d: selectors %v, want %v", name, step, gotSel, wantSel)
			}
			for i := range wantSel {
				if gotSel[i] != wantSel[i] {
					t.Fatalf("%s step %d: selectors %v, want %v", name, step, gotSel, wantSel)
				}
			}
			for i := range wantLoads {
				if gotLoads[i] != wantLoads[i] {
					t.Fatalf("%s step %d: MDSLoad(%d) = %v, want %v", name, step, i, gotLoads[i], wantLoads[i])
				}
			}
		}
	}
}

// TestEnvShrinkDropsStaleRanks: after the cluster shrinks, a script must
// not see the departed rank's table lingering in MDSs.
func TestEnvShrinkDropsStaleRanks(t *testing.T) {
	b, err := NewLuaBalancer(Policy{
		Name: "count_ranks",
		When: "return #MDSs == expected and MDSs[#MDSs + 1] == nil",
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 2, 3} {
		b.VM().Globals.SetString("expected", float64(n))
		ok, err := b.When(envN(n, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("script saw wrong MDSs length after resize to %d", n)
		}
	}
}

// TestTargetsTableClearedBetweenInvocations: a where hook that writes only
// its own rank's target must not inherit entries from the previous
// invocation's table.
func TestTargetsTableClearedBetweenInvocations(t *testing.T) {
	b, err := NewLuaBalancer(Policy{
		Name:  "one_target",
		When:  "return true",
		Where: "targets[pick] = 1",
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := envN(3, 0)
	b.VM().Globals.SetString("pick", float64(2))
	first, err := b.Where(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[namespace.Rank(1)] != 1 {
		t.Fatalf("first targets = %v", first)
	}
	b.VM().Globals.SetString("pick", float64(3))
	second, err := b.Where(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 1 || second[namespace.Rank(2)] != 1 {
		t.Fatalf("stale targets leaked across invocations: %v", second)
	}
}

// TestScoredRoundStaysLinear pins what "bind once, score many" bought, in
// counts rather than timings: one rebalance-shaped round over N ranks — score
// every rank with MDSLoad, folding each score into the env, then When — used
// to store 7·N² + 6·N table fields and allocate a box for most of them.
// Adaptable's mdsload runs as a kernel, which stores nothing; the same hook
// spelled for the tree-walker is held to the same bounds, and must score
// every rank to the same bits.
func TestScoredRoundStaysLinear(t *testing.T) {
	const n = 64
	var scored [2]string
	for s, mdsLoad := range []string{AdaptablePolicy().MDSLoad, treeSpelling(AdaptablePolicy().MDSLoad)} {
		p := AdaptablePolicy()
		p.MDSLoad = mdsLoad
		b, err := NewLuaBalancer(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, kernel := b.Kernels(); kernel != (s == 0) {
			t.Fatalf("%q runs as a kernel: %v", mdsLoad, kernel)
		}
		e := envN(n, 0)
		round := func() {
			e.Total = 0
			for r := range e.MDSs {
				m := &e.MDSs[r]
				// Every metric of every rank is new this tick.
				m.Auth, m.All, m.CPU, m.Mem, m.Queue, m.Req, m.Load = m.Auth+0.5, m.All+0.5, m.CPU+0.5, m.Mem+0.5, m.Queue+0.5, m.Req+0.5, 0
			}
			for r := range e.MDSs {
				load, err := b.MDSLoad(namespace.Rank(r), e)
				if err != nil {
					t.Fatal(err)
				}
				e.MDSs[r].Load = load
				e.Total += load
			}
			if _, err := b.When(e); err != nil {
				t.Fatal(err)
			}
		}
		round() // warm: build the tables
		scored[s] = envBits(e)
		writes := func() uint64 {
			w := b.vm.Globals.Writes() + b.mdss.Writes()
			for _, r := range b.ranks {
				w += r.t.Writes()
			}
			return w
		}
		before := writes()
		round()
		if got := writes() - before; got > 16*n {
			t.Errorf("%q: one %d-rank round made %d table writes, want at most 16·N = %d", mdsLoad, n, got, 16*n)
		}
		if got := testing.AllocsPerRun(5, round); got > 1500 {
			t.Errorf("%q: one %d-rank round made %.0f allocations, want at most 1500", mdsLoad, n, got)
		}
	}
	if scored[0] != scored[1] {
		t.Fatalf("the kernel scored\n%s\nthe tree-walker\n%s", scored[0], scored[1])
	}
}

// TestEnvTableIdentityPersists: MDSs and MDSs[i] are the same tables from
// hook to hook and tick to tick while rank i exists, whether or not any of
// their fields changed in between.
func TestEnvTableIdentityPersists(t *testing.T) {
	b, err := NewLuaBalancer(Policy{
		Name:    "identity",
		MDSLoad: `keep, keep2 = keep or MDSs, keep2 or MDSs[2] return MDSs[i]["all"]`,
		When:    `return MDSs == keep and MDSs[2] == keep2`,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for tick, n := range []int{3, 3, 5, 2} {
		e := envN(n, float64(tick))
		if _, err := b.MDSLoad(0, e); err != nil {
			t.Fatal(err)
		}
		same, err := b.When(e)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Fatalf("tick %d (%d ranks): MDSs or MDSs[2] is a different table than at the first hook", tick, n)
		}
	}
}
