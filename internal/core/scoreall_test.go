package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/namespace"
)

// ScoreAll binds the environment once and then, rank by rank, stores only
// what the previous score changed. These tests run it beside the per-rank
// MDSLoad loop it replaced, kept here as the oracle, and require the same
// scores, the same errors and demotions, and the same hook environment.

// loopScore is the loop mds.rebalance, mds.replicaTick and flight.Replay ran
// before ScoreAll.
func loopScore(b balancer.Balancer, e *balancer.Env) error {
	for r := range e.MDSs {
		load, err := b.MDSLoad(namespace.Rank(r), e)
		if err != nil {
			return err
		}
		if load < 0 {
			load = 0
		}
		e.MDSs[r].Load = load
		e.Total += load
	}
	return nil
}

// scoreScripts are mds_bal_mdsload hooks that lean on what ScoreAll must
// reproduce. errat, set per tick, names the 1-based rank that fails.
var scoreScripts = map[string]string{
	"plain": `MDSs[i]["all"] + 0.5*MDSs[i]["q"]`,
	// Reads what earlier ranks' scores left: the partial loads and total.
	"partial": `
local prev = 0
if i > 1 then prev = MDSs[i-1]["load"] end
return MDSs[i]["all"] + total/8 + prev/4 + MDSs[i]["load"]`,
	// Writes bound fields and its own keys into another rank's table.
	"write_peer": `
local j = i % #MDSs + 1
MDSs[j]["all"] = (MDSs[j]["all"] or 0) + 100
MDSs[j]["load"] = -1
MDSs[j]["cpu"] = nil
MDSs[j]["seen"] = (MDSs[j]["seen"] or 0) + i
return MDSs[i]["all"] + MDSs[i]["cpu"] + (MDSs[i]["seen"] or 0)`,
	// Reassigns the globals the binder publishes.
	"reassign": `
local mine = MDSs[i]["all"]
MDSs = {}
total = -5
whoami = 0
authmetaload = nil
return mine + i`,
	// Replaces a rank's slot in MDSs itself.
	"replace_slot": `
local mine = MDSs[i]["all"]
if i == 2 then MDSs[1] = {all = 7, load = 7} end
return mine + MDSs[1]["all"] + total`,
	// Negative scores clamp to zero before they join total.
	"negative": `MDSs[i]["all"] - 40 + total`,
	"error_at": `
if i == errat then error("boom at " .. i) end
return MDSs[i]["all"] + total/16`,
	"nan_at": `
if i == errat then return 0/0 end
return MDSs[i]["all"]`,
	"wrong_type_at": `
if i == errat then return "x" .. i end
return MDSs[i]["q"] + total/4`,
}

// scoreEnv builds a seeded environment of 1..9 ranks whose metrics include
// integers (interned boxes), fractions and zeros; Load and Total start zero
// except when prior says otherwise, as a caller may hand them in.
func scoreEnv(rng *rand.Rand, prior bool) *balancer.Env {
	n := 1 + rng.Intn(9)
	e := &balancer.Env{WhoAmI: namespace.Rank(rng.Intn(n)), State: &balancer.MemState{},
		AuthMetaLoad: float64(rng.Intn(50)), AllMetaLoad: rng.Float64() * 50}
	val := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return float64(rng.Intn(80))
		case 1:
			return rng.Float64() * 80
		}
		return 0
	}
	for i := 0; i < n; i++ {
		m := balancer.MDSMetrics{Auth: val(), All: val(), CPU: val(), Mem: val(), Queue: val(), Req: val()}
		if prior {
			m.Load = val()
		}
		e.MDSs = append(e.MDSs, m)
	}
	if prior {
		e.Total = val()
	}
	return e
}

func cloneEnv(e *balancer.Env) *balancer.Env {
	c := *e
	c.MDSs = append([]balancer.MDSMetrics(nil), e.MDSs...)
	return &c
}

// envBits renders an environment with floats by their bits.
func envBits(e *balancer.Env) string {
	var b strings.Builder
	f := func(v float64) { fmt.Fprintf(&b, "%x ", math.Float64bits(v)) }
	f(e.Total)
	for _, m := range e.MDSs {
		for _, v := range []float64{m.Auth, m.All, m.CPU, m.Mem, m.Queue, m.Req, m.Load} {
			f(v)
		}
	}
	return b.String()
}

// scoreSide is one side of the comparison: a stack of balancer versions,
// base first, and the Versioned wrapping them when there is more than one.
type scoreSide struct {
	versions []*LuaBalancer
	bal      balancer.Balancer
	vb       *balancer.Versioned
}

// kernelScripts are the scripts above that run as kernels.
var kernelScripts = map[string]bool{"plain": true, "negative": true}

// newScoreSide builds a side; tree spells its kernel scripts for the
// tree-walker.
func newScoreSide(t *testing.T, scripts []string, tree bool) *scoreSide {
	s := &scoreSide{}
	for i, name := range scripts {
		src := scoreScripts[name]
		if tree && kernelScripts[name] {
			src = treeSpelling(src)
		}
		// The when hook walks, so that it binds the scored env over what
		// scoring left and the states below compare the binder's work.
		lb, err := NewLuaBalancer(Policy{
			Name:    fmt.Sprintf("v%d_%s", i, name),
			MDSLoad: src,
			When:    walkedSpelling(`return total > 0 and MDSs[whoami]["load"] >= total / #MDSs`),
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, kernel := lb.Kernels(); kernel != (kernelScripts[name] && !tree) {
			t.Fatalf("%s (tree spelling: %v) runs as a kernel: %v", name, tree, kernel)
		}
		s.versions = append(s.versions, lb)
	}
	s.bal = s.versions[0]
	if len(s.versions) > 1 {
		s.vb = balancer.NewVersioned(s.versions[0])
		for _, lb := range s.versions[1:] {
			s.vb.Push(lb)
		}
		s.bal = s.vb
	}
	return s
}

// demotions is the line of a state that names the active version and the
// demotions ("" for a side of one version).
func demotions(state string) string {
	if i := strings.LastIndex(state, "\nactive "); i >= 0 {
		return state[i+1:]
	}
	return ""
}

// state renders every version's hook environment and the demotions.
func (s *scoreSide) state() string {
	var b strings.Builder
	for i, lb := range s.versions {
		fmt.Fprintf(&b, "version %d:\n%s", i, dumpEnv(lb.vm))
	}
	if s.vb != nil {
		fmt.Fprintf(&b, "active %s, demotions %v\n", s.vb.Name(), s.vb.DrainDemotions())
	}
	return b.String()
}

func TestScoreAllMatchesLoop(t *testing.T) {
	stacks := [][]string{
		{"plain"}, {"partial"}, {"write_peer"}, {"reassign"}, {"replace_slot"},
		{"negative"}, {"error_at"}, {"nan_at"}, {"wrong_type_at"},
		// Versioned: the active version fails at rank errat, is demoted,
		// and the one below resumes at that rank.
		{"partial", "error_at"},
		{"write_peer", "nan_at"},
		{"plain", "wrong_type_at", "error_at"},
		{"error_at", "partial"},
	}
	for _, stack := range stacks {
		for seed := int64(1); seed <= 8; seed++ {
			name := fmt.Sprintf("%s/seed%d", strings.Join(stack, "+"), seed)
			rng := rand.New(rand.NewSource(seed))
			fast, slow := newScoreSide(t, stack, false), newScoreSide(t, stack, false)
			// The stack with its kernels spelled for the tree-walker: it
			// must score to the same bits and decide the same.
			tree := newScoreSide(t, stack, true)
			// Several ticks on the same balancers, so the binder's cached
			// tables and shadow carry over from one scoring to the next.
			for tick := 0; tick < 6; tick++ {
				e := scoreEnv(rng, tick%3 == 2)
				errat := float64(1 + rng.Intn(len(e.MDSs)+2))
				for _, side := range []*scoreSide{fast, slow, tree} {
					for _, lb := range side.versions {
						lb.vm.Globals.SetString("errat", errat)
					}
				}
				ef, es, et := cloneEnv(e), cloneEnv(e), cloneEnv(e)
				gotErr := balancer.ScoreAll(fast.bal, ef)
				wantErr := loopScore(slow.bal, es)
				treeErr := balancer.ScoreAll(tree.bal, et)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || fmt.Sprint(gotErr) != fmt.Sprint(treeErr) {
					t.Fatalf("%s tick %d: ScoreAll error %v, loop error %v, tree-walked ScoreAll error %v", name, tick, gotErr, wantErr, treeErr)
				}
				if got, want := envBits(ef), envBits(es); got != want {
					t.Fatalf("%s tick %d: ScoreAll left env\n%s\nthe loop\n%s", name, tick, got, want)
				}
				if got, want := envBits(ef), envBits(et); got != want {
					t.Fatalf("%s tick %d: ScoreAll left env\n%s\nthe tree-walker\n%s", name, tick, got, want)
				}
				got := fast.state()
				if want := slow.state(); got != want {
					t.Fatalf("%s tick %d: hook state after ScoreAll\n%s\nafter the loop\n%s", name, tick, got, want)
				}
				// Until the next bind the tree-walker's globals hold what
				// scoring bound; the demotions must agree now.
				if got, want := demotions(got), demotions(tree.state()); got != want {
					t.Fatalf("%s tick %d: after ScoreAll %s, on the tree-walker %s", name, tick, got, want)
				}
				// The next hook binds the scored env over what scoring left.
				gotWhen, gerr := fast.bal.When(ef)
				wantWhen, werr := slow.bal.When(es)
				if gotWhen != wantWhen || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s tick %d: When %v/%v after ScoreAll, %v/%v after the loop", name, tick, gotWhen, gerr, wantWhen, werr)
				}
				treeWhen, terr := tree.bal.When(et)
				if gotWhen != treeWhen || fmt.Sprint(gerr) != fmt.Sprint(terr) {
					t.Fatalf("%s tick %d: When %v/%v after ScoreAll, %v/%v on the tree-walker", name, tick, gotWhen, gerr, treeWhen, terr)
				}
				got = fast.state()
				if want := slow.state(); got != want {
					t.Fatalf("%s tick %d: hook state after When\n%s\nwant\n%s", name, tick, got, want)
				}
				if want := tree.state(); got != want {
					t.Fatalf("%s tick %d: hook state after When\n%s\non the tree-walker\n%s", name, tick, got, want)
				}
			}
		}
	}
}

// TestScoreAllDemotesAtTheFailingRank pins the resume point: ranks before
// the failure keep the demoted version's scores, the rest get the base's.
func TestScoreAllDemotesAtTheFailingRank(t *testing.T) {
	side := newScoreSide(t, []string{"plain", "error_at"}, false)
	for _, lb := range side.versions {
		lb.vm.Globals.SetString("errat", 3.0)
	}
	e := &balancer.Env{MDSs: []balancer.MDSMetrics{{All: 16}, {All: 32}, {All: 48}, {All: 64}}}
	if err := balancer.ScoreAll(side.bal, e); err != nil {
		t.Fatal(err)
	}
	// error_at scores all + total/16 for ranks 1 and 2; plain takes over at 3.
	want := []float64{16, 32 + 16.0/16, 48, 64}
	for r, m := range e.MDSs {
		if m.Load != want[r] {
			t.Fatalf("rank %d load %v, want %v (all: %+v)", r+1, m.Load, want[r], e.MDSs)
		}
	}
	if d := side.vb.DrainDemotions(); len(d) != 1 || !strings.Contains(d[0].Reason, "boom at 3") {
		t.Fatalf("demotions %+v, want one, at rank 3", d)
	}
	if side.vb.Name() != "v0_plain" {
		t.Fatalf("active version %s after the demotion", side.vb.Name())
	}
}

// TestScoredTickAllocs pins what a 64-rank Adaptable scoring round plus its
// When costs in heap objects once the tables exist: at most three boxes per
// rank — the bind stores each rank's changed "all", and scoring stores the
// rank's load and the running total — and a handful for When. The per-rank
// MDSLoad loop, with a scope, a result slice and four scalar boxes per call,
// made 781. Adaptable's mdsload runs as a kernel, which stores nothing while
// scoring; the same hook spelled for the tree-walker is held to the same
// bound, and must score every rank to the same bits.
func TestScoredTickAllocs(t *testing.T) {
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
		e := envN(n, 0.25)
		round := func() {
			e.Total = 0
			for r := range e.MDSs {
				m := &e.MDSs[r]
				m.All, m.Load = m.All+0.5, 0
			}
			if err := balancer.ScoreAll(b, e); err != nil {
				t.Fatal(err)
			}
			if _, err := b.When(e); err != nil {
				t.Fatal(err)
			}
		}
		round()
		scored[s] = envBits(e)
		const limit = 3*n + 16
		if got := testing.AllocsPerRun(20, round); got > limit {
			t.Errorf("%q: a %d-rank ScoreAll + When made %.0f allocations, want at most 3·N + 16 = %d", mdsLoad, n, got, limit)
		}
	}
	if scored[0] != scored[1] {
		t.Fatalf("the kernel scored\n%s\nthe tree-walker\n%s", scored[0], scored[1])
	}
}
