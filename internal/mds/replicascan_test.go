package mds

import (
	"fmt"
	"sort"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/namespace"
	"mantle/internal/sim"
)

// refReplicaCandidates is the replica scan as a plain reference: the
// policy-priced initialUnits, a second Node.Load per directory, and a map
// collapsing frag units onto their directory.
func refReplicaCandidates(m *MDS) []exportUnit {
	now := m.engine.Now()
	seen := map[*namespace.Node]bool{}
	var cands []exportUnit
	for _, u := range m.initialUnits() {
		if seen[u.dir] {
			continue
		}
		seen[u.dir] = true
		snap := u.dir.Load(now)
		if snap.IRD+snap.Readdir <= m.cfg.MinExportLoad {
			continue
		}
		cands = append(cands, exportUnit{dir: u.dir, load: snap.CephLoad()})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load > cands[j].load
		}
		return cands[i].dir.Path() < cands[j].dir.Path()
	})
	if len(cands) > 4 {
		cands = cands[:4]
	}
	return cands
}

// countingBal is NoBalancer counting its metaload evaluations.
type countingBal struct {
	balancer.NoBalancer
	calls *int
}

func (b countingBal) MetaLoad(s namespace.CounterSnapshot) (float64, error) {
	*b.calls++
	return b.NoBalancer.MetaLoad(s)
}

// scanTree is a 4-rank harness whose namespace the caller shapes directly.
type scanTree struct {
	t     *testing.T
	h     *harness
	calls int
}

func newScanTree(t *testing.T) *scanTree {
	st := &scanTree{t: t}
	st.h = newHarness(t, 4, func() balancer.Balancer { return countingBal{calls: &st.calls} }, nil)
	return st
}

func (st *scanTree) dir(path string, rank namespace.Rank) *namespace.Node {
	st.t.Helper()
	d, err := st.h.ns.CreatePath(path, true)
	if err != nil {
		st.t.Fatal(err)
	}
	if rank != namespace.RankNone {
		st.h.ns.SetAuthOverride(d, rank)
	}
	return d
}

// heat charges reads and writes of distinct names in d over the first
// second, so fragmented directories take heat in every fragment.
func (st *scanTree) heat(d *namespace.Node, reads, writes int) {
	for i := 0; i < reads+writes; i++ {
		k := namespace.OpIRD
		if i >= reads {
			k = namespace.OpIWR
		}
		st.h.ns.RecordOp(d, nameOf(i), k, sim.Time(i)*sim.Millisecond)
	}
}

// split fragments d four ways.
func (st *scanTree) split(d *namespace.Node) []namespace.Frag {
	return st.h.ns.SplitDir(d, namespace.RootFrag, 2, st.h.engine.Now())
}

// check advances the clock so the counters decay, then compares every
// rank's scan with the reference: same directories, same heat, same order,
// no metaload evaluated, and each snapshot the directory's own counters.
func (st *scanTree) check() map[namespace.Rank][]replicaCand {
	st.t.Helper()
	st.h.engine.Schedule(3*sim.Second, func() {})
	st.h.engine.RunUntilIdle()
	out := map[namespace.Rank][]replicaCand{}
	for _, m := range st.h.mdss {
		want := refReplicaCandidates(m)
		calls := st.calls
		got := m.replicaCandidates()
		if st.calls != calls {
			st.t.Errorf("rank %d: the scan evaluated metaload %d times", m.rank, st.calls-calls)
		}
		if len(got) != len(want) {
			st.t.Fatalf("rank %d: %d candidates, reference %d", m.rank, len(got), len(want))
		}
		for i := range got {
			if got[i].dir != want[i].dir || got[i].heat != want[i].load {
				st.t.Errorf("rank %d #%d: %s heat %v, reference %s heat %v", m.rank, i,
					got[i].dir.Path(), got[i].heat, want[i].dir.Path(), want[i].load)
			}
			if snap := got[i].dir.Load(st.h.engine.Now()); got[i].snap != snap {
				st.t.Errorf("rank %d %s: snapshot %+v, Load %+v", m.rank, got[i].dir.Path(), got[i].snap, snap)
			}
		}
		out[m.rank] = got
	}
	return out
}

func candPaths(cs []replicaCand) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.dir.Path())
	}
	return out
}

// TestReplicaScanMatchesReference: nested bounds, frag bounds of one
// directory on one rank, a frozen frag, a frozen directory, a write-hot but
// read-cold directory, a tie and more passing directories than the scan
// keeps.
func TestReplicaScanMatchesReference(t *testing.T) {
	st := newScanTree(t)
	ns := st.h.ns
	n1 := st.dir("/n1", 1)
	n2 := st.dir("/n1/n2", 2)
	n3 := st.dir("/n1/n2/n3", 1)
	st.heat(n2, 25, 0)
	st.heat(n3, 8, 3)
	st.heat(n1, 4, 0)
	f := st.dir("/f", namespace.RankNone)
	st.heat(f, 120, 0)
	frags := st.split(f)
	ns.SetFragAuth(f, frags[0], 1)
	ns.SetFragAuth(f, frags[1], 1)
	ns.SetFragAuth(f, frags[2], 1)
	ns.FreezeFrag(f, frags[2], true)
	st.heat(f, 40, 0)
	z := st.dir("/z", 1)
	st.heat(z, 500, 0)
	ns.Freeze(z, true)
	for i, reads := range []int{10, 20, 20, 30, 5, 0} {
		st.heat(st.dir(fmt.Sprintf("/t%d", i+1), 1), reads, 0)
	}
	st.heat(st.dir("/w", 1), 0, 200)
	st.heat(st.dir("/r3", 3), 7, 0)
	got := st.check()
	want1 := []string{"/f", "/n1", "/t4", "/t2"}
	if p := candPaths(got[1]); fmt.Sprint(p) != fmt.Sprint(want1) {
		t.Fatalf("rank 1 candidates %v, want %v", p, want1)
	}
}

// TestReplicaScanFragmentedRoot: the root's owner expands the fragmented
// root into its own (unfrozen) leaves, which collapse onto "/"; a frag
// bound of another rank's directory is a unit of its own.
func TestReplicaScanFragmentedRoot(t *testing.T) {
	st := newScanTree(t)
	ns := st.h.ns
	root := ns.Root()
	ns.SetAuthOverride(root, 1)
	st.heat(root, 80, 0)
	frags := st.split(root)
	ns.SetFragAuth(root, frags[0], 2)
	ns.FreezeFrag(root, frags[1], true)
	c2 := st.dir("/c2", 2)
	st.heat(c2, 30, 0)
	cf := st.split(c2)
	ns.SetFragAuth(c2, cf[3], 1)
	st.heat(st.dir("/c3", 3), 12, 0)
	got := st.check()
	if p := candPaths(got[1]); fmt.Sprint(p) != "[/ /c2]" {
		t.Fatalf("rank 1 candidates %v", p)
	}
}

// TestReplicaScanRootOwnerChildren: an unfragmented root's owner scans its
// own child directories, skipping frozen ones and other ranks' bounds.
func TestReplicaScanRootOwnerChildren(t *testing.T) {
	st := newScanTree(t)
	ns := st.h.ns
	ns.SetAuthOverride(ns.Root(), 1)
	st.heat(st.dir("/a", namespace.RankNone), 9, 0)
	st.heat(st.dir("/a/x", 3), 11, 0)
	b := st.dir("/b", namespace.RankNone)
	st.heat(b, 50, 0)
	ns.Freeze(b, true)
	st.heat(st.dir("/c", 2), 40, 0)
	d := st.dir("/d", namespace.RankNone)
	st.heat(d, 16, 0)
	df := st.split(d)
	ns.SetFragAuth(d, df[0], 2)
	got := st.check()
	if p := candPaths(got[1]); fmt.Sprint(p) != "[/a /d]" {
		t.Fatalf("rank 1 candidates %v", p)
	}
}

// TestReplicaTickAllocsFlatInBounds: a replica tick's allocation count does
// not grow with the number of bounds the rank owns (the heat of a fixed
// eight directories passes the gate in both trees).
func TestReplicaTickAllocsFlatInBounds(t *testing.T) {
	tickAllocs := func(bounds int) float64 {
		h := newHarness(t, 2, noBal, nil)
		enableReplication(h)
		for i := 0; i < bounds; i++ {
			d, err := h.ns.CreatePath(fmt.Sprintf("/load/d%04d", i), true)
			if err != nil {
				t.Fatal(err)
			}
			h.ns.SetAuthOverride(d, 1)
			if i%(bounds/8) == 0 {
				h.ns.RecordOp(d, "f", namespace.OpIRD, 0)
			}
		}
		m := h.mdss[1]
		if n := len(m.replicaCandidates()); n != 4 {
			t.Fatalf("%d bounds: %d candidates, want 4", bounds, n)
		}
		return testing.AllocsPerRun(20, m.replicaTick)
	}
	small, large := tickAllocs(1000), tickAllocs(4000)
	t.Logf("replica tick: %.0f allocs at 1000 bounds, %.0f at 4000", small, large)
	if large > small {
		t.Fatalf("replica tick allocates %.0f objects at 4000 bounds, %.0f at 1000", large, small)
	}
}
