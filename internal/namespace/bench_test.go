package namespace

import (
	"fmt"
	"testing"

	"mantle/internal/sim"
)

// The namespace hot paths the scale pass optimised. The trees are a
// directory spine benchDepth deep with benchWidth entries at its bottom.
const benchDepth, benchWidth = 8, 64

// spinePath returns the directory chain "/s0/s1/.../s{benchDepth-1}".
func spinePath() string {
	p := ""
	for i := 0; i < benchDepth; i++ {
		p += fmt.Sprintf("/s%d", i)
	}
	return p
}

// buildSpine creates the benchDepth chain and returns its deepest directory.
func buildSpine(tb testing.TB, ns *Namespace) *Node {
	n, err := ns.CreatePath(spinePath(), true)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// deepFiles creates benchWidth files in the deepest spine directory and
// returns their paths.
func deepFiles(tb testing.TB, ns *Namespace) []string {
	buildSpine(tb, ns)
	paths := make([]string, benchWidth)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/f%d", spinePath(), i)
		if _, err := ns.CreatePath(paths[i], false); err != nil {
			tb.Fatal(err)
		}
	}
	return paths
}

// BenchmarkNSRecordOpDeep measures one RecordOp against the deepest spine
// directory: an append to the deferred log, and, since every
// maxPendingHits-th op folds the log, the fold's ancestor walk amortised
// over the ops. Only the fold of the last partial log is heartbeat-side
// work (BenchmarkNSHeartbeat16Rank measures it through AuthLoad), so that
// one runs off the timer.
func BenchmarkNSRecordOpDeep(b *testing.B) {
	ns := New(sim.Second)
	leaf := buildSpine(b, ns)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns.RecordOp(leaf, "f", OpIWR, sim.Time(i+1))
	}
	b.StopTimer()
	ns.FlushCounters()
}

// BenchmarkNSResolveSteady measures steady-state resolution of deep file
// paths, the repeated-lookup shape of every client op: a cache hit.
func BenchmarkNSResolveSteady(b *testing.B) {
	ns := New(sim.Second)
	paths := deepFiles(b, ns)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ns.Resolve(paths[i%len(paths)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNSCreateStorm1M drives the namespace slice of one MDS create per
// op — resolve the parent, authority and freeze checks, dentry insert, op
// record, and the reply's routing-hint walk — for 2^20 files per iteration
// across benchWidth directories. Path strings are workload input, built
// once off the timer.
func BenchmarkNSCreateStorm1M(b *testing.B) {
	const targetNodes = 1 << 20
	const perDir = targetNodes / benchWidth
	base := spinePath()
	dirs := make([]string, benchWidth)
	files := make([][]string, benchWidth)
	for d := range dirs {
		dirs[d] = fmt.Sprintf("%s/d%d", base, d)
		files[d] = make([]string, perDir)
		for f := range files[d] {
			files[d][f] = fmt.Sprintf("%s/f%d", dirs[d], f)
		}
	}
	b.ReportAllocs()
	var hintSink string
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ns := New(sim.Second)
		for _, d := range dirs {
			if _, err := ns.CreatePath(d, true); err != nil {
				b.Fatal(err)
			}
		}
		now := sim.Time(0)
		b.StartTimer()
		for d := range files {
			for _, p := range files[d] {
				dir, name, err := ns.ResolveDirOf(p)
				if err != nil {
					b.Fatal(err)
				}
				// The serve path checks authority and freezes
				// before touching the dentry (mds.(*MDS).serve).
				if ns.AuthForDentry(dir, name) != 0 {
					b.Fatal("storm dentry not owned by rank 0")
				}
				if ns.FrozenFor(dir, name) {
					b.Fatal("storm tree unexpectedly frozen")
				}
				if _, err := ns.Create(dir, name, false); err != nil {
					b.Fatal(err)
				}
				now++
				ns.RecordOp(dir, name, OpIWR, now)
				// The reply carries a routing hint: the top of the
				// same-authority subtree (mds.(*MDS).hintFor).
				rank := ns.EffectiveAuth(dir)
				top := dir
				for q := top.Parent(); q != nil && ns.EffectiveAuth(q) == rank; q = q.Parent() {
					top = q
				}
				hintSink = top.Path()
			}
		}
		ns.FlushCounters()
		b.StopTimer()
		if got := ns.NumNodes(); got < targetNodes {
			b.Fatalf("storm built %d nodes, want >= %d", got, targetNodes)
		}
		b.StartTimer()
	}
	_ = hintSink
	b.ReportMetric(targetNodes, "creates/op")
}

// heartbeatTree builds BenchmarkNSHeartbeat16Rank's tree: benchWidth*factor
// heated directories of 64 files under the spine, the first benchWidth of
// them subtree bounds spread over 16 ranks.
func heartbeatTree(tb testing.TB, factor int) *Namespace {
	ns := New(sim.Second)
	base := spinePath()
	now := sim.Time(0)
	for d := 0; d < benchWidth*factor; d++ {
		dir, err := ns.CreatePath(fmt.Sprintf("%s/d%d", base, d), true)
		if err != nil {
			tb.Fatal(err)
		}
		for f := 0; f < 64; f++ {
			name := fmt.Sprintf("f%d", f)
			if _, err := ns.Create(dir, name, false); err != nil {
				tb.Fatal(err)
			}
			now++
			ns.RecordOp(dir, name, OpIWR, now)
		}
		// Only the first benchWidth directories are bounds, so both
		// variants carry the identical bound set.
		if d < benchWidth {
			ns.SetAuthOverride(dir, Rank(d%16))
		}
	}
	ns.FlushCounters()
	return ns
}

// BenchmarkNSHeartbeat16Rank measures one balancer heartbeat's namespace
// work — AuthLoad plus OwnedNodes for 16 ranks — over benchWidth subtree
// bounds. x4 has four times the directories under the same bounds, so a
// flat heartbeat cost shows as near-equal ns/op.
func BenchmarkNSHeartbeat16Rank(b *testing.B) {
	for _, factor := range []int{1, 4} {
		b.Run(fmt.Sprintf("x%d", factor), func(b *testing.B) {
			ns := heartbeatTree(b, factor)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loads := ns.AuthLoad(16, sim.Time(1<<20+i), CounterSnapshot.CephLoad)
				owned := ns.OwnedNodes(16)
				if len(loads) != 16 || len(owned) != 16 {
					b.Fatal("heartbeat returned wrong rank count")
				}
			}
		})
	}
}

// TestHeartbeatAllocs pins the attribution walk's cost by count: AuthLoad,
// AuthLoadOf and OwnedNodes each allocate only their result slice, on
// BenchmarkNSHeartbeat16Rank's tree and on one whose fragment bounds hold
// subdirectories, which the walk measures through a callback.
func TestHeartbeatAllocs(t *testing.T) {
	frags := heartbeatTree(t, 1)
	spine, err := frags.Resolve(spinePath())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frags.SplitDir(spine, RootFrag, 2, 0) {
		frags.SetFragAuth(spine, f, Rank(i))
	}
	for _, tree := range []struct {
		name string
		ns   *Namespace
	}{{"dir bounds", heartbeatTree(t, 1)}, {"frag bounds over subdirs", frags}} {
		ns, now := tree.ns, sim.Time(1<<20)
		for _, c := range []struct {
			call string
			fn   func()
		}{
			{"AuthLoad", func() { now++; ns.AuthLoad(16, now, CounterSnapshot.CephLoad) }},
			{"AuthLoadOf", func() { now++; ns.AuthLoadOf(3, 16, now, CounterSnapshot.CephLoad) }},
			{"OwnedNodes", func() { ns.OwnedNodes(16) }},
		} {
			if got := testing.AllocsPerRun(200, c.fn); got != 1 {
				t.Errorf("%s: %s allocates %v, want 1 (its result)", tree.name, c.call, got)
			}
		}
	}
}

// TestWarmResolveAllocs pins the resolution cache by count rather than by
// time: a warm Resolve of a file in the deep 64-file directory allocates
// nothing, and neither does the walk — the miss path, forced here by staling
// the cache before each call — for Resolve or ResolveDirOf, since it walks
// the path in place instead of splitting it (it allocated once per call).
func TestWarmResolveAllocs(t *testing.T) {
	for _, m := range []struct {
		name  string
		stale bool
		dirOf bool
		want  float64
	}{{"warm", false, false, 0}, {"walk", true, false, 0}, {"cold ResolveDirOf", true, true, 0}} {
		ns := New(sim.Second)
		paths := deepFiles(t, ns)
		for _, p := range paths {
			if _, err := ns.Resolve(p); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		got := testing.AllocsPerRun(1000, func() {
			if m.stale {
				ns.invalidateResolves()
			}
			var err error
			if m.dirOf {
				_, _, err = ns.ResolveDirOf(paths[i%len(paths)])
			} else {
				_, err = ns.Resolve(paths[i%len(paths)])
			}
			if err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got != m.want {
			t.Errorf("%s: Resolve allocates %v, want %v", m.name, got, m.want)
		}
	}
}

// TestRecordOpDeepDefers pins lazy counter propagation by count rather than
// by time: a RecordOp on the deepest spine directory allocates nothing and
// defers exactly one hit.
func TestRecordOpDeepDefers(t *testing.T) {
	ns := New(sim.Second)
	leaf := buildSpine(t, ns)
	now := sim.Time(0)
	op := func() {
		now++
		ns.RecordOp(leaf, "f", OpIWR, now)
	}
	// Grow the deferred log once so the measured appends reuse it.
	for i := 0; i < 2000; i++ {
		op()
	}
	ns.FlushCounters()
	const ops = 1000
	for i := 0; i < ops; i++ {
		op()
	}
	if got := ns.PendingHits(); got != ops {
		t.Errorf("%d ops deferred %d hits, want %d", ops, got, ops)
	}
	ns.FlushCounters()
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Errorf("RecordOp allocates %v, want 0", allocs)
	}
}

// fragDirTree builds one directory of 10 000 entries, subdirs of them
// directories with a heated file each, split into eight fragments labelled
// over ranks 0–7: the shape where every fragment bound holds part of a big
// child table.
func fragDirTree(tb testing.TB, subdirs int) *Namespace {
	ns := New(sim.Second)
	dir, err := ns.CreatePath("/big", true)
	if err != nil {
		tb.Fatal(err)
	}
	now := sim.Time(0)
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("e%d", i)
		if i < subdirs {
			sub, err := ns.Create(dir, name, true)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := ns.Create(sub, "f", false); err != nil {
				tb.Fatal(err)
			}
			now++
			ns.RecordOp(sub, "f", OpIWR, now)
			continue
		}
		if _, err := ns.Create(dir, name, false); err != nil {
			tb.Fatal(err)
		}
		now++
		ns.RecordOp(dir, name, OpIWR, now)
	}
	for i, f := range ns.SplitDir(dir, RootFrag, 3, now) {
		ns.SetFragAuth(dir, f, Rank(i))
	}
	ns.FlushCounters()
	return ns
}

// BenchmarkNSAuthLoadFragDir measures AuthLoad over fragDirTree's eight
// fragment bounds, with and without subdirectories among the 10 000
// entries: each bound measures the subtrees of the subdirectories whose
// dentries it holds, which takes a scan of the child table.
func BenchmarkNSAuthLoadFragDir(b *testing.B) {
	for _, subdirs := range []int{0, 8} {
		b.Run(fmt.Sprintf("subdirs=%d", subdirs), func(b *testing.B) {
			ns := fragDirTree(b, subdirs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if loads := ns.AuthLoad(8, sim.Time(1<<20+i), CounterSnapshot.CephLoad); len(loads) != 8 {
					b.Fatal("AuthLoad returned wrong rank count")
				}
			}
		})
	}
}
