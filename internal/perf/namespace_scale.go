// NamespaceScale benchmark family: the namespace hot paths the scale pass
// optimised, measured at million-inode scale. Each optimisation ships with
// its eager twin (the proof toggles in internal/namespace) so the before and
// after live in the same binary and BENCH_<label>.json captures both sides:
//
//	NSRecordOpDeep / NSRecordOpDeepEager     — O(1) deferred vs O(depth) walk
//	NSResolveSteady / NSResolveSteadyUncached — cached vs per-component walk
//	NSCreateStorm1M / NSCreateStorm1MEager   — 1M-node create storm, full path
//	NSHeartbeat16Rank / NSHeartbeat16RankX4  — 16-rank AuthLoad+OwnedNodes;
//	    the X4 variant has 4x the nodes with the same bound count, so flat
//	    heartbeat cost shows up as near-equal ns/op.
package perf

import (
	"fmt"
	"testing"

	"mantle/internal/namespace"
	"mantle/internal/sim"
)

// Scale parameterises the NamespaceScale tree shapes so CLI runs are
// reproducible (`mantle-bench -tree-depth -tree-width`).
type Scale struct {
	// TreeDepth is the directory nesting depth of the benchmark trees.
	TreeDepth int
	// TreeWidth is the fan-out of directories at the bottom of the spine.
	TreeWidth int
}

// DefaultScale mirrors the shapes documented in docs/PERFORMANCE.md.
func DefaultScale() Scale { return Scale{TreeDepth: 8, TreeWidth: 64} }

// ScaleConfig is the active tree shape; mantle-bench overrides it from
// flags before calling RunAll.
var ScaleConfig = DefaultScale()

func (s Scale) normalized() Scale {
	if s.TreeDepth < 1 {
		s.TreeDepth = 1
	}
	if s.TreeWidth < 1 {
		s.TreeWidth = 1
	}
	return s
}

// eagerNamespace flips every proof toggle for the duration of fn, so the
// "before" side of each pair runs the pre-scale-pass code paths: eager
// ancestor counters, per-component resolution and walk-based
// EffectiveAuth/FrozenFor/Path.
func eagerNamespace(fn func()) {
	prevLazy, prevCache, prevHot := namespace.DisableLazyCounters, namespace.DisableResolveCache, namespace.DisableHotPathCaches
	namespace.DisableLazyCounters, namespace.DisableResolveCache, namespace.DisableHotPathCaches = true, true, true
	defer func() {
		namespace.DisableLazyCounters, namespace.DisableResolveCache, namespace.DisableHotPathCaches = prevLazy, prevCache, prevHot
	}()
	fn()
}

// spinePath returns the deep directory chain "/s0/s1/.../s{depth-1}".
func spinePath(depth int) string {
	p := ""
	for i := 0; i < depth; i++ {
		p += fmt.Sprintf("/s%d", i)
	}
	return p
}

// buildSpine creates the chain and returns its deepest directory.
func buildSpine(ns *namespace.Namespace, depth int) *namespace.Node {
	n, err := ns.CreatePath(spinePath(depth), true)
	if err != nil {
		panic(err)
	}
	return n
}

// benchNSRecordOpDeep measures one RecordOp against a directory at the
// configured depth: with lazy propagation this is an append; eagerly it is a
// decay-counter hit on every ancestor.
func benchNSRecordOpDeep(b *testing.B) { nsRecordOpDeep(b, false) }

// benchNSRecordOpDeepEager is the O(depth) twin.
func benchNSRecordOpDeepEager(b *testing.B) { nsRecordOpDeep(b, true) }

func nsRecordOpDeep(b *testing.B, eager bool) {
	run := func() {
		cfg := ScaleConfig.normalized()
		ns := namespace.New(sim.Second)
		leaf := buildSpine(ns, cfg.TreeDepth)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ns.RecordOp(leaf, "f", namespace.OpIWR, sim.Time(i+1))
			// The deferred fold is heartbeat-side work — NSHeartbeat16Rank
			// measures it via AuthLoad — so it runs off the timer here;
			// this pair isolates the per-op cost the lazy log removed.
			if ns.PendingHits() >= 1<<16 {
				b.StopTimer()
				ns.FlushCounters()
				b.StartTimer()
			}
		}
		b.StopTimer()
		ns.FlushCounters()
		b.StartTimer()
	}
	if eager {
		eagerNamespace(run)
	} else {
		run()
	}
}

// benchNSResolveSteady measures steady-state resolution of deep paths (the
// repeated-lookup shape of every client op).
func benchNSResolveSteady(b *testing.B) { nsResolveSteady(b, false) }

// benchNSResolveSteadyUncached is the per-component-walk twin.
func benchNSResolveSteadyUncached(b *testing.B) { nsResolveSteady(b, true) }

func nsResolveSteady(b *testing.B, eager bool) {
	run := func() {
		cfg := ScaleConfig.normalized()
		ns := namespace.New(sim.Second)
		buildSpine(ns, cfg.TreeDepth)
		base := spinePath(cfg.TreeDepth)
		paths := make([]string, cfg.TreeWidth)
		for i := range paths {
			paths[i] = fmt.Sprintf("%s/f%d", base, i)
			if _, err := ns.CreatePath(paths[i], false); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ns.Resolve(paths[i%len(paths)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	if eager {
		eagerNamespace(run)
	} else {
		run()
	}
}

// benchNSCreateStorm1M drives the namespace slice of one MDS create per op —
// resolve the parent, authority check, freeze check, dentry insert, op
// record, and the reply's routing-hint walk — for ~1M nodes per iteration
// across TreeWidth directories at TreeDepth, the shape of the paper's
// create-heavy workloads at production scale. Path strings are precomputed
// off the timer; both twins measure pure namespace work.
func benchNSCreateStorm1M(b *testing.B) { nsCreateStorm(b, false) }

// benchNSCreateStorm1MEager is the pre-scale-pass twin; the acceptance bar
// is >= 2x its ns/op.
func benchNSCreateStorm1MEager(b *testing.B) { nsCreateStorm(b, true) }

func nsCreateStorm(b *testing.B, eager bool) {
	run := func() {
		cfg := ScaleConfig.normalized()
		const targetNodes = 1 << 20
		perDir := targetNodes / cfg.TreeWidth
		if perDir < 1 {
			perDir = 1
		}
		b.ReportAllocs()
		b.ResetTimer()
		// Path strings are workload input, not namespace work: build them
		// once, outside the timer, and reuse across iterations.
		filePaths := make([][]string, cfg.TreeWidth)
		var hintSink string
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ns := namespace.New(sim.Second)
			buildSpine(ns, cfg.TreeDepth)
			base := spinePath(cfg.TreeDepth)
			dirs := make([]string, cfg.TreeWidth)
			for d := range dirs {
				dirs[d] = fmt.Sprintf("%s/d%d", base, d)
				if _, err := ns.CreatePath(dirs[d], true); err != nil {
					b.Fatal(err)
				}
				if filePaths[d] == nil {
					filePaths[d] = make([]string, perDir)
					for f := 0; f < perDir; f++ {
						filePaths[d][f] = fmt.Sprintf("%s/f%d", dirs[d], f)
					}
				}
			}
			now := sim.Time(0)
			b.StartTimer()
			for d := range dirs {
				for f := 0; f < perDir; f++ {
					dir, name, err := ns.ResolveDirOf(filePaths[d][f])
					if err != nil {
						b.Fatal(err)
					}
					// The serve path checks authority and freezes before
					// touching the dentry (mds.(*MDS).serve).
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
					ns.RecordOp(dir, name, namespace.OpIWR, now)
					// The reply carries a routing hint: walk to the top
					// of the same-authority subtree and render its path
					// (mds.(*MDS).hintFor).
					rank := ns.EffectiveAuth(dir)
					top := dir
					for q := top.Parent(); q != nil && ns.EffectiveAuth(q) == rank; q = q.Parent() {
						top = q
					}
					hintSink = top.Path()
					if ns.PendingHits() >= 1<<16 {
						ns.FlushCounters()
					}
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
		b.ReportMetric(float64(cfg.TreeWidth*perDir), "creates/op")
	}
	if eager {
		eagerNamespace(run)
	} else {
		run()
	}
}

// nsHeartbeatTree builds a tree with widthFactor*TreeWidth leaf directories
// and 16 round-robin subtree bounds, returning the namespace. Bound count is
// fixed at TreeWidth regardless of widthFactor, so variants differ only in
// node count.
func nsHeartbeatTree(b *testing.B, widthFactor int) *namespace.Namespace {
	cfg := ScaleConfig.normalized()
	ns := namespace.New(sim.Second)
	buildSpine(ns, cfg.TreeDepth)
	base := spinePath(cfg.TreeDepth)
	now := sim.Time(0)
	for d := 0; d < cfg.TreeWidth*widthFactor; d++ {
		dp := fmt.Sprintf("%s/d%d", base, d)
		dir, err := ns.CreatePath(dp, true)
		if err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 64; f++ {
			name := fmt.Sprintf("f%d", f)
			if _, err := ns.Create(dir, name, false); err != nil {
				b.Fatal(err)
			}
			now++
			ns.RecordOp(dir, name, namespace.OpIWR, now)
		}
		// Label only the first TreeWidth directories so every variant
		// carries the identical bound set.
		if d < cfg.TreeWidth {
			ns.SetAuthOverride(dir, namespace.Rank(d%16))
		}
	}
	ns.FlushCounters()
	return ns
}

// benchNSHeartbeat16Rank measures one balancer heartbeat's namespace work —
// AuthLoad plus OwnedNodes for 16 ranks — over TreeWidth bounds.
func benchNSHeartbeat16Rank(b *testing.B) { nsHeartbeat(b, 1) }

// benchNSHeartbeat16RankX4 is the same bound count over 4x the nodes; flat
// heartbeat cost means ns/op tracks NSHeartbeat16Rank, not the node count.
func benchNSHeartbeat16RankX4(b *testing.B) { nsHeartbeat(b, 4) }

func nsHeartbeat(b *testing.B, widthFactor int) {
	ns := nsHeartbeatTree(b, widthFactor)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(1<<20 + i)
		loads := ns.AuthLoad(16, now, namespace.CounterSnapshot.CephLoad)
		owned := ns.OwnedNodes(16)
		if len(loads) != 16 || len(owned) != 16 {
			b.Fatal("heartbeat returned wrong rank count")
		}
	}
}
