package namespace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mantle/internal/sim"
)

// newEagerNamespace builds a namespace with every scale-pass proof toggle
// flipped: eager ancestor counter walks, uncached path resolution and
// walk-based EffectiveAuth/FrozenFor/Path — the pre-optimisation semantics
// the fast path must reproduce bit-for-bit.
func newEagerNamespace(halfLife sim.Time) *Namespace {
	prevLazy, prevCache, prevHot := DisableLazyCounters, DisableResolveCache, DisableHotPathCaches
	DisableLazyCounters, DisableResolveCache, DisableHotPathCaches = true, true, true
	ns := New(halfLife)
	DisableLazyCounters, DisableResolveCache, DisableHotPathCaches = prevLazy, prevCache, prevHot
	return ns
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func snapshotsBitEqual(a, b CounterSnapshot) bool {
	return bitsEqual(a.IRD, b.IRD) && bitsEqual(a.IWR, b.IWR) &&
		bitsEqual(a.Readdir, b.Readdir) && bitsEqual(a.Fetch, b.Fetch) &&
		bitsEqual(a.Store, b.Store)
}

// compareTrees walks fast and slow in lockstep and fails on the first
// structural or bit-level counter divergence.
func compareTrees(t *testing.T, fast, slow *Node, now sim.Time) {
	t.Helper()
	if fast.Path() != slow.Path() || fast.IsDir() != slow.IsDir() {
		t.Fatalf("structure diverged: %q dir=%v vs %q dir=%v",
			fast.Path(), fast.IsDir(), slow.Path(), slow.IsDir())
	}
	if !fast.IsDir() {
		return
	}
	if !snapshotsBitEqual(fast.Load(now), slow.Load(now)) {
		t.Fatalf("%s: dir counters diverged\n fast %+v\n slow %+v",
			fast.Path(), fast.Load(now), slow.Load(now))
	}
	if fast.RankSpread() != slow.RankSpread() {
		t.Fatalf("%s: rankSpread %d vs %d", fast.Path(), fast.RankSpread(), slow.RankSpread())
	}
	ff, sf := fast.FragTree().Leaves(), slow.FragTree().Leaves()
	if len(ff) != len(sf) {
		t.Fatalf("%s: %d frags vs %d", fast.Path(), len(ff), len(sf))
	}
	for i, f := range ff {
		if f != sf[i] {
			t.Fatalf("%s: frag[%d] %v vs %v", fast.Path(), i, f, sf[i])
		}
		a, _ := fast.FragStateOf(f)
		b, _ := slow.FragStateOf(f)
		if a.Entries != b.Entries || a.Auth() != b.Auth() {
			t.Fatalf("%s#%v: entries/auth %d/%d vs %d/%d",
				fast.Path(), f, a.Entries, a.Auth(), b.Entries, b.Auth())
		}
		if !snapshotsBitEqual(a.Counters.Snapshot(now), b.Counters.Snapshot(now)) {
			t.Fatalf("%s#%v: frag counters diverged", fast.Path(), f)
		}
	}
	names := fast.ChildNames()
	slowNames := slow.ChildNames()
	if len(names) != len(slowNames) {
		t.Fatalf("%s: %d children vs %d", fast.Path(), len(names), len(slowNames))
	}
	for i, name := range names {
		if name != slowNames[i] {
			t.Fatalf("%s: child[%d] %q vs %q", fast.Path(), i, name, slowNames[i])
		}
		fc, _ := fast.Lookup(name)
		sc, _ := slow.Lookup(name)
		compareTrees(t, fc, sc, now)
	}
}

// compareViews checks the balancer-facing aggregates: partition bounds,
// per-rank load (bit-exact floats) and ownership estimates.
func compareViews(t *testing.T, fast, slow *Namespace, now sim.Time, numRanks int) {
	t.Helper()
	fr, sr := fast.SubtreeRoots(-1), slow.SubtreeRoots(-1)
	if len(fr) != len(sr) {
		t.Fatalf("SubtreeRoots: %d bounds vs %d", len(fr), len(sr))
	}
	for i := range fr {
		if fr[i].Path() != sr[i].Path() || fr[i].Rank != sr[i].Rank || fr[i].IsFrag != sr[i].IsFrag {
			t.Fatalf("SubtreeRoots[%d]: %s rank %d vs %s rank %d",
				i, fr[i].Path(), fr[i].Rank, sr[i].Path(), sr[i].Rank)
		}
	}
	fl := fast.AuthLoad(numRanks, now, CounterSnapshot.CephLoad)
	sl := slow.AuthLoad(numRanks, now, CounterSnapshot.CephLoad)
	for i := range fl {
		if !bitsEqual(fl[i], sl[i]) {
			t.Fatalf("AuthLoad[%d]: %v (%x) vs %v (%x)",
				i, fl[i], math.Float64bits(fl[i]), sl[i], math.Float64bits(sl[i]))
		}
	}
	fo, so := fast.OwnedNodes(numRanks), slow.OwnedNodes(numRanks)
	for i := range fo {
		if fo[i] != so[i] {
			t.Fatalf("OwnedNodes[%d]: %d vs %d", i, fo[i], so[i])
		}
	}
}

// compareResolves probes both namespaces with the same path strings —
// existing paths, missing paths, and malformed ones — and requires identical
// nodes (by path) and identical error text.
func compareResolves(t *testing.T, fast, slow *Namespace, probes []string) {
	t.Helper()
	for _, p := range probes {
		fn, ferr := fast.Resolve(p)
		sn, serr := slow.Resolve(p)
		if (ferr == nil) != (serr == nil) {
			t.Fatalf("Resolve(%q): err %v vs %v", p, ferr, serr)
		}
		if ferr != nil {
			if ferr.Error() != serr.Error() {
				t.Fatalf("Resolve(%q): error text %q vs %q", p, ferr, serr)
			}
		} else if fn.Path() != sn.Path() {
			t.Fatalf("Resolve(%q): %s vs %s", p, fn.Path(), sn.Path())
		}
		fd, fname, ferr2 := fast.ResolveDirOf(p)
		sd, sname, serr2 := slow.ResolveDirOf(p)
		if (ferr2 == nil) != (serr2 == nil) {
			t.Fatalf("ResolveDirOf(%q): err %v vs %v", p, ferr2, serr2)
		}
		if ferr2 != nil {
			if ferr2.Error() != serr2.Error() {
				t.Fatalf("ResolveDirOf(%q): error text %q vs %q", p, ferr2, serr2)
			}
		} else if fd.Path() != sd.Path() || fname != sname {
			t.Fatalf("ResolveDirOf(%q): %s/%s vs %s/%s", p, fd.Path(), fname, sd.Path(), sname)
		}
	}
}

// TestScalePassEquivalence drives the optimised namespace (lazy counters,
// resolution cache, bound index) and the eager one through identical
// randomized op streams — creates, records, renames, unlinks, label moves,
// frag splits/merges, freezes — and asserts bit-identical counters, bounds,
// loads and resolution behaviour throughout, plus full invariants (which
// include the incremental-vs-rebuilt bound index comparison) on the
// optimised twin.
func TestScalePassEquivalence(t *testing.T) {
	const numRanks = 4
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fast := New(sim.Second / 2)
			slow := newEagerNamespace(sim.Second / 2)
			if fast.def.resCache == nil || !fast.lazy {
				t.Fatal("fast namespace did not enable the scale pass")
			}
			if slow.def.resCache != nil || slow.lazy {
				t.Fatal("eager namespace still has the scale pass enabled")
			}

			dirs := []string{"/"}
			files := []string{}
			now := sim.Time(0)

			// both applies fn to each namespace and insists on the
			// same outcome.
			both := func(label string, fn func(ns *Namespace) error) {
				ferr := fn(fast)
				serr := fn(slow)
				if (ferr == nil) != (serr == nil) {
					t.Fatalf("%s: fast err %v, slow err %v", label, ferr, serr)
				}
			}

			randDir := func() string { return dirs[rng.Intn(len(dirs))] }
			childPath := func(parent, name string) string {
				if parent == "/" {
					return "/" + name
				}
				return parent + "/" + name
			}

			for step := 0; step < 800; step++ {
				now += sim.Time(1 + rng.Intn(3_000_000))
				switch op := rng.Intn(20); {
				case op < 5: // create file
					p := childPath(randDir(), fmt.Sprintf("f%d", rng.Intn(200)))
					both("create "+p, func(ns *Namespace) error {
						_, err := ns.CreatePath(p, false)
						return err
					})
					files = append(files, p)
				case op < 8: // create dir
					p := childPath(randDir(), fmt.Sprintf("d%d", rng.Intn(40)))
					both("mkdir "+p, func(ns *Namespace) error {
						_, err := ns.CreatePath(p, true)
						return err
					})
					dirs = append(dirs, p)
				case op < 14: // record a metadata op
					d := randDir()
					name := fmt.Sprintf("f%d", rng.Intn(200))
					kind := OpKind(rng.Intn(int(numOpKinds)))
					at := now
					both("record "+d, func(ns *Namespace) error {
						n, err := ns.Resolve(d)
						if err != nil {
							return err
						}
						ns.RecordOp(n, name, kind, at)
						return nil
					})
				case op < 15: // whole-dir op (readdir)
					d := randDir()
					at := now
					both("readdir "+d, func(ns *Namespace) error {
						n, err := ns.Resolve(d)
						if err != nil {
							return err
						}
						ns.RecordOp(n, "", OpReaddir, at)
						return nil
					})
				case op < 16: // unlink a file
					if len(files) == 0 {
						continue
					}
					i := rng.Intn(len(files))
					p := files[i]
					both("unlink "+p, func(ns *Namespace) error {
						dir, name, err := ns.ResolveDirOf(p)
						if err != nil {
							return err
						}
						return ns.Remove(dir, name)
					})
					files = append(files[:i], files[i+1:]...)
				case op < 17: // rename a file into another directory
					if len(files) == 0 {
						continue
					}
					i := rng.Intn(len(files))
					src := files[i]
					dstDir := randDir()
					dstName := fmt.Sprintf("r%d", rng.Intn(300))
					dst := childPath(dstDir, dstName)
					moved := false
					both("rename "+src, func(ns *Namespace) error {
						sd, sname, err := ns.ResolveDirOf(src)
						if err != nil {
							return err
						}
						dd, err := ns.Resolve(dstDir)
						if err != nil {
							return err
						}
						err = ns.Rename(sd, sname, dd, dstName)
						moved = err == nil
						return err
					})
					if moved {
						files[i] = dst
					}
				case op < 19: // move a subtree label
					d := randDir()
					rank := Rank(rng.Intn(numRanks))
					both("label "+d, func(ns *Namespace) error {
						n, err := ns.Resolve(d)
						if err != nil {
							return err
						}
						ns.SetAuthOverride(n, rank)
						return nil
					})
				default: // label, split or merge a fragment
					d := randDir()
					rank := Rank(rng.Intn(numRanks))
					mode := rng.Intn(3)
					pick := rng.Intn(1 << 10) // leaf choice, fixed across twins
					at := now
					both("frag "+d, func(ns *Namespace) error {
						n, err := ns.Resolve(d)
						if err != nil {
							return err
						}
						leaves := n.FragTree().Leaves()
						leaf := leaves[pick%len(leaves)]
						switch mode {
						case 0:
							ns.SetFragAuth(n, leaf, rank)
						case 1:
							if len(leaves) < 8 {
								ns.SplitDir(n, leaf, 1, at)
							}
						default:
							if leaf.Bits > 0 {
								ns.MergeDir(n, leaf.Parent(), 1, at)
							}
						}
						return nil
					})
				}
				if step%100 == 99 {
					compareViews(t, fast, slow, now, numRanks)
				}
			}

			compareTrees(t, fast.Root(), slow.Root(), now)
			compareViews(t, fast, slow, now, numRanks)
			probes := append([]string{}, dirs...)
			probes = append(probes, files...)
			probes = append(probes,
				"/nope", "/nope/deeper", "relative", "", "/", "//",
				"/a//b", "/d0/.", "/d0/..", childPath(randDir(), "missing"),
			)
			compareResolves(t, fast, slow, probes)
			if err := fast.CheckInvariants(numRanks, true); err != nil {
				t.Fatalf("fast invariants: %v", err)
			}
			if err := slow.CheckInvariants(numRanks, true); err != nil {
				t.Fatalf("slow invariants: %v", err)
			}
			if got := fast.PendingHits(); got != 0 {
				t.Fatalf("pending hits after invariant flush: %d", got)
			}
		})
	}
}

// TestLazyCounterSnapshotEquivalence is the focused version of the tentpole
// claim: identical random (kind, time) hit sequences against a deep chain
// produce bit-identical snapshots whether ancestors are charged eagerly or
// folded in one deferred batch.
func TestLazyCounterSnapshotEquivalence(t *testing.T) {
	const depth = 24
	rng := rand.New(rand.NewSource(99))
	fast := New(sim.Second)
	slow := newEagerNamespace(sim.Second)
	path := ""
	for i := 0; i < depth; i++ {
		path += fmt.Sprintf("/d%d", i)
	}
	fleaf := mustCreate(t, fast, path, true)
	sleaf := mustCreate(t, slow, path, true)
	now := sim.Time(0)
	for i := 0; i < 5000; i++ {
		now += sim.Time(1 + rng.Intn(500_000))
		kind := OpKind(rng.Intn(int(numOpKinds)))
		fast.RecordOp(fleaf, "x", kind, now)
		slow.RecordOp(sleaf, "x", kind, now)
	}
	if fast.PendingHits() == 0 {
		t.Fatal("fast namespace recorded no deferred hits")
	}
	for fc, sc := fleaf, sleaf; fc != nil; fc, sc = fc.Parent(), sc.Parent() {
		if !snapshotsBitEqual(fc.Load(now), sc.Load(now)) {
			t.Fatalf("%s: lazy snapshot diverged from eager\n lazy  %+v\n eager %+v",
				fc.Path(), fc.Load(now), sc.Load(now))
		}
	}
	if got := fast.PendingHits(); got != 0 {
		t.Fatalf("pending hits after snapshot reads: %d", got)
	}
}
