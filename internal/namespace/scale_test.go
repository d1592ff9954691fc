package namespace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mantle/internal/sim"
)

// The scale pass's equivalence proofs. Each fast path is checked against a
// cold twin built by New and driven so that the fast path never helps it,
// or against a reference walk kept here rather than in the binary:
//
//   - lazy counters: runOpStream calls FlushCounters on the cold twin after
//     every op, so the fold applies each RecordOp hit at once, in the order
//     an eager ancestor walk would. Both twins take the same snapshots at
//     the same times, so in-place decay on read treats them alike;
//   - resolution cache: runOpStream calls invalidateResolves on the cold twin
//     before every op and every probe, so each resolution takes the walk;
//   - hot-path memos: refEffAuth, refFrozenFor and refPath are the plain
//     ancestor walks, compared with EffectiveAuth, FrozenFor and Path for
//     every node at each check point;
//   - attribution: refOwnedNodes counts every node to its EffectiveAuth and
//     refAuthLoad credits every recorded op, decayed on its own, to the rank
//     that serves it; OwnedNodes must match the first exactly and AuthLoad
//     the second within a rounding tolerance at each check point;
//   - sharded mode: runOpStream drives a third twin, sharded, through rank
//     views, so each op resolves through a view's own cache, creates from
//     its own slab and logs its hits in its own domain. Its structure must
//     match the unsharded twin's exactly. Its counters must match within
//     counterTol when the ops spread over the views, whose logs the fold
//     replays in rank order rather than time order (a late hit decays by
//     its age, see stats.DecayCounter.Hit), and bit for bit when they all
//     go through View(0).

// refPath is Path without the memo.
func refPath(n *Node) string {
	if n.parent.Load() == nil {
		return "/"
	}
	p := ""
	for cur := n; cur.parent.Load() != nil; cur = cur.parent.Load() {
		p = "/" + cur.name + p
	}
	return p
}

// refEffAuth is EffectiveAuth without the memo: a file's dentry frag first,
// then each directory's own label and its dentry's frag in the parent.
func refEffAuth(n *Node) Rank {
	if !n.IsDir() {
		if n.parent.Load() == nil {
			return 0
		}
		if fs := n.parent.Load().dir.fragOf(HashName(n.name)); fs.auth != RankNone {
			return fs.auth
		}
		n = n.parent.Load()
	}
	for cur := n; ; cur = cur.parent.Load() {
		if cur.dir.authOverride != RankNone {
			return cur.dir.authOverride
		}
		if cur.parent.Load() == nil {
			return 0
		}
		if fs := cur.parent.Load().dir.fragOf(HashName(cur.name)); fs.auth != RankNone {
			return fs.auth
		}
	}
}

// refFrozenFor is FrozenFor without the freeze counts: the dentry's frag,
// then every directory up to the root.
func refFrozenFor(dir *Node, name string) bool {
	if dir.dir.fragOf(HashName(name)).frozen {
		return true
	}
	for cur := dir; cur != nil; cur = cur.parent.Load() {
		if cur.dir.frozen {
			return true
		}
	}
	return false
}

// refOwnedNodes is OwnedNodes by brute force: every node counted to its
// EffectiveAuth.
func refOwnedNodes(ns *Namespace, numRanks int) []int {
	out := make([]int, numRanks)
	Walk(ns.Root(), func(n *Node) bool {
		if r := refEffAuth(n); r >= 0 && int(r) < numRanks {
			out[r]++
		}
		return true
	})
	return out
}

// refAuthLoad is AuthLoad by brute force. It keeps every recorded op and,
// at a check point, decays each on its own and credits it to the rank that
// serves it: AuthForDentry for a named op, the directory's rank for a
// whole-directory op — except that the op's share of a fragment's own
// counters goes to the fragment's label where it has one. A named op's
// share is 1 in its dentry's leaf; a whole-directory op's is 1 in every
// leaf, since RecordOp charges a readdir to every leaf. Splits and merges
// move shares as SplitDir and MergeDir move heat: a split spreads a leaf's
// share over its kids by the entries each takes (all of it lost from a
// leaf with no entries), a merge adds the kids' shares back up.
type refAuthLoad struct {
	halfLife sim.Time
	ops      []refOp
}

type refOp struct {
	dir   *Node
	kind  OpKind
	at    sim.Time
	share map[Frag]float64
}

func (r *refAuthLoad) record(dir *Node, name string, k OpKind, at sim.Time) {
	share := map[Frag]float64{}
	if name == "" {
		for _, f := range dir.FragLeaves() {
			share[f] = 1
		}
	} else {
		share[dir.FragOfName(name)] = 1
	}
	r.ops = append(r.ops, refOp{dir: dir, kind: k, at: at, share: share})
}

// split follows SplitDir(dir, leaf, ...) having made kids.
func (r *refAuthLoad) split(dir *Node, leaf Frag, kids []Frag) {
	entries := make([]int, len(kids))
	total := 0
	for i, k := range kids {
		fs, _ := dir.FragStateOf(k)
		entries[i] = fs.Entries
		total += fs.Entries
	}
	for _, op := range r.ops {
		w, ok := op.share[leaf]
		if op.dir != dir || !ok {
			continue
		}
		delete(op.share, leaf)
		for i, k := range kids {
			if total > 0 {
				op.share[k] = w * float64(entries[i]) / float64(total)
			}
		}
	}
}

// merge follows a MergeDir that coalesced kids into parent.
func (r *refAuthLoad) merge(dir *Node, parent Frag, kids []Frag) {
	for _, op := range r.ops {
		if op.dir != dir {
			continue
		}
		for _, k := range kids {
			if w, ok := op.share[k]; ok {
				op.share[parent] += w
				delete(op.share, k)
			}
		}
	}
}

// loads is the reference's AuthLoad(numRanks, now, CephLoad), clamped at
// zero as AuthLoad is.
func (r *refAuthLoad) loads(numRanks int, now sim.Time) []float64 {
	out := make([]float64, numRanks)
	add := func(rank Rank, v float64) {
		if rank >= 0 && int(rank) < numRanks {
			out[rank] += v
		}
	}
	for _, op := range r.ops {
		c := NewCounters(r.halfLife)
		c.Hit(op.kind, op.at)
		v := c.Snapshot(now).CephLoad()
		owner := refEffAuth(op.dir)
		add(owner, v)
		for f, w := range op.share {
			fs, _ := op.dir.FragStateOf(f)
			if a := fs.Auth(); a != RankNone {
				add(a, v*w)
				add(owner, -v*w)
			}
		}
	}
	for i := range out {
		out[i] = max(out[i], 0)
	}
	return out
}

// compareAttribution checks OwnedNodes and AuthLoad against the references.
// The loads differ in fold order and in when each decayed counter drops a
// value below 1e-9, so they are compared within a tolerance.
func compareAttribution(t testing.TB, ns *Namespace, ref *refAuthLoad, now sim.Time, numRanks int) {
	t.Helper()
	if got, want := ns.OwnedNodes(numRanks), refOwnedNodes(ns, numRanks); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("OwnedNodes %v, count by EffectiveAuth %v", got, want)
	}
	got, want := ns.AuthLoad(numRanks, now, CounterSnapshot.CephLoad), ref.loads(numRanks, now)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-6+1e-9*math.Abs(want[i]) {
			t.Fatalf("AuthLoad %v, per-op reference %v", got, want)
		}
	}
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// counterTol compares counters folded in different orders: 1e-9 relative
// for rounding, plus 1e-9 absolute for the decay clamp, which zeroes a
// value below 1e-9 and so may zero it in one order and not the other.
func counterTol(a, b float64) bool { return math.Abs(a-b) <= 1e-9+1e-9*math.Abs(b) }

// floatEq is how two twins' counters must agree: bitsEqual or counterTol.
type floatEq func(a, b float64) bool

func snapshotsEqual(a, b CounterSnapshot, eq floatEq) bool {
	return eq(a.IRD, b.IRD) && eq(a.IWR, b.IWR) && eq(a.Readdir, b.Readdir) &&
		eq(a.Fetch, b.Fetch) && eq(a.Store, b.Store)
}

// compareTrees walks fast and cold in lockstep and fails on the first
// structural divergence or counter pair that eq refuses.
func compareTrees(t testing.TB, fast, cold *Node, now sim.Time, eq floatEq) {
	t.Helper()
	if fast.Path() != cold.Path() || fast.IsDir() != cold.IsDir() {
		t.Fatalf("structure diverged: %q dir=%v vs %q dir=%v",
			fast.Path(), fast.IsDir(), cold.Path(), cold.IsDir())
	}
	if !fast.IsDir() {
		return
	}
	if !snapshotsEqual(fast.Load(now), cold.Load(now), eq) {
		t.Fatalf("%s: dir counters diverged\n fast %+v\n cold %+v",
			fast.Path(), fast.Load(now), cold.Load(now))
	}
	if fast.RankSpread() != cold.RankSpread() {
		t.Fatalf("%s: rankSpread %d vs %d", fast.Path(), fast.RankSpread(), cold.RankSpread())
	}
	ff, cf := fast.FragTree().Leaves(), cold.FragTree().Leaves()
	if len(ff) != len(cf) {
		t.Fatalf("%s: %d frags vs %d", fast.Path(), len(ff), len(cf))
	}
	for i, f := range ff {
		if f != cf[i] {
			t.Fatalf("%s: frag[%d] %v vs %v", fast.Path(), i, f, cf[i])
		}
		a, _ := fast.FragStateOf(f)
		b, _ := cold.FragStateOf(f)
		if a.Entries != b.Entries || a.Auth() != b.Auth() {
			t.Fatalf("%s#%v: entries/auth %d/%d vs %d/%d",
				fast.Path(), f, a.Entries, a.Auth(), b.Entries, b.Auth())
		}
		if !snapshotsEqual(a.Counters.Snapshot(now), b.Counters.Snapshot(now), eq) {
			t.Fatalf("%s#%v: frag counters diverged", fast.Path(), f)
		}
	}
	names := fast.ChildNames()
	coldNames := cold.ChildNames()
	if len(names) != len(coldNames) {
		t.Fatalf("%s: %d children vs %d", fast.Path(), len(names), len(coldNames))
	}
	for i, name := range names {
		if name != coldNames[i] {
			t.Fatalf("%s: child[%d] %q vs %q", fast.Path(), i, name, coldNames[i])
		}
		fc, _ := fast.Lookup(name)
		cc, _ := cold.Lookup(name)
		compareTrees(t, fc, cc, now, eq)
	}
}

// compareViews checks the balancer-facing aggregates: partition bounds,
// per-rank load (as eq says) and ownership estimates.
func compareViews(t testing.TB, fast, cold *Namespace, now sim.Time, numRanks int, eq floatEq) {
	t.Helper()
	fr, cr := fast.SubtreeRoots(-1), cold.SubtreeRoots(-1)
	if len(fr) != len(cr) {
		t.Fatalf("SubtreeRoots: %d bounds vs %d", len(fr), len(cr))
	}
	for i := range fr {
		if fr[i].Path() != cr[i].Path() || fr[i].Rank != cr[i].Rank || fr[i].IsFrag != cr[i].IsFrag {
			t.Fatalf("SubtreeRoots[%d]: %s rank %d vs %s rank %d",
				i, fr[i].Path(), fr[i].Rank, cr[i].Path(), cr[i].Rank)
		}
	}
	fl := fast.AuthLoad(numRanks, now, CounterSnapshot.CephLoad)
	cl := cold.AuthLoad(numRanks, now, CounterSnapshot.CephLoad)
	for i := range fl {
		if !eq(fl[i], cl[i]) {
			t.Fatalf("AuthLoad[%d]: %v (%x) vs %v (%x)",
				i, fl[i], math.Float64bits(fl[i]), cl[i], math.Float64bits(cl[i]))
		}
	}
	fo, co := fast.OwnedNodes(numRanks), cold.OwnedNodes(numRanks)
	for i := range fo {
		if fo[i] != co[i] {
			t.Fatalf("OwnedNodes[%d]: %d vs %d", i, fo[i], co[i])
		}
	}
}

// compareMemos checks Path, EffectiveAuth and FrozenFor for every node of
// ns against the reference walks: first as the tree stands, then with the
// middle directory in walk order and one leaf frag of the last one frozen
// (the op mix freezes nothing, and FrozenFor skips its walk while nothing
// is frozen). The freezes are undone before it returns.
func compareMemos(t testing.TB, ns *Namespace) {
	t.Helper()
	var dirs []*Node
	Walk(ns.Root(), func(n *Node) bool {
		if n.IsDir() {
			dirs = append(dirs, n)
		}
		return true
	})
	check := func(when string) {
		t.Helper()
		Walk(ns.Root(), func(n *Node) bool {
			if got, want := n.Path(), refPath(n); got != want {
				t.Fatalf("%s: Path %q, walk %q", when, got, want)
			}
			if got, want := ns.EffectiveAuth(n), refEffAuth(n); got != want {
				t.Fatalf("%s: EffectiveAuth(%s) %d, walk %d", when, refPath(n), got, want)
			}
			if n.IsDir() {
				for _, name := range append(n.ChildNames(), "absent") {
					if got, want := ns.FrozenFor(n, name), refFrozenFor(n, name); got != want {
						t.Fatalf("%s: FrozenFor(%s, %q) %v, walk %v", when, refPath(n), name, got, want)
					}
				}
			}
			return true
		})
	}
	check("unfrozen")
	dir, fragDir := dirs[len(dirs)/2], dirs[len(dirs)-1]
	leaf := fragDir.FragTree().Leaves()[0]
	ns.Freeze(dir, true)
	ns.FreezeFrag(fragDir, leaf, true)
	check("frozen " + refPath(dir) + " and " + refPath(fragDir) + "#" + leaf.String())
	ns.Freeze(dir, false)
	ns.FreezeFrag(fragDir, leaf, false)
}

// compareResolves probes both namespaces with the same path strings —
// existing paths, missing paths, and malformed ones — and requires identical
// nodes (by path) and identical error text. The cold twin's cache is staled
// before every call, so each of its answers comes from the walk.
func compareResolves(t testing.TB, fast, cold *Namespace, probes []string) {
	t.Helper()
	for _, p := range probes {
		fn, ferr := fast.Resolve(p)
		cold.invalidateResolves()
		cn, cerr := cold.Resolve(p)
		if (ferr == nil) != (cerr == nil) {
			t.Fatalf("Resolve(%q): err %v vs %v", p, ferr, cerr)
		}
		if ferr != nil {
			if ferr.Error() != cerr.Error() {
				t.Fatalf("Resolve(%q): error text %q vs %q", p, ferr, cerr)
			}
		} else if fn.Path() != cn.Path() {
			t.Fatalf("Resolve(%q): %s vs %s", p, fn.Path(), cn.Path())
		}
		fd, fname, ferr2 := fast.ResolveDirOf(p)
		cold.invalidateResolves()
		cd, cname, cerr2 := cold.ResolveDirOf(p)
		if (ferr2 == nil) != (cerr2 == nil) {
			t.Fatalf("ResolveDirOf(%q): err %v vs %v", p, ferr2, cerr2)
		}
		if ferr2 != nil {
			if ferr2.Error() != cerr2.Error() {
				t.Fatalf("ResolveDirOf(%q): error text %q vs %q", p, ferr2, cerr2)
			}
		} else if fd.Path() != cd.Path() || fname != cname {
			t.Fatalf("ResolveDirOf(%q): %s/%s vs %s/%s", p, fd.Path(), fname, cd.Path(), cname)
		}
	}
}

// opSource supplies the op stream's choices: a seeded rand for the table
// test, fuzz bytes for FuzzNamespaceOps.
type opSource interface {
	// Intn returns a choice in [0, n).
	Intn(n int) int
	// More reports whether the source can drive another step.
	More() bool
}

// randSource draws from a seeded rand and records every choice as a
// uvarint, so the recording replays the same stream through byteSource.
type randSource struct {
	rng *rand.Rand
	rec []byte
}

func (s *randSource) Intn(n int) int {
	v := s.rng.Intn(n)
	s.rec = binary.AppendUvarint(s.rec, uint64(v))
	return v
}

func (s *randSource) More() bool { return true }

// byteSource decodes choices from uvarints, each reduced mod n; the stream
// ends when the bytes do.
type byteSource []byte

func (s *byteSource) Intn(n int) int {
	v, k := binary.Uvarint(*s)
	if k <= 0 {
		*s = nil
		return 0
	}
	*s = (*s)[k:]
	return int(v % uint64(n))
}

func (s *byteSource) More() bool { return len(*s) > 0 }

// runOpStream drives a fast namespace, its cold twin and a sharded twin
// through up to steps ops drawn from src — creates, records, renames,
// unlinks, label moves, frag labels, splits and merges — and asserts
// bit-identical counters, bounds, loads, memos and resolution behaviour
// between fast and cold, and loads and node counts that match the
// attribution references, every 100 steps and at the end; then the trees
// node by node and full invariants (which include the
// incremental-vs-rebuilt bound index comparison) on all three twins. The
// sharded twin takes step i's op through View(i % views), so views = 1
// keeps it in one domain, where its counters must match bit for bit, and
// views = numRanks spreads it over every domain (see counterTol).
func runOpStream(t testing.TB, src opSource, steps, views int) {
	const numRanks = 4
	fast := New(sim.Second / 2)
	cold := New(sim.Second / 2)
	shard := New(sim.Second / 2)
	shard.EnableSharding(numRanks)
	ref := &refAuthLoad{halfLife: sim.Second / 2}
	shardEq := floatEq(bitsEqual)
	if views > 1 {
		shardEq = counterTol
	}

	dirs := []string{"/"}
	files := []string{}
	gone := []string{} // unlinked files and rename sources
	now := sim.Time(0)
	step := 0

	// both applies fn to each namespace, through v for its hot-path calls
	// (a pass-through to the namespace on the unsharded twins, the step's
	// rank view on the sharded one), and insists on the same outcome.
	both := func(label string, fn func(ns *Namespace, v *View) error) {
		ferr := fn(fast, fast.View(0))
		cold.invalidateResolves()
		cerr := fn(cold, cold.View(0))
		cold.FlushCounters()
		serr := fn(shard, shard.View(step%views))
		if (ferr == nil) != (cerr == nil) || (ferr == nil) != (serr == nil) {
			t.Fatalf("%s: fast err %v, cold err %v, sharded err %v", label, ferr, cerr, serr)
		}
	}
	// create is CreatePath on the unsharded twins. The sharded twin
	// creates through its view and answers for an existing entry as
	// CreatePath does (the stream's parents always exist).
	create := func(ns *Namespace, v *View, p string, isDir bool) error {
		if !ns.Sharded() {
			_, err := ns.CreatePath(p, isDir)
			return err
		}
		dir, name, err := v.ResolveDirOf(p)
		if err != nil {
			return err
		}
		if _, err = v.Create(dir, name, isDir); errors.Is(err, ErrExist) {
			if c, _ := dir.Lookup(name); isDir && !c.IsDir() {
				return ErrNotDir
			}
			return nil
		}
		return err
	}
	childPath := func(parent, name string) string {
		if parent == "/" {
			return "/" + name
		}
		return parent + "/" + name
	}
	// checkpoint compares the twins; its probes cover every path the
	// stream has named, gone ones included, a name under each live file,
	// and malformed paths.
	checkpoint := func(extra ...string) {
		t.Helper()
		compareViews(t, fast, cold, now, numRanks, bitsEqual)
		compareViews(t, fast, shard, now, numRanks, shardEq)
		compareAttribution(t, fast, ref, now, numRanks)
		compareMemos(t, fast)
		compareMemos(t, cold)
		compareMemos(t, shard)
		probes := append([]string{}, dirs...)
		probes = append(probes, files...)
		probes = append(probes, gone...)
		for _, f := range files {
			probes = append(probes, f+"/x")
		}
		probes = append(probes,
			"/nope", "/nope/deeper", "relative", "", "/", "//",
			"/a//b", "/d0/.", "/d0/..")
		probes = append(probes, extra...)
		compareResolves(t, fast, cold, probes)
		compareViewResolves(t, fast, shard, probes)
	}

	randDir := func() string { return dirs[src.Intn(len(dirs))] }

	for ; step < steps && src.More(); step++ {
		now += sim.Time(1 + src.Intn(3_000_000))
		switch op := src.Intn(20); {
		case op < 5: // create file
			p := childPath(randDir(), fmt.Sprintf("f%d", src.Intn(200)))
			both("create "+p, func(ns *Namespace, v *View) error {
				return create(ns, v, p, false)
			})
			files = append(files, p)
		case op < 8: // create dir
			p := childPath(randDir(), fmt.Sprintf("d%d", src.Intn(40)))
			both("mkdir "+p, func(ns *Namespace, v *View) error {
				return create(ns, v, p, true)
			})
			dirs = append(dirs, p)
		case op < 14: // record a metadata op
			d := randDir()
			name := fmt.Sprintf("f%d", src.Intn(200))
			kind := OpKind(src.Intn(int(numOpKinds)))
			at := now
			both("record "+d, func(ns *Namespace, v *View) error {
				n, err := v.Resolve(d)
				if err != nil {
					return err
				}
				v.RecordOp(n, name, kind, at)
				if ns == fast {
					ref.record(n, name, kind, at)
				}
				return nil
			})
		case op < 15: // whole-dir op (readdir)
			d := randDir()
			at := now
			both("readdir "+d, func(ns *Namespace, v *View) error {
				n, err := v.Resolve(d)
				if err != nil {
					return err
				}
				v.RecordOp(n, "", OpReaddir, at)
				if ns == fast {
					ref.record(n, "", OpReaddir, at)
				}
				return nil
			})
		case op < 16: // unlink a file
			if len(files) == 0 {
				continue
			}
			i := src.Intn(len(files))
			p := files[i]
			// Resolving p on both sides of the unlink catches a cached
			// entry that outlives it.
			compareResolves(t, fast, cold, []string{p})
			compareViewResolves(t, fast, shard, []string{p})
			both("unlink "+p, func(ns *Namespace, v *View) error {
				dir, name, err := v.ResolveDirOf(p)
				if err != nil {
					return err
				}
				return ns.Remove(dir, name)
			})
			compareResolves(t, fast, cold, []string{p})
			compareViewResolves(t, fast, shard, []string{p})
			files = append(files[:i], files[i+1:]...)
			gone = append(gone, p)
		case op < 17: // rename a file into another directory
			if len(files) == 0 {
				continue
			}
			i := src.Intn(len(files))
			srcPath := files[i]
			dstDir := randDir()
			dstName := fmt.Sprintf("r%d", src.Intn(300))
			dst := childPath(dstDir, dstName)
			moved := false
			compareResolves(t, fast, cold, []string{srcPath, dst})
			compareViewResolves(t, fast, shard, []string{srcPath, dst})
			both("rename "+srcPath, func(ns *Namespace, v *View) error {
				sd, sname, err := v.ResolveDirOf(srcPath)
				if err != nil {
					return err
				}
				dd, err := v.Resolve(dstDir)
				if err != nil {
					return err
				}
				err = ns.Rename(sd, sname, dd, dstName)
				if ns == fast {
					moved = err == nil
				}
				return err
			})
			compareResolves(t, fast, cold, []string{srcPath, dst})
			compareViewResolves(t, fast, shard, []string{srcPath, dst})
			if moved {
				files[i] = dst
				gone = append(gone, srcPath)
			}
		case op < 19: // move a subtree label
			d := randDir()
			rank := Rank(src.Intn(numRanks))
			both("label "+d, func(ns *Namespace, v *View) error {
				n, err := v.Resolve(d)
				if err != nil {
					return err
				}
				ns.SetAuthOverride(n, rank)
				return nil
			})
		default: // label, split or merge a fragment
			d := randDir()
			rank := Rank(src.Intn(numRanks))
			mode := src.Intn(3)
			pick := src.Intn(1 << 10) // leaf choice, fixed across twins
			at := now
			both("frag "+d, func(ns *Namespace, v *View) error {
				n, err := v.Resolve(d)
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
						kids := ns.SplitDir(n, leaf, 1, at)
						if ns == fast {
							ref.split(n, leaf, kids)
						}
					}
				default:
					if leaf.Bits > 0 && ns.MergeDir(n, leaf.Parent(), 1, at) && ns == fast {
						ref.merge(n, leaf.Parent(), leaf.Parent().Split(1))
					}
				}
				return nil
			})
		}
		if step%100 == 99 {
			checkpoint()
		}
	}

	compareTrees(t, fast.Root(), cold.Root(), now, bitsEqual)
	compareTrees(t, fast.Root(), shard.Root(), now, shardEq)
	checkpoint(childPath(randDir(), "missing"))
	for name, ns := range map[string]*Namespace{"fast": fast, "cold": cold, "sharded": shard} {
		if err := ns.CheckInvariants(numRanks, true); err != nil {
			t.Fatalf("%s invariants: %v", name, err)
		}
		if got := ns.PendingHits(); got != 0 {
			t.Fatalf("%s: pending hits after invariant flush: %d", name, got)
		}
	}
}

// compareViewResolves probes the sharded twin through every rank view, each
// with its own resolution cache, and requires the fast twin's answers.
func compareViewResolves(t testing.TB, fast, shard *Namespace, probes []string) {
	t.Helper()
	for _, p := range probes {
		fn, ferr := fast.Resolve(p)
		for r := range shard.domains {
			sn, serr := shard.View(r).Resolve(p)
			if (ferr == nil) != (serr == nil) || (ferr != nil && ferr.Error() != serr.Error()) {
				t.Fatalf("View(%d).Resolve(%q): err %v vs fast %v", r, p, serr, ferr)
			}
			if ferr == nil && fn.Path() != sn.Path() {
				t.Fatalf("View(%d).Resolve(%q): %s vs fast %s", r, p, sn.Path(), fn.Path())
			}
		}
	}
}

// scaleSeeds are TestScalePassEquivalence's op streams, also the seed
// corpus of FuzzNamespaceOps.
const scaleSeeds, scaleSteps = 6, 800

// TestScalePassEquivalence drives the optimised namespace and its twins
// through six seeded op streams (see runOpStream), the sharded twin's ops
// spread over all four rank views.
func TestScalePassEquivalence(t *testing.T) {
	for seed := int64(1); seed <= scaleSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runOpStream(t, &randSource{rng: rand.New(rand.NewSource(seed))}, scaleSteps, 4)
		})
	}
}

// TestShardedViewZeroBitIdentical: through View(0) alone, the sharded twin
// folds one log in arrival order, as the unsharded namespace does, so every
// counter matches bit for bit.
func TestShardedViewZeroBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= scaleSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runOpStream(t, &randSource{rng: rand.New(rand.NewSource(seed))}, scaleSteps, 1)
		})
	}
}

// FuzzNamespaceOps decodes fuzz bytes into TestScalePassEquivalence's op
// mix and requires every check to match between the fast namespace and its
// twins, and invariants to hold on all three. The corpus is seeded with the
// recorded choices of the table test's six streams.
func FuzzNamespaceOps(f *testing.F) {
	for seed := int64(1); seed <= scaleSeeds; seed++ {
		src := &randSource{rng: rand.New(rand.NewSource(seed))}
		runOpStream(f, src, scaleSteps, 4)
		f.Add(src.rec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		runOpStream(t, &src, scaleSteps, 4)
	})
}

// TestLazyCounterSnapshotEquivalence is the focused version of the lazy
// counter claim: identical random (kind, time) hit sequences against a deep
// chain produce bit-identical snapshots whether each hit is folded at once
// or deferred. The sequence runs past maxPendingHits twice, so the deferred
// side folds in batches of the bound and then once more at the read.
func TestLazyCounterSnapshotEquivalence(t *testing.T) {
	const depth = 24
	rng := rand.New(rand.NewSource(99))
	fast := New(sim.Second)
	cold := New(sim.Second)
	path := ""
	for i := 0; i < depth; i++ {
		path += fmt.Sprintf("/d%d", i)
	}
	fleaf := mustCreate(t, fast, path, true)
	cleaf := mustCreate(t, cold, path, true)
	now := sim.Time(0)
	for i := 0; i < 2*maxPendingHits+808; i++ {
		now += sim.Time(1 + rng.Intn(500_000))
		kind := OpKind(rng.Intn(int(numOpKinds)))
		fast.RecordOp(fleaf, "x", kind, now)
		cold.RecordOp(cleaf, "x", kind, now)
		cold.FlushCounters()
	}
	if fast.PendingHits() == 0 {
		t.Fatal("fast namespace recorded no deferred hits")
	}
	for fc, cc := fleaf, cleaf; fc != nil; fc, cc = fc.Parent(), cc.Parent() {
		if !snapshotsEqual(fc.Load(now), cc.Load(now), bitsEqual) {
			t.Fatalf("%s: deferred snapshot diverged from folded-at-once\n fast %+v\n cold %+v",
				fc.Path(), fc.Load(now), cc.Load(now))
		}
	}
	if got := fast.PendingHits(); got != 0 {
		t.Fatalf("pending hits after snapshot reads: %d", got)
	}
}
