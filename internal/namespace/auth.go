package namespace

import (
	"fmt"
	"strings"

	"mantle/internal/sim"
)

// EffectiveAuth resolves the MDS rank authoritative for node: the nearest
// explicit label walking up through directories and the fragments containing
// each dentry on the way to the root. The root always carries a label, so
// resolution terminates.
//
// The result is memoised on directory nodes against ns.authGen (bumped by
// every label change), so steady-state resolution is one generation check
// instead of a walk to the nearest bound. Note the walk inspects a
// directory's own label and its dentry's fragment in the *parent* — never
// the directory's own fragments — which is what lets fragment-bound owners
// be computed without temporarily clearing the fragment's label (see
// bidxDerive).
func (ns *Namespace) EffectiveAuth(n *Node) Rank {
	ns.rlock()
	defer ns.runlock()
	return ns.effAuthOf(n)
}

// effAuthOf is EffectiveAuth under either side of the tree lock. Labels and
// authGen cannot change while any side is held; the memo words are atomic,
// and concurrent read-side fills for one generation compute identical ranks,
// so racing stores are idempotent.
func (ns *Namespace) effAuthOf(n *Node) Rank {
	if !n.IsDir() {
		parent := n.parent.Load()
		if parent == nil {
			return 0
		}
		if fs := parent.dir.fragOf(HashName(n.name)); fs.auth != RankNone {
			return fs.auth
		}
		n = parent
	}
	if w := n.dir.effMemo.Load(); w>>effRankBits == ns.authGen {
		return Rank(uint16(w)) - 1
	}
	// Climb to the nearest cached or labelled ancestor, then fill the
	// cache back down the chain — every directory passed on the way up
	// shares the rank found.
	var rank Rank
	cur := n
	for {
		if w := cur.dir.effMemo.Load(); w>>effRankBits == ns.authGen {
			rank = Rank(uint16(w)) - 1
			break
		}
		if cur.dir.authOverride != RankNone {
			rank = cur.dir.authOverride
			break
		}
		parent := cur.parent.Load()
		if parent == nil {
			// Root without a label (cannot happen via the public
			// API); fall back to rank 0.
			rank = 0
			break
		}
		if fs := parent.dir.fragOf(HashName(cur.name)); fs.auth != RankNone {
			rank = fs.auth
			break
		}
		cur = parent
	}
	word := packEff(ns.authGen, rank)
	for c := n; ; c = c.parent.Load() {
		c.dir.effMemo.Store(word)
		if c == cur {
			break
		}
	}
	return rank
}

// SubtreeTop reports the rank authoritative for dir and the path of the
// top of its same-authority subtree: the highest ancestor reached from dir
// through directories of that same effective rank. It is what a reply hint
// names, answered under one read-lock hold: each ancestor's rank is its
// effective-authority memo, and the path is the top's own path memo.
func (ns *Namespace) SubtreeTop(dir *Node) (string, Rank) {
	ns.rlock()
	defer ns.runlock()
	rank := ns.effAuthOf(dir)
	top := dir
	for p := top.parent.Load(); p != nil && ns.effAuthOf(p) == rank; p = p.parent.Load() {
		top = p
	}
	return top.path(), rank
}

// AuthForDentry resolves the rank authoritative for the dentry name inside
// dir — the rank that must serve operations on that dentry.
func (ns *Namespace) AuthForDentry(dir *Node, name string) Rank {
	ns.rlock()
	defer ns.runlock()
	if fs := dir.dir.fragOf(HashName(name)); fs.auth != RankNone {
		return fs.auth
	}
	return ns.effAuthOf(dir)
}

// SetAuthOverride labels the directory subtree rooted at n with rank,
// creating a subtree bound. Labelling with the inherited rank removes the
// bound instead (coalescing, which makes migration back to the parent's MDS
// clean up the partition).
func (ns *Namespace) SetAuthOverride(n *Node, rank Rank) {
	ns.wlock()
	defer ns.wunlock()
	ns.setAuthOverrideLocked(n, rank)
}

func (ns *Namespace) setAuthOverrideLocked(n *Node, rank Rank) {
	if !n.IsDir() {
		panic("namespace: authority labels attach to directories")
	}
	if n.parent.Load() == nil {
		// The root's label always stays explicit. Every directory that
		// inherits from it may now count a different owner.
		n.dir.authOverride = rank
		ns.authGen++
		ns.bidxDirty = true
		ns.invalidateResolves()
		ns.recomputeSpread(n)
		ns.recomputeDescendantSpreads(n)
		return
	}
	// Stale cached authority before computing the inherited rank: caches
	// may still hold the label being replaced.
	n.dir.authOverride = RankNone
	ns.authGen++
	inherited := ns.effAuthOf(n)
	if rank == inherited {
		delete(ns.overrides, n)
		ns.bidxRemove(n.path())
	} else {
		n.dir.authOverride = rank
		ns.overrides[n] = struct{}{}
	}
	// Stale again: the inherited computation above cached ranks that the
	// final label may contradict.
	ns.authGen++
	if n.dir.authOverride != RankNone {
		ns.bidxUpsert(SubtreeRoot{Dir: n, Frag: RootFrag, Rank: n.dir.authOverride})
	}
	ns.bidxRefreshBelow(n)
	ns.invalidateResolves()
	ns.recomputeSpread(n)
	ns.recomputeDescendantSpreads(n)
}

// SetFragAuth labels a single fragment of dir with rank; RankNone or the
// directory's effective rank clears the label.
func (ns *Namespace) SetFragAuth(dir *Node, frag Frag, rank Rank) {
	ns.wlock()
	defer ns.wunlock()
	ns.setFragAuthLocked(dir, frag, rank)
}

func (ns *Namespace) setFragAuthLocked(dir *Node, frag Frag, rank Rank) {
	fs := dir.dir.fragState(frag)
	if fs == nil {
		panic(fmt.Sprintf("namespace: SetFragAuth(%v): not a live frag of %s", frag, dir.path()))
	}
	fs.auth = RankNone
	ns.authGen++
	inherited := ns.effAuthOf(dir)
	if rank == RankNone || rank == inherited {
		delete(ns.fragOverrides, fragKey{dir, frag})
		ns.bidxRemove(dir.path() + "#" + frag.String())
	} else {
		fs.auth = rank
		ns.fragOverrides[fragKey{dir, frag}] = struct{}{}
	}
	ns.authGen++
	if fs.auth != RankNone {
		ns.bidxUpsert(SubtreeRoot{Dir: dir, Frag: frag, IsFrag: true, Rank: fs.auth})
	}
	ns.bidxRefreshBelow(dir)
	ns.invalidateResolves()
	ns.recomputeSpread(dir)
	// A fragment label changes the inherited authority of every
	// directory whose dentry hashes into the fragment, so spreads below
	// must be refreshed too.
	ns.recomputeDescendantSpreads(dir)
}

// clearSubtreeOverrides drops authority labels in a subtree being unlinked.
// Always called under the write lock in sharded mode.
func (ns *Namespace) clearSubtreeOverrides(n *Node) {
	removed := false
	Walk(n, func(c *Node) bool {
		if c.IsDir() {
			if _, ok := ns.overrides[c]; ok {
				delete(ns.overrides, c)
				removed = true
			}
			for _, fs := range c.dir.frags {
				if _, ok := ns.fragOverrides[fragKey{c, fs.Frag}]; ok {
					delete(ns.fragOverrides, fragKey{c, fs.Frag})
					removed = true
				}
			}
		}
		return true
	})
	if removed {
		ns.bidxDirty = true
	}
}

// Freeze marks the subtree rooted at n as mid-migration; the MDS defers
// operations that land in frozen subtrees (the paper's migration pauses).
func (ns *Namespace) Freeze(n *Node, frozen bool) {
	ns.wlock()
	defer ns.wunlock()
	if n.dir.frozen != frozen {
		if frozen {
			ns.frozenDirs++
		} else {
			ns.frozenDirs--
		}
	}
	n.dir.frozen = frozen
}

// FreezeFrag marks one fragment as mid-migration.
func (ns *Namespace) FreezeFrag(dir *Node, frag Frag, frozen bool) {
	ns.wlock()
	defer ns.wunlock()
	if fs := dir.dir.fragState(frag); fs != nil {
		if fs.frozen != frozen {
			if frozen {
				ns.frozenFrags++
			} else {
				ns.frozenFrags--
			}
		}
		fs.frozen = frozen
	}
}

// FrozenFor reports whether serving the dentry name in dir is blocked by a
// freeze anywhere on its authority chain. With no migration in flight — the
// overwhelmingly common case on the op fast path — this is two counter
// checks, not an ancestor walk.
func (ns *Namespace) FrozenFor(dir *Node, name string) bool {
	ns.rlock()
	defer ns.runlock()
	if ns.frozenFrags > 0 && dir.dir.fragOf(HashName(name)).frozen {
		return true
	}
	if ns.frozenDirs > 0 {
		for cur := dir; cur != nil; cur = cur.parent.Load() {
			if cur.dir.frozen {
				return true
			}
		}
	}
	return false
}

// SubtreeRoot describes one bound of the dynamic partition: either a whole
// directory subtree or a single fragment owned apart from its directory.
type SubtreeRoot struct {
	Dir    *Node
	Frag   Frag
	IsFrag bool
	Rank   Rank
}

// Path renders the root for logs and tests.
func (r SubtreeRoot) Path() string {
	if r.IsFrag {
		return r.Dir.Path() + "#" + r.Frag.String()
	}
	return r.Dir.Path()
}

// path is Path for callers already holding the tree lock (index keys).
func (r SubtreeRoot) path() string {
	if r.IsFrag {
		return r.Dir.path() + "#" + r.Frag.String()
	}
	return r.Dir.path()
}

// SubtreeRoots enumerates the current partition bounds, sorted by path for
// determinism. With rank >= 0 only that rank's bounds are returned. The
// bounds come straight from the sorted index — no per-call collection or
// re-sort. Takes the write lock in sharded mode: the index rebuild mutates
// shared state.
func (ns *Namespace) SubtreeRoots(rank Rank) []SubtreeRoot {
	ns.wlock()
	defer ns.wunlock()
	return ns.subtreeRootsLocked(rank)
}

func (ns *Namespace) subtreeRootsLocked(rank Rank) []SubtreeRoot {
	ns.ensureBoundIndex()
	if len(ns.bidx) == 0 {
		return nil
	}
	n := len(ns.bidx)
	if rank >= 0 {
		n = 0
		for i := range ns.bidx {
			if ns.bidx[i].root.Rank == rank {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]SubtreeRoot, 0, n)
	for i := range ns.bidx {
		if rank < 0 || ns.bidx[i].root.Rank == rank {
			out = append(out, ns.bidx[i].root)
		}
	}
	return out
}

// ReassignBounds moves every bound owned by rank onto the ranks in to,
// round-robin: the root first if rank holds it, then rank's subtree roots in
// path order. It is how a dead rank's subtrees become answerable again, and
// returns the number of bounds moved (0 when to is empty).
func (ns *Namespace) ReassignBounds(rank Rank, to []Rank) int {
	if len(to) == 0 {
		return 0
	}
	ns.wlock()
	defer ns.wunlock()
	moved := 0
	next := func() Rank {
		r := to[moved%len(to)]
		moved++
		return r
	}
	if ns.effAuthOf(ns.root) == rank {
		ns.setAuthOverrideLocked(ns.root, next())
	}
	for _, b := range ns.subtreeRootsLocked(rank) {
		if b.IsFrag {
			ns.setFragAuthLocked(b.Dir, b.Frag, next())
		} else {
			ns.setAuthOverrideLocked(b.Dir, next())
		}
	}
	return moved
}

// AuthLoad computes, for every rank in [0, numRanks), the decayed metadata
// load on the subtrees that rank is authoritative for: each op's load goes
// to the rank that serves its dentry, AuthForDentry's (see attribute). This
// is the "metadata load on auth subtree" input to the MDS-load policies
// (Table 2's MDSs[i]["auth"]).
func (ns *Namespace) AuthLoad(numRanks int, now sim.Time, load func(CounterSnapshot) float64) []float64 {
	return ns.authLoad(numRanks, now, load, RankNone)
}

// AuthLoadOf is AuthLoad(...)[want], bit for bit, for a caller that reports
// only its own rank's load: load runs only on the bounds that rank owns or
// that were carved from it.
func (ns *Namespace) AuthLoadOf(want Rank, numRanks int, now sim.Time, load func(CounterSnapshot) float64) float64 {
	if want < 0 || int(want) >= numRanks {
		return 0
	}
	return ns.authLoad(numRanks, now, load, want)[want]
}

func (ns *Namespace) authLoad(numRanks int, now sim.Time, load func(CounterSnapshot) float64, want Rank) []float64 {
	ns.wlock()
	defer ns.wunlock()
	ns.flushLocked()
	loads, _ := ns.attribute(numRanks, now, load, want)
	return loads
}

// OwnedNodes counts, per rank, the namespace nodes whose EffectiveAuth is
// that rank (the cache footprint behind the mem metric).
func (ns *Namespace) OwnedNodes(numRanks int) []int {
	ns.wlock()
	defer ns.wunlock()
	_, nodes := ns.attribute(numRanks, 0, nil, RankNone)
	return nodes
}

// attribute is the one walk behind AuthLoad and OwnedNodes. It credits each
// bound's measure to the bound's rank and debits it from the rank the bound
// was carved from, so what stays with a rank is what lies under its bounds
// and outside every bound nested in them: exactly the ops and nodes that
// EffectiveAuth gives it. A directory bound measures its subtree: its
// aggregate counters, or SubtreeNodes. A fragment bound measures fragLoad
// or fragNodes; one that is no longer a leaf is skipped. With load set the
// counters are priced by load into loads; with load nil the node counts go
// into nodes. Exactly one of the two results is returned.
//
// With want >= 0 only loads[want] is meaningful. Every bound's counters are
// still snapshotted — Snapshot applies the decay in place, so skipping one
// would change when decay happens and with it every later value — but load
// is called, and ranks are credited, only where want is a party.
// loads[want] receives the same terms in the same order either way.
func (ns *Namespace) attribute(numRanks int, now sim.Time, load func(CounterSnapshot) float64, want Rank) (loads []float64, nodes []int) {
	ns.ensureBoundIndex()
	if load == nil {
		nodes = make([]int, numRanks)
	} else {
		loads = make([]float64, numRanks)
	}
	// The index is ordered by path: floating-point sums must not depend
	// on map iteration order, or identical runs diverge in the last bit
	// and the balancer's decisions with them.
	for i := range ns.bidx {
		e := &ns.bidx[i]
		b, from := &e.root, e.from
		var fs *FragState
		if b.IsFrag {
			if fs = b.Dir.dir.fragState(b.Frag); fs == nil {
				continue
			}
		}
		if nodes != nil {
			if fs == nil {
				credit(nodes, b.Rank, from, b.Dir.SubtreeNodes())
			} else {
				credit(nodes, b.Rank, from, fragNodes(b.Dir, fs))
			}
			continue
		}
		var snap CounterSnapshot
		if fs == nil {
			snap = b.Dir.dir.counters.Snapshot(now)
		} else {
			snap = fragLoad(b.Dir, fs, now)
		}
		if want < 0 || b.Rank == want || from == want {
			credit(loads, b.Rank, from, load(snap))
		}
	}
	// Node counts come out exact; a load can dip below zero where a
	// readdir charged every leaf of a directory whose fragments are owned
	// apart (see RecordOp).
	for i := range loads {
		if loads[i] < 0 {
			loads[i] = 0
		}
	}
	return loads, nodes
}

// credit moves v from the rank a bound was carved from to the bound's rank.
// Ranks outside the result (RankNone, or beyond numRanks) are skipped.
func credit[T int | float64](out []T, to, from Rank, v T) {
	if to >= 0 && int(to) < len(out) {
		out[to] += v
	}
	if from >= 0 && int(from) < len(out) {
		out[from] -= v
	}
}

// fragLoad is a fragment's counter measure at now: its own counters, which
// count the ops on its dentries, plus the aggregate counters of every
// subdirectory whose dentry it holds, since those subtrees follow the
// fragment's authority. Subdirectories are summed in child-table slot
// order, which the table's history fixes.
func fragLoad(dir *Node, fs *FragState, now sim.Time) CounterSnapshot {
	s := fs.Counters.Snapshot(now)
	dir.dir.eachSubdirIn(fs.Frag, func(c *Node) { s = s.Add(c.dir.counters.Snapshot(now)) })
	return s
}

// fragNodes is a fragment's node measure: its dentries plus everything
// below the subdirectories among them.
func fragNodes(dir *Node, fs *FragState) int {
	v := fs.Entries
	dir.dir.eachSubdirIn(fs.Frag, func(c *Node) { v += c.SubtreeNodes() - 1 })
	return v
}

// eachSubdirIn calls fn for every subdirectory of ds whose dentry hashes
// into f. A directory with no subdirectories costs one comparison.
func (ds *dirState) eachSubdirIn(f Frag, fn func(c *Node)) {
	if ds.children.subdirs == 0 {
		return
	}
	ds.children.each(func(c *Node, h uint32) {
		if f.Contains(h) && c.dir != nil {
			fn(c)
		}
	})
}

// recomputeDescendantSpreads refreshes the cached rank spread of every
// directory below n that could be affected by an authority change above it.
// Only directories holding fragment labels can have a spread above one, and
// the bound index orders them by path, so the work is one range scan over
// the fragment bounds inside n's subtree instead of a scan of every
// fragment override in the namespace.
func (ns *Namespace) recomputeDescendantSpreads(n *Node) {
	if len(ns.fragOverrides) == 0 {
		return
	}
	ns.ensureBoundIndex()
	prefix := "/"
	if n.parent.Load() != nil {
		prefix = n.path() + "/"
	}
	var last *Node
	for i := ns.bidxFind(prefix); i < len(ns.bidx); i++ {
		e := &ns.bidx[i]
		if !strings.HasPrefix(e.key, prefix) {
			break
		}
		if !e.root.IsFrag || e.root.Dir == n || e.root.Dir == last {
			continue
		}
		last = e.root.Dir
		ns.recomputeSpread(e.root.Dir)
	}
}

// recomputeSpread refreshes dir's rankSpread after an authority change.
func (ns *Namespace) recomputeSpread(dir *Node) {
	if !dir.IsDir() {
		return
	}
	ds := dir.dir
	owners := map[Rank]struct{}{}
	inherited := false
	for _, fs := range ds.frags {
		if fs.auth != RankNone {
			owners[fs.auth] = struct{}{}
		} else {
			inherited = true
		}
	}
	if inherited {
		owners[ns.effAuthOf(dir)] = struct{}{}
	}
	if len(owners) == 0 {
		ds.rankSpread = 1
		return
	}
	ds.rankSpread = int32(len(owners))
}
