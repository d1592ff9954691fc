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
// AuthLoad).
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
		parent := n.parent
		if parent == nil {
			return 0
		}
		if fs := parent.dir.fragOf(HashName(n.name)); fs.auth != RankNone {
			return fs.auth
		}
		n = parent
	}
	if !ns.hotCaches {
		// Proof-toggle path: the plain walk, no memo reads or fills.
		for cur := n; ; {
			if cur.dir.authOverride != RankNone {
				return cur.dir.authOverride
			}
			parent := cur.parent
			if parent == nil {
				return 0
			}
			if fs := parent.dir.fragOf(HashName(cur.name)); fs.auth != RankNone {
				return fs.auth
			}
			cur = parent
		}
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
		parent := cur.parent
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
	for c := n; ; c = c.parent {
		c.dir.effMemo.Store(word)
		if c == cur {
			break
		}
	}
	return rank
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
	if n.parent == nil {
		// The root's label always stays explicit.
		n.dir.authOverride = rank
		ns.authGen++
		ns.bidxDirty = true
		ns.invalidateResolves()
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
	ds := dir.dir
	if ns.hotCaches {
		if ns.frozenDirs == 0 && ns.frozenFrags == 0 {
			return false
		}
		if ns.frozenFrags > 0 {
			if ds.fragOf(HashName(name)).frozen {
				return true
			}
		}
		if ns.frozenDirs > 0 {
			for cur := dir; cur != nil; cur = cur.parent {
				if cur.dir.frozen {
					return true
				}
			}
		}
		return false
	}
	// Proof-toggle path: unconditional frag check plus ancestor walk.
	if ds.fragOf(HashName(name)).frozen {
		return true
	}
	for cur := dir; cur != nil; cur = cur.parent {
		if cur.dir.frozen {
			return true
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
	out := make([]SubtreeRoot, 0, len(ns.bidx))
	for i := range ns.bidx {
		if rank < 0 || ns.bidx[i].root.Rank == rank {
			out = append(out, ns.bidx[i].root)
		}
	}
	if len(out) == 0 {
		return nil
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

// nearestEnclosingBound finds the subtree root that owns n's parent chain,
// excluding n's own label.
func (ns *Namespace) nearestEnclosingBound(n *Node) (*Node, bool) {
	for cur := n.parent; cur != nil; cur = cur.parent {
		if cur.dir.authOverride != RankNone {
			return cur, true
		}
	}
	return nil, false
}

// AuthLoad computes, for every rank in [0, numRanks), the decayed metadata
// load on the subtrees that rank is authoritative for, excluding nested
// subtrees owned by other bounds. This is the "metadata load on auth
// subtree" input to the MDS-load policies (Table 2's MDSs[i]["auth"]).
func (ns *Namespace) AuthLoad(numRanks int, now sim.Time, load func(CounterSnapshot) float64) []float64 {
	return ns.authLoad(numRanks, now, load, RankNone)
}

// AuthLoadOf is AuthLoad(...)[want], bit for bit, for a caller that reports
// only its own rank's load: load runs only on the bounds that rank owns or
// that nest directly under one it owns.
func (ns *Namespace) AuthLoadOf(want Rank, numRanks int, now sim.Time, load func(CounterSnapshot) float64) float64 {
	if want < 0 || int(want) >= numRanks {
		return 0
	}
	return ns.authLoad(numRanks, now, load, want)[want]
}

// authLoad is one linear pass over the bound index: each entry carries its
// enclosing bound (directory bounds) or its containing directory's owner
// (fragment bounds), both maintained at label-change time, so no parent
// walks happen here and the fragment owner is passed explicitly instead of
// being re-derived by temporarily clearing the fragment's label.
//
// With want >= 0 only out[want] is meaningful. Every bound's counter is
// still snapshotted — Snapshot applies the decay in place, so skipping it
// would change when decay happens and with it every later value — but load
// is called, and ranks are credited, only where want is a party. out[want]
// receives the same terms in the same order either way.
func (ns *Namespace) authLoad(numRanks int, now sim.Time, load func(CounterSnapshot) float64, want Rank) []float64 {
	ns.wlock()
	defer ns.wunlock()
	ns.flushLocked()
	ns.ensureBoundIndex()
	out := make([]float64, numRanks)
	// split credits v to the bound's owner and debits it from the rank the
	// bound is carved out of.
	split := func(snap CounterSnapshot, to, from Rank) {
		if want >= 0 && to != want && from != want {
			return
		}
		v := load(snap)
		if to >= 0 && int(to) < numRanks {
			out[to] += v
		}
		if from >= 0 && int(from) < numRanks {
			out[from] -= v
		}
	}
	// The index is ordered by path: floating-point sums must not depend
	// on map iteration order, or identical runs diverge in the last bit
	// and the balancer's decisions with them.
	for i := range ns.bidx {
		e := &ns.bidx[i]
		if e.root.IsFrag {
			// Fragment bound: the frag's own counters move between
			// ranks; the containing directory's owner keeps the
			// rest.
			if fs := e.root.Dir.dir.fragState(e.root.Frag); fs != nil {
				split(fs.Counters.Snapshot(now), fs.auth, e.dirOwner)
			}
			continue
		}
		// Directory bound: counter at the bound minus counters at
		// nested bounds directly beneath it.
		n := e.root.Dir
		from := RankNone
		if e.encl != nil && e.encl != n {
			from = e.encl.dir.authOverride
		}
		split(n.dir.counters.Snapshot(now), n.dir.authOverride, from)
	}
	for i := range out {
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// OwnedNodes estimates, per rank, how many namespace nodes each rank is
// authoritative for (the cache-footprint behind the mem metric). Fragment
// bounds contribute their dentry counts. Like AuthLoad, a linear pass over
// the bound index with owners read off the entries.
func (ns *Namespace) OwnedNodes(numRanks int) []int {
	ns.wlock()
	defer ns.wunlock()
	return ns.ownedNodesLocked(numRanks)
}

func (ns *Namespace) ownedNodesLocked(numRanks int) []int {
	ns.ensureBoundIndex()
	out := make([]int, numRanks)
	add := func(rank Rank, v int) {
		if rank >= 0 && int(rank) < numRanks {
			out[rank] += v
		}
	}
	for i := range ns.bidx {
		e := &ns.bidx[i]
		if e.root.IsFrag {
			fs := e.root.Dir.dir.fragState(e.root.Frag)
			if fs == nil {
				continue
			}
			add(fs.auth, fs.Entries)
			add(e.dirOwner, -fs.Entries)
			continue
		}
		n := e.root.Dir
		v := n.SubtreeNodes()
		add(n.dir.authOverride, v)
		if e.encl != nil && e.encl != n {
			add(e.encl.dir.authOverride, -v)
		}
	}
	for i := range out {
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
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
	if n.parent != nil {
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
