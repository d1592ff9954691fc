package namespace

import (
	"sort"
	"sync"
	"sync/atomic"

	"mantle/internal/sim"
)

// InodeID uniquely identifies an inode.
type InodeID uint64

// Rank identifies an MDS by its position in the cluster, 0-based.
type Rank int

// RankNone marks "no explicit authority; inherit from the parent".
const RankNone Rank = -1

// FragState is the live state of one directory fragment: its dentry count,
// its own popularity counters, and an optional authority override (a frag
// migrated away from its directory's MDS).
//
// Sharded-mode safety: Entries, Counters and LastAccess are single-writer —
// only the rank actor owning the fragment serves operations that touch them
// under the read lock; everything else reads them under the write lock. The
// auth and frozen labels change only under the write lock; their public
// accessors below take the read lock for callers outside the namespace.
type FragState struct {
	Frag     Frag
	Entries  int
	Counters Counters
	auth     Rank
	frozen   bool
	ns       *Namespace
	// LastAccess is when a namespace operation last touched the frag;
	// the MDS cache model uses it to decide whether serving the frag
	// needs a fetch from the object store.
	LastAccess sim.Time
}

// Auth reports the frag's authority override (RankNone if inherited).
func (fs *FragState) Auth() Rank {
	fs.ns.rlock()
	defer fs.ns.runlock()
	return fs.auth
}

// Frozen reports whether the frag is mid-migration.
func (fs *FragState) Frozen() bool {
	fs.ns.rlock()
	defer fs.ns.runlock()
	return fs.frozen
}

// pathMemo is one immutable memoised Path result; nodes swap whole records
// atomically so concurrent fills (idempotent for one generation) are safe.
type pathMemo struct {
	gen uint64
	p   string
}

// effRankBits sizes the rank field of the packed EffectiveAuth memo word:
// generation in the high bits, rank+1 in the low 16 (so the zero word is
// always stale — authGen starts at 1 — and RankNone packs to 0).
const effRankBits = 16

func packEff(gen uint64, r Rank) uint64 {
	return gen<<effRankBits | uint64(uint16(r+1))
}

// Node is a dentry/inode pair in the namespace tree. Inodes are embedded in
// directories, as in CephFS, so migrating a directory carries its inodes.
//
// Files are > 95 % of nodes, so Node holds only what a file uses — 64 bytes,
// pointer words first so the collector's scan of a file slab stops at 48 —
// and everything directory-only sits behind dir. The field is named, not
// embedded, so every access to directory state shows its nil-for-files deref.
type Node struct {
	name   string
	parent *Node
	ns     *Namespace // owning namespace (always set): locks, flush hooks, cache generations
	dir    *dirState  // nil for files
	// pathMemo memoises Path(); valid while its gen matches the namespace
	// generation (bumped on rename). Written on read paths, hence atomic.
	pathMemo atomic.Pointer[pathMemo]
	ino      InodeID

	// File state.
	Size int64
}

// dirState is the directory half of a node. childMu guards the children map
// and subdirs in sharded mode (see shard.go); everything else structural is
// protected by the tree lock.
type dirState struct {
	childMu  sync.Mutex
	children map[string]*Node
	fragtree *FragTree
	frags    map[Frag]*FragState
	counters Counters

	authOverride Rank
	frozen       bool
	subdirs      int32        // directories among children
	subtreeNodes atomic.Int64 // nodes in this subtree, including self
	rankSpread   int          // distinct ranks owning this dir's live frags

	// effMemo packs the memoised EffectiveAuth rank with the authority
	// generation it was computed under (bumped on any label change).
	// Written on read paths, hence atomic.
	effMemo atomic.Uint64
}

// dirNode lays a directory's two halves out in one object, so creating a
// directory costs the same allocations as before the split.
type dirNode struct {
	Node
	dirState
}

// Name reports the dentry name ("" for the root).
func (n *Node) Name() string {
	n.ns.rlock()
	defer n.ns.runlock()
	return n.name
}

// Ino reports the inode number.
func (n *Node) Ino() InodeID { return n.ino }

// Parent reports the containing directory (nil for the root).
func (n *Node) Parent() *Node {
	n.ns.rlock()
	defer n.ns.runlock()
	return n.parent
}

// IsDir reports whether the node is a directory.
func (n *Node) IsDir() bool { return n.dir != nil }

// IsRoot reports whether the node is the namespace root.
func (n *Node) IsRoot() bool {
	n.ns.rlock()
	defer n.ns.runlock()
	return n.parent == nil
}

// Path reconstructs the absolute path of the node. The result is memoised
// per node and invalidated wholesale on rename (the only operation that can
// move an attached node), so repeated calls — forward hints, bound sorting —
// cost one comparison.
func (n *Node) Path() string {
	n.ns.rlock()
	defer n.ns.runlock()
	return n.path()
}

// path is Path without the tree lock, for namespace-internal callers that
// already hold it (either side suffices: the memo is atomic and fills are
// idempotent per generation).
func (n *Node) path() string {
	if n.parent == nil {
		return "/"
	}
	if n.ns.hotCaches {
		if m := n.pathMemo.Load(); m != nil && m.gen == n.ns.pathGen {
			return m.p
		}
	}
	var parts []string
	for cur := n; cur.parent != nil; cur = cur.parent {
		parts = append(parts, cur.name)
	}
	size := 0
	for _, p := range parts {
		size += len(p) + 1
	}
	buf := make([]byte, 0, size)
	for i := len(parts) - 1; i >= 0; i-- {
		buf = append(buf, '/')
		buf = append(buf, parts[i]...)
	}
	p := string(buf)
	if n.ns.hotCaches {
		n.pathMemo.Store(&pathMemo{gen: n.ns.pathGen, p: p})
	}
	return p
}

// Depth reports the number of edges from the root.
func (n *Node) Depth() int {
	n.ns.rlock()
	defer n.ns.runlock()
	d := 0
	for cur := n; cur.parent != nil; cur = cur.parent {
		d++
	}
	return d
}

// NumChildren reports the number of dentries in the directory (0 for files).
func (n *Node) NumChildren() int {
	if n.dir == nil {
		return 0
	}
	return n.childLen()
}

// SubtreeNodes reports the number of nodes in the subtree, including n.
func (n *Node) SubtreeNodes() int {
	if n.dir == nil {
		return 1
	}
	return int(n.dir.subtreeNodes.Load())
}

// Lookup finds a child dentry by name.
func (n *Node) Lookup(name string) (*Node, bool) {
	if n.dir == nil {
		return nil, false
	}
	return n.childGet(name)
}

// ChildNames returns the dentry names in sorted order (deterministic
// iteration matters for reproducible simulation).
func (n *Node) ChildNames() []string {
	if n.dir == nil {
		return []string{}
	}
	n.childLock()
	out := make([]string, 0, len(n.dir.children))
	for name := range n.dir.children {
		out = append(out, name)
	}
	n.childUnlock()
	sort.Strings(out)
	return out
}

// Children calls fn for each child in sorted-name order; fn returning false
// stops the iteration. The name set is snapshotted first and each child
// re-looked-up, so fn runs with no lock held and may itself use locking
// accessors.
func (n *Node) Children(fn func(*Node) bool) {
	for _, name := range n.ChildNames() {
		c, ok := n.childGet(name)
		if !ok {
			continue
		}
		if !fn(c) {
			return
		}
	}
}

// HasSubdir reports whether any child is a directory, without the snapshot
// and sort that Children pays to visit them in order.
func (n *Node) HasSubdir() bool {
	if n.dir == nil {
		return false
	}
	n.childLock()
	defer n.childUnlock()
	return n.dir.subdirs > 0
}

// FragTree exposes the directory's fragment tree (nil for files). The
// returned pointer is unsynchronised; concurrent (sharded-mode) callers use
// NumFragLeaves/FragLeaves/FragOfName instead.
func (n *Node) FragTree() *FragTree {
	if n.dir == nil {
		return nil
	}
	return n.dir.fragtree
}

// NumFragLeaves reports how many leaf fragments the directory has.
func (n *Node) NumFragLeaves() int {
	n.ns.rlock()
	defer n.ns.runlock()
	return n.dir.fragtree.NumLeaves()
}

// FragLeaves returns the directory's leaf fragments (a copy).
func (n *Node) FragLeaves() []Frag {
	n.ns.rlock()
	defer n.ns.runlock()
	return n.dir.fragtree.Leaves()
}

// FragStateOf returns the live state for a leaf fragment.
func (n *Node) FragStateOf(f Frag) (*FragState, bool) {
	n.ns.rlock()
	defer n.ns.runlock()
	if n.dir == nil {
		return nil, false
	}
	fs, ok := n.dir.frags[f]
	return fs, ok
}

// FragOfName returns the leaf fragment holding the dentry name.
func (n *Node) FragOfName(name string) Frag {
	n.ns.rlock()
	defer n.ns.runlock()
	return n.dir.fragtree.LeafOfName(name)
}

// Counters exposes the directory's aggregate popularity counters (fresh zero
// ones for a file). Deferred RecordOp charges are folded in first so callers
// always observe the same values the eager ancestor walk would have produced.
// Sharded-mode callers must be quiesced: the returned pointer is only stable
// against concurrent flushes while nothing else is running.
func (n *Node) Counters() *Counters {
	n.ns.FlushCounters()
	if n.dir == nil {
		return &Counters{}
	}
	return &n.dir.counters
}

// Load reports the directory's counter snapshot at time now (zero for a
// file), folding in any deferred RecordOp charges first.
func (n *Node) Load(now sim.Time) CounterSnapshot {
	n.ns.wlock()
	defer n.ns.wunlock()
	n.ns.flushLocked()
	if n.dir == nil {
		return CounterSnapshot{}
	}
	return n.dir.counters.Snapshot(now)
}

// AuthOverride reports the explicit authority label on this directory
// (RankNone when authority is inherited).
func (n *Node) AuthOverride() Rank {
	n.ns.rlock()
	defer n.ns.runlock()
	if n.dir == nil {
		return RankNone
	}
	return n.dir.authOverride
}

// Frozen reports whether the directory subtree is mid-migration.
func (n *Node) Frozen() bool {
	n.ns.rlock()
	defer n.ns.runlock()
	return n.dir != nil && n.dir.frozen
}

// RankSpread reports how many distinct MDS ranks own live fragments of this
// directory (1 for an unfragmented or single-owner directory). Serving
// mutations in a directory spread over several ranks pays a coherence cost
// (fragstat scatter-gather), which is what makes over-distribution hurt in
// the paper's Figures 7 and 8.
func (n *Node) RankSpread() int {
	n.ns.rlock()
	defer n.ns.runlock()
	if n.dir == nil || n.dir.rankSpread < 1 {
		return 1
	}
	return n.dir.rankSpread
}
