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
	if fs.ns != nil {
		fs.ns.rlock()
		defer fs.ns.runlock()
	}
	return fs.auth
}

// Frozen reports whether the frag is mid-migration.
func (fs *FragState) Frozen() bool {
	if fs.ns != nil {
		fs.ns.rlock()
		defer fs.ns.runlock()
	}
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
type Node struct {
	name   string
	ino    InodeID
	parent *Node
	isDir  bool
	// subdirs counts the directories among children; guarded like the
	// children map. It sits in isDir's padding, so Node does not grow.
	subdirs int32
	ns      *Namespace // owning namespace, for flush hooks and cache generations

	// File state.
	Size int64

	// Directory state (nil maps for files). childMu guards the children
	// map in sharded mode (see shard.go); everything else structural is
	// protected by the tree lock.
	childMu  sync.Mutex
	children map[string]*Node
	fragtree *FragTree
	frags    map[Frag]*FragState
	counters Counters

	authOverride Rank
	frozen       bool
	subtreeNodes atomic.Int64 // nodes in this subtree, including self
	rankSpread   int          // distinct ranks owning this dir's live frags

	// pathMemo memoises Path(); valid while its gen matches the namespace
	// generation (bumped on rename). effMemo packs the memoised
	// EffectiveAuth rank with the authority generation it was computed
	// under (bumped on any label change). Both are written on read paths,
	// hence atomic.
	pathMemo atomic.Pointer[pathMemo]
	effMemo  atomic.Uint64
}

// Name reports the dentry name ("" for the root).
func (n *Node) Name() string {
	n.nsRLock()
	defer n.nsRUnlock()
	return n.name
}

// Ino reports the inode number.
func (n *Node) Ino() InodeID { return n.ino }

// Parent reports the containing directory (nil for the root).
func (n *Node) Parent() *Node {
	n.nsRLock()
	defer n.nsRUnlock()
	return n.parent
}

// IsDir reports whether the node is a directory.
func (n *Node) IsDir() bool { return n.isDir }

// IsRoot reports whether the node is the namespace root.
func (n *Node) IsRoot() bool {
	n.nsRLock()
	defer n.nsRUnlock()
	return n.parent == nil
}

func (n *Node) nsRLock() {
	if n.ns != nil {
		n.ns.rlock()
	}
}

func (n *Node) nsRUnlock() {
	if n.ns != nil {
		n.ns.runlock()
	}
}

// Path reconstructs the absolute path of the node. The result is memoised
// per node and invalidated wholesale on rename (the only operation that can
// move an attached node), so repeated calls — forward hints, bound sorting —
// cost one comparison.
func (n *Node) Path() string {
	n.nsRLock()
	defer n.nsRUnlock()
	return n.path()
}

// path is Path without the tree lock, for namespace-internal callers that
// already hold it (either side suffices: the memo is atomic and fills are
// idempotent per generation).
func (n *Node) path() string {
	if n.parent == nil {
		return "/"
	}
	if n.ns != nil && n.ns.hotCaches {
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
	if n.ns != nil && n.ns.hotCaches {
		n.pathMemo.Store(&pathMemo{gen: n.ns.pathGen, p: p})
	}
	return p
}

// Depth reports the number of edges from the root.
func (n *Node) Depth() int {
	n.nsRLock()
	defer n.nsRUnlock()
	d := 0
	for cur := n; cur.parent != nil; cur = cur.parent {
		d++
	}
	return d
}

// NumChildren reports the number of dentries in the directory (0 for files).
func (n *Node) NumChildren() int { return n.childLen() }

// SubtreeNodes reports the number of nodes in the subtree, including n.
func (n *Node) SubtreeNodes() int {
	if !n.isDir {
		return 1
	}
	return int(n.subtreeNodes.Load())
}

// Lookup finds a child dentry by name.
func (n *Node) Lookup(name string) (*Node, bool) {
	return n.childGet(name)
}

// ChildNames returns the dentry names in sorted order (deterministic
// iteration matters for reproducible simulation).
func (n *Node) ChildNames() []string {
	n.childLock()
	out := make([]string, 0, len(n.children))
	for name := range n.children {
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
	n.childLock()
	defer n.childUnlock()
	return n.subdirs > 0
}

// FragTree exposes the directory's fragment tree (nil for files). The
// returned pointer is unsynchronised; concurrent (sharded-mode) callers use
// NumFragLeaves/FragLeaves/FragOfName instead.
func (n *Node) FragTree() *FragTree { return n.fragtree }

// NumFragLeaves reports how many leaf fragments the directory has.
func (n *Node) NumFragLeaves() int {
	n.nsRLock()
	defer n.nsRUnlock()
	return n.fragtree.NumLeaves()
}

// FragLeaves returns the directory's leaf fragments (a copy).
func (n *Node) FragLeaves() []Frag {
	n.nsRLock()
	defer n.nsRUnlock()
	return n.fragtree.Leaves()
}

// FragStateOf returns the live state for a leaf fragment.
func (n *Node) FragStateOf(f Frag) (*FragState, bool) {
	n.nsRLock()
	defer n.nsRUnlock()
	fs, ok := n.frags[f]
	return fs, ok
}

// FragOfName returns the leaf fragment holding the dentry name.
func (n *Node) FragOfName(name string) Frag {
	n.nsRLock()
	defer n.nsRUnlock()
	return n.fragtree.LeafOfName(name)
}

// Counters exposes the directory's aggregate popularity counters. Deferred
// RecordOp charges are folded in first so callers always observe the same
// values the eager ancestor walk would have produced. Sharded-mode callers
// must be quiesced: the returned pointer is only stable against concurrent
// flushes while nothing else is running.
func (n *Node) Counters() *Counters {
	if n.ns != nil {
		n.ns.FlushCounters()
	}
	return &n.counters
}

// Load reports the directory's counter snapshot at time now, folding in any
// deferred RecordOp charges first.
func (n *Node) Load(now sim.Time) CounterSnapshot {
	if n.ns != nil {
		n.ns.wlock()
		defer n.ns.wunlock()
		n.ns.flushLocked()
	}
	return n.counters.Snapshot(now)
}

// AuthOverride reports the explicit authority label on this directory
// (RankNone when authority is inherited).
func (n *Node) AuthOverride() Rank {
	n.nsRLock()
	defer n.nsRUnlock()
	return n.authOverride
}

// Frozen reports whether the directory subtree is mid-migration.
func (n *Node) Frozen() bool {
	n.nsRLock()
	defer n.nsRUnlock()
	return n.frozen
}

// RankSpread reports how many distinct MDS ranks own live fragments of this
// directory (1 for an unfragmented or single-owner directory). Serving
// mutations in a directory spread over several ranks pays a coherence cost
// (fragstat scatter-gather), which is what makes over-distribution hurt in
// the paper's Figures 7 and 8.
func (n *Node) RankSpread() int {
	n.nsRLock()
	defer n.nsRUnlock()
	if !n.isDir || n.rankSpread < 1 {
		return 1
	}
	return n.rankSpread
}
