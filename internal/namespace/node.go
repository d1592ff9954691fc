package namespace

import (
	"sort"
	"sync"
	"sync/atomic"

	"mantle/internal/sim"
)

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
	ns       *Namespace // the only pointer, first: the collector scans one word
	Frag     Frag
	Entries  int
	Counters Counters
	// LastAccess is when a namespace operation last touched the frag;
	// the MDS cache model uses it to decide whether serving the frag
	// needs a fetch from the object store.
	LastAccess sim.Time
	auth       Rank
	frozen     bool
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
// Files are > 95 % of nodes, so Node holds only what a file uses — 32 bytes:
// a name and two pointer words — and everything directory-only sits behind
// dir. A node carries no inode number: nothing reads one, and a namespace
// counter bumped by every create would be one cache line all live ranks
// write. The field is named, not embedded, so every access to directory
// state shows its nil-for-files deref. A file reaches its namespace through
// its parent (see nsOf); a removed file has no parent and so no namespace,
// and its accessors answer without a lock.
type Node struct {
	name string
	// parent is written only under the write lock, but a file loads it
	// with no lock held to find the namespace whose lock it then takes,
	// hence atomic.
	parent atomic.Pointer[Node]
	dir    *dirState // nil for files
}

// dirState is the directory half of a node, pointer words first. childMu
// guards the children table in sharded mode (see shard.go); everything else
// structural is protected by the tree lock.
type dirState struct {
	ns       *Namespace // owning namespace: locks, flush hooks, cache generations
	children childTable
	// frags holds the live state of each fragtree leaf, in leaf order
	// (frags[i].Frag == fragtree.leaves[i]): an unfragmented directory
	// holds one pointer, and a lookup is a scan of a few leaves.
	frags    []*FragState
	fragtree *FragTree
	// pathMemo memoises Path(); valid while its gen matches the namespace
	// generation (bumped on rename). Written on read paths, hence atomic.
	pathMemo atomic.Pointer[pathMemo]
	counters Counters
	childMu  sync.Mutex

	authOverride Rank
	subtreeNodes atomic.Int64 // nodes in this subtree, including self

	// effMemo packs the memoised EffectiveAuth rank with the authority
	// generation it was computed under (bumped on any label change).
	// Written on read paths, hence atomic.
	effMemo atomic.Uint64

	rankSpread int32 // distinct ranks owning this dir's live frags
	frozen     bool
}

// dirNode lays a directory's two halves out in one object, so creating a
// directory costs the same allocations as before the split.
type dirNode struct {
	Node
	dirState
}

// nsOf returns the namespace n belongs to: a directory carries it, a file
// reaches it through its parent. A removed file has no parent and gets nil,
// whose lock helpers lock nothing: nothing else can reach the file to
// change it.
func (n *Node) nsOf() *Namespace {
	if n.dir != nil {
		return n.dir.ns
	}
	if p := n.parent.Load(); p != nil {
		return p.dir.ns
	}
	return nil
}

// Name reports the dentry name ("" for the root).
func (n *Node) Name() string {
	ns := n.nsOf()
	ns.rlock()
	defer ns.runlock()
	return n.name
}

// Parent reports the containing directory (nil for the root).
func (n *Node) Parent() *Node {
	ns := n.nsOf()
	ns.rlock()
	defer ns.runlock()
	return n.parent.Load()
}

// IsDir reports whether the node is a directory.
func (n *Node) IsDir() bool { return n.dir != nil }

// IsRoot reports whether the node is the namespace root.
func (n *Node) IsRoot() bool {
	ns := n.nsOf()
	ns.rlock()
	defer ns.runlock()
	return n.parent.Load() == nil
}

// Path reconstructs the absolute path of the node. A directory's result is
// memoised and invalidated wholesale on rename (the only operation that can
// move an attached node), so repeated calls — forward hints, bound sorting —
// cost one comparison; a file's is its parent's plus its name.
func (n *Node) Path() string {
	ns := n.nsOf()
	ns.rlock()
	defer ns.runlock()
	return n.path()
}

// path is Path without the tree lock, for namespace-internal callers that
// already hold it (either side suffices: the memo is atomic and fills are
// idempotent per generation).
func (n *Node) path() string {
	parent := n.parent.Load()
	if parent == nil {
		return "/"
	}
	if n.dir == nil {
		return joinPath(parent.path(), n.name)
	}
	ns := n.dir.ns
	if m := n.dir.pathMemo.Load(); m != nil && m.gen == ns.pathGen {
		return m.p
	}
	var parts []string
	for cur := n; cur.parent.Load() != nil; cur = cur.parent.Load() {
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
	n.dir.pathMemo.Store(&pathMemo{gen: ns.pathGen, p: p})
	return p
}

// joinPath appends name to the directory path dir.
func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// Depth reports the number of edges from the root.
func (n *Node) Depth() int {
	ns := n.nsOf()
	ns.rlock()
	defer ns.runlock()
	d := 0
	for cur := n.parent.Load(); cur != nil; cur = cur.parent.Load() {
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
	out := make([]string, 0, n.dir.children.n)
	n.dir.children.each(func(c *Node, _ uint32) { out = append(out, c.name) })
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
	return n.dir.children.subdirs > 0
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
	n.dir.ns.rlock()
	defer n.dir.ns.runlock()
	return n.dir.fragtree.NumLeaves()
}

// FragLeaves returns the directory's leaf fragments (a copy).
func (n *Node) FragLeaves() []Frag {
	n.dir.ns.rlock()
	defer n.dir.ns.runlock()
	return n.dir.fragtree.Leaves()
}

// FragStateOf returns the live state for a leaf fragment.
func (n *Node) FragStateOf(f Frag) (*FragState, bool) {
	if n.dir == nil {
		return nil, false
	}
	n.dir.ns.rlock()
	defer n.dir.ns.runlock()
	fs := n.dir.fragState(f)
	return fs, fs != nil
}

// FragOfName returns the leaf fragment holding the dentry name.
func (n *Node) FragOfName(name string) Frag {
	n.dir.ns.rlock()
	defer n.dir.ns.runlock()
	return n.dir.fragtree.LeafOfName(name)
}

// Counters exposes the directory's aggregate popularity counters (fresh zero
// ones for a file). Deferred RecordOp charges are folded in first so callers
// always observe the same values the eager ancestor walk would have produced.
// Sharded-mode callers must be quiesced: the returned pointer is only stable
// against concurrent flushes while nothing else is running.
func (n *Node) Counters() *Counters {
	if ns := n.nsOf(); ns != nil {
		ns.FlushCounters()
	}
	if n.dir == nil {
		return &Counters{}
	}
	return &n.dir.counters
}

// Load reports the directory's counter snapshot at time now (zero for a
// file), folding in any deferred RecordOp charges first.
func (n *Node) Load(now sim.Time) CounterSnapshot {
	ns := n.nsOf()
	if ns == nil {
		return CounterSnapshot{}
	}
	ns.wlock()
	defer ns.wunlock()
	ns.flushLocked()
	if n.dir == nil {
		return CounterSnapshot{}
	}
	return n.dir.counters.Snapshot(now)
}

// LoadUnit names one set of counters for Loads: a directory's aggregate, or
// with IsFrag one leaf fragment's measure — its own counters plus the
// subtrees of the subdirectories it holds, everything that moves with it.
// Snap and OK are Loads' answer.
type LoadUnit struct {
	Dir    *Node
	Frag   Frag
	IsFrag bool

	Snap CounterSnapshot // the counters at now; zero for a file
	OK   bool            // false for a file, or a frag that is no longer a leaf
}

// Loads snapshots every unit's counters at now, in unit order, under one
// write-lock hold after one flush. Control-plane scans read their snapshots
// here rather than locking once per unit; a fragment's counters in
// particular take remote charges from the flush, so they are only read
// under the write lock.
func (ns *Namespace) Loads(now sim.Time, units []LoadUnit) {
	ns.wlock()
	defer ns.wunlock()
	ns.flushLocked()
	for i := range units {
		u := &units[i]
		u.Snap, u.OK = CounterSnapshot{}, false
		switch d := u.Dir.dir; {
		case d == nil:
		case u.IsFrag:
			if fs := d.fragState(u.Frag); fs != nil {
				u.Snap, u.OK = fragLoad(u.Dir, fs, now), true
			}
		default:
			u.Snap, u.OK = d.counters.Snapshot(now), true
		}
	}
}

// AuthOverride reports the explicit authority label on this directory
// (RankNone when authority is inherited).
func (n *Node) AuthOverride() Rank {
	if n.dir == nil {
		return RankNone
	}
	n.dir.ns.rlock()
	defer n.dir.ns.runlock()
	return n.dir.authOverride
}

// Frozen reports whether the directory subtree is mid-migration.
func (n *Node) Frozen() bool {
	if n.dir == nil {
		return false
	}
	n.dir.ns.rlock()
	defer n.dir.ns.runlock()
	return n.dir.frozen
}

// RankSpread reports how many distinct MDS ranks own live fragments of this
// directory (1 for an unfragmented or single-owner directory). Serving
// mutations in a directory spread over several ranks pays a coherence cost
// (fragstat scatter-gather), which is what makes over-distribution hurt in
// the paper's Figures 7 and 8.
func (n *Node) RankSpread() int {
	if n.dir == nil {
		return 1
	}
	n.dir.ns.rlock()
	defer n.dir.ns.runlock()
	if n.dir.rankSpread < 1 {
		return 1
	}
	return int(n.dir.rankSpread)
}

// fragOf returns the state of the leaf fragment holding hash h.
func (ds *dirState) fragOf(h uint32) *FragState { return ds.frags[ds.fragtree.leafIndex(h)] }

// fragIndex returns the position of leaf f in frags, or -1 if f is not a
// current leaf.
func (ds *dirState) fragIndex(f Frag) int {
	for i, l := range ds.fragtree.leaves {
		if l == f {
			return i
		}
	}
	return -1
}

// fragState returns the state of leaf f, or nil if f is not a current leaf.
func (ds *dirState) fragState(f Frag) *FragState {
	if i := ds.fragIndex(f); i >= 0 {
		return ds.frags[i]
	}
	return nil
}
