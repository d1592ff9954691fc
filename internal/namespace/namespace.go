package namespace

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"mantle/internal/sim"
)

// Errors returned by namespace operations. The MDS maps these onto request
// failures sent back to clients.
var (
	ErrExist      = errors.New("namespace: entry already exists")
	ErrNotExist   = errors.New("namespace: no such entry")
	ErrNotDir     = errors.New("namespace: not a directory")
	ErrIsDir      = errors.New("namespace: is a directory")
	ErrNotEmpty   = errors.New("namespace: directory not empty")
	ErrInvalidArg = errors.New("namespace: invalid argument")
)

// Namespace is the shared hierarchical tree. In the simulation there is one
// authoritative tree (the "collective memory of the MDS cluster"); per-MDS
// behaviour — who may serve what, forwards, freezes — is expressed through
// the authority labels and checked by the MDS package.
type Namespace struct {
	root     *Node
	nextIno  atomic.Uint64 // next InodeID; atomic for concurrent creates
	halfLife sim.Time
	count    atomic.Int64

	// overrides tracks every directory with an explicit authority label;
	// fragOverrides tracks fragments owned separately from their
	// directory. Together they enumerate all subtree bounds without
	// walking the tree.
	overrides     map[*Node]struct{}
	fragOverrides map[fragKey]struct{}

	// lazy gates the deferred RecordOp log (captured from
	// DisableLazyCounters at New time); the log itself lives per domain.
	lazy bool

	// hotCaches gates the per-op ancestor-walk memos (EffectiveAuth,
	// FrozenFor fast path, Path), captured from DisableHotPathCaches at
	// New time.
	hotCaches bool

	// sharded enables the concurrent ownership mode (see shard.go):
	// treeMu protects tree structure and authority state, def is the
	// default ownership domain (the only one in sim mode), domains are
	// the per-rank ones.
	sharded bool
	treeMu  sync.RWMutex
	def     *domain
	domains []*domain

	// resGen stales every domain's resolution cache wholesale on
	// rename/unlink/label changes.
	resGen atomic.Uint64

	// authGen versions cached EffectiveAuth values on directory nodes;
	// pathGen versions cached Path strings. Both start at 1 so node
	// zero values are always stale. Written only under the write lock in
	// sharded mode.
	authGen uint64
	pathGen uint64

	// frozenDirs/frozenFrags count live freezes so FrozenFor is O(1)
	// whenever no migration is in flight (the common case).
	frozenDirs  int
	frozenFrags int

	// bidx is the sorted subtree-bound index (see boundindex.go);
	// bidxDirty forces a rebuild on next read after structural changes
	// that incremental maintenance does not cover.
	bidx      []boundEntry
	bidxDirty bool

	// invalidate, when set, is called with the pre-mutation path of every
	// node a structural change (unlink, rename) detaches — the hook the
	// replica registry uses to drop read replicas of state whose path key
	// just died. Called with the namespace write lock held; the hook must
	// not re-enter the namespace.
	invalidate func(path string)
}

type fragKey struct {
	node *Node
	frag Frag
}

// New creates a namespace whose popularity counters decay with the given
// half-life. The root directory is created with authority rank 0, as a
// fresh CephFS cluster assigns the root subtree to mds.0.
func New(halfLife sim.Time) *Namespace {
	ns := &Namespace{
		halfLife:      halfLife,
		overrides:     map[*Node]struct{}{},
		fragOverrides: map[fragKey]struct{}{},
		lazy:          !DisableLazyCounters,
		hotCaches:     !DisableHotPathCaches,
		authGen:       1,
		pathGen:       1,
		bidxDirty:     true,
	}
	ns.def = ns.newDomain()
	ns.root = ns.newDirNode(nil, "")
	ns.root.dir.authOverride = 0
	ns.overrides[ns.root] = struct{}{}
	return ns
}

// SetInvalidateHook registers fn to observe structural detachments (see the
// invalidate field). Set once at cluster construction, before traffic.
func (ns *Namespace) SetInvalidateHook(fn func(path string)) { ns.invalidate = fn }

func (ns *Namespace) newDirNode(parent *Node, name string) *Node {
	dn := &dirNode{
		Node: Node{name: name, parent: parent, ns: ns, ino: InodeID(ns.nextIno.Add(1))},
		dirState: dirState{
			children:     map[string]*Node{},
			fragtree:     NewFragTree(),
			frags:        map[Frag]*FragState{},
			counters:     NewCounters(ns.halfLife),
			authOverride: RankNone,
			rankSpread:   1,
		},
	}
	dn.dir = &dn.dirState
	dn.subtreeNodes.Store(1)
	dn.frags[RootFrag] = &FragState{Frag: RootFrag, Counters: NewCounters(ns.halfLife), auth: RankNone, ns: ns}
	ns.count.Add(1)
	return &dn.Node
}

// fileSlabSize is the bump-allocation block for file nodes; 512 nodes per
// heap allocation keeps blocks at 32 KiB.
const fileSlabSize = 512

func (ns *Namespace) newFileNode(d *domain, parent *Node, name string) *Node {
	if len(d.fileSlab) == 0 {
		d.fileSlab = make([]Node, fileSlabSize)
	}
	n := &d.fileSlab[0]
	d.fileSlab = d.fileSlab[1:]
	n.name = name
	n.ino = InodeID(ns.nextIno.Add(1))
	n.parent = parent
	n.ns = ns
	ns.count.Add(1)
	return n
}

// Root returns the root directory.
func (ns *Namespace) Root() *Node { return ns.root }

// NumNodes reports the total number of nodes in the tree.
func (ns *Namespace) NumNodes() int { return int(ns.count.Load()) }

// HalfLife reports the popularity-counter half-life.
func (ns *Namespace) HalfLife() sim.Time { return ns.halfLife }

// SplitPath breaks an absolute path into components. "/" yields nil.
func SplitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: path %q is not absolute", ErrInvalidArg, path)
	}
	trimmed := strings.Trim(path, "/")
	if trimmed == "" {
		return nil, nil
	}
	parts := strings.Split(trimmed, "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, fmt.Errorf("%w: path %q contains %q", ErrInvalidArg, path, p)
		}
	}
	return parts, nil
}

// Resolve walks an absolute path to its node. Steady-state lookups are
// answered by the resolution cache (see rescache.go); misses and every
// failure take the original component walk so error values are unchanged.
func (ns *Namespace) Resolve(path string) (*Node, error) {
	ns.rlock()
	defer ns.runlock()
	return ns.resolveIn(ns.def, path)
}

func (ns *Namespace) resolveIn(d *domain, path string) (*Node, error) {
	if n := ns.cacheResolve(d, path); n != nil {
		return n, nil
	}
	parts, err := SplitPath(path)
	if err != nil {
		return nil, err
	}
	cur := ns.root
	for _, p := range parts {
		if !cur.IsDir() {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, cur.path())
		}
		next, ok := cur.childGet(p)
		if !ok {
			return nil, fmt.Errorf("%w: %s/%s", ErrNotExist, cur.path(), p)
		}
		cur = next
	}
	ns.cachePut(d, path, cur)
	return cur, nil
}

// ResolveDirOf resolves the parent directory of path and returns it together
// with the final path component. The directory prefix is answered from the
// resolution cache when possible — a create storm of distinct names in one
// directory costs one map lookup per create after the first — and populated
// on the slow path.
func (ns *Namespace) ResolveDirOf(path string) (*Node, string, error) {
	ns.rlock()
	defer ns.runlock()
	return ns.resolveDirOfIn(ns.def, path)
}

func (ns *Namespace) resolveDirOfIn(d *domain, path string) (*Node, string, error) {
	if dir, name, ok := ns.cacheResolveDir(d, path); ok {
		return dir, name, nil
	}
	parts, err := SplitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("%w: cannot take parent of root", ErrInvalidArg)
	}
	cur := ns.root
	for _, p := range parts[:len(parts)-1] {
		next, ok := cur.childGet(p)
		if !ok {
			return nil, "", fmt.Errorf("%w: %s/%s", ErrNotExist, cur.path(), p)
		}
		if !next.IsDir() {
			return nil, "", fmt.Errorf("%w: %s", ErrNotDir, next.path())
		}
		cur = next
	}
	if prefix, _, ok := splitLast(path); ok && prefix != "" {
		ns.cachePut(d, prefix, cur)
	}
	return cur, parts[len(parts)-1], nil
}

func (ns *Namespace) attach(parent *Node, n *Node) {
	parent.childPut(n)
	frag := parent.dir.fragtree.LeafOfName(n.name)
	parent.dir.frags[frag].Entries++
	size := n.SubtreeNodes()
	for cur := parent; cur != nil; cur = cur.parent {
		cur.dir.subtreeNodes.Add(int64(size))
	}
}

func (ns *Namespace) detach(parent *Node, n *Node) {
	parent.childDel(n)
	frag := parent.dir.fragtree.LeafOfName(n.name)
	parent.dir.frags[frag].Entries--
	size := n.SubtreeNodes()
	for cur := parent; cur != nil; cur = cur.parent {
		cur.dir.subtreeNodes.Add(int64(-size))
	}
}

// Create adds a new file or directory dentry under parent.
func (ns *Namespace) Create(parent *Node, name string, isDir bool) (*Node, error) {
	ns.rlock()
	defer ns.runlock()
	return ns.createIn(ns.def, parent, name, isDir)
}

func (ns *Namespace) createIn(d *domain, parent *Node, name string, isDir bool) (*Node, error) {
	if parent == nil || !parent.IsDir() {
		return nil, ErrNotDir
	}
	if name == "" || strings.Contains(name, "/") {
		return nil, fmt.Errorf("%w: bad name %q", ErrInvalidArg, name)
	}
	if _, dup := parent.childGet(name); dup {
		return nil, fmt.Errorf("%w: %s/%s", ErrExist, parent.path(), name)
	}
	var n *Node
	if isDir {
		n = ns.newDirNode(parent, name)
	} else {
		n = ns.newFileNode(d, parent, name)
	}
	ns.attach(parent, n)
	return n, nil
}

// CreatePath creates every missing directory along path and returns the
// final node, creating it as a directory if isDir or as a file otherwise.
func (ns *Namespace) CreatePath(path string, isDir bool) (*Node, error) {
	ns.rlock()
	defer ns.runlock()
	parts, err := SplitPath(path)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return ns.root, nil
	}
	cur := ns.root
	for i, p := range parts {
		last := i == len(parts)-1
		next, ok := cur.childGet(p)
		if ok {
			if !next.IsDir() && !(last && !isDir) {
				return nil, fmt.Errorf("%w: %s", ErrNotDir, next.path())
			}
			if last {
				return next, nil
			}
			cur = next
			continue
		}
		wantDir := true
		if last {
			wantDir = isDir
		}
		next, err = ns.createIn(ns.def, cur, p, wantDir)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// Remove unlinks the named dentry. Directories must be empty.
func (ns *Namespace) Remove(parent *Node, name string) error {
	ns.wlock()
	defer ns.wunlock()
	if parent == nil || !parent.IsDir() {
		return ErrNotDir
	}
	n, ok := parent.dir.children[name]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotExist, parent.path(), name)
	}
	if n.IsDir() && len(n.dir.children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, n.path())
	}
	if ns.invalidate != nil && n.IsDir() {
		ns.invalidate(n.path())
	}
	// Fold deferred counter charges while n's ancestor chain is intact;
	// replaying a hit on a detached node would drop its ancestors' share.
	ns.flushLocked()
	ns.clearSubtreeOverrides(n)
	if n.IsDir() {
		if n.dir.frozen {
			ns.frozenDirs--
		}
		for _, fs := range n.dir.frags {
			if fs.frozen {
				ns.frozenFrags--
			}
		}
		// The detached node must not keep serving memoised authority
		// (or, below, path) state from its old location.
		n.dir.effMemo.Store(0)
	}
	ns.detach(parent, n)
	n.parent = nil
	n.pathMemo.Store(nil)
	ns.count.Add(int64(-n.SubtreeNodes()))
	ns.invalidateResolves()
	return nil
}

// Rename moves srcName in srcDir to dstName in dstDir. Renaming onto an
// existing dentry fails (the MDS layer may unlink first). Renaming a
// directory into its own subtree fails.
func (ns *Namespace) Rename(srcDir *Node, srcName string, dstDir *Node, dstName string) error {
	ns.wlock()
	defer ns.wunlock()
	if srcDir == nil || !srcDir.IsDir() || dstDir == nil || !dstDir.IsDir() {
		return ErrNotDir
	}
	n, ok := srcDir.dir.children[srcName]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotExist, srcDir.path(), srcName)
	}
	if _, dup := dstDir.dir.children[dstName]; dup {
		return fmt.Errorf("%w: %s/%s", ErrExist, dstDir.path(), dstName)
	}
	if n.IsDir() {
		for cur := dstDir; cur != nil; cur = cur.parent {
			if cur == n {
				return fmt.Errorf("%w: rename into own subtree", ErrInvalidArg)
			}
		}
	}
	if ns.invalidate != nil && n.IsDir() {
		// The subtree's path keys die with the move; replicas indexed by
		// the old paths must not survive it.
		ns.invalidate(n.path())
	}
	// Fold deferred counter charges before the parent chain changes:
	// hits logged under the old location must replay up the old chain.
	ns.flushLocked()
	ns.detach(srcDir, n)
	n.name = dstName
	n.parent = dstDir
	ns.attach(dstDir, n)
	ns.invalidateResolves()
	ns.pathGen++
	if n.IsDir() {
		// A moved directory subtree inherits authority from its new
		// parent chain, and any bounds inside it change path keys.
		ns.authGen++
		ns.bidxDirty = true
	}
	return nil
}

// Walk visits n and every descendant in deterministic (sorted-child) order.
// fn returning false prunes the subtree below that node. Walk takes no tree
// lock itself (quiesced callers — tests, sim experiments — do not need one);
// the per-directory accessors it uses are childMu-safe.
func Walk(n *Node, fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	if !n.IsDir() {
		return
	}
	for _, name := range n.ChildNames() {
		if c, ok := n.childGet(name); ok {
			Walk(c, fn)
		}
	}
}

// RecordOp charges one operation of kind k against the dentry name in dir,
// updating the containing fragment's counters, the directory's counters, and
// every ancestor's counters (CephFS updates a directory "whenever a
// namespace operation hits that directory or any of its children"). Pass an
// empty name for whole-directory operations (readdir).
func (ns *Namespace) RecordOp(dir *Node, name string, k OpKind, now sim.Time) {
	ns.rlock()
	ns.recordOpIn(ns.def, dir, name, k, now)
	ns.runlock()
}

// chargeFrags charges one op of kind k against the dirfrag holding name (or
// every leaf frag for whole-directory ops, so fragmented directories
// attribute readdir load to all partitions). Callers must hold whichever
// lock makes the write safe: the auth rank's actor under the read lock
// (single writer per frag), or the deferred-log fold under the write lock.
func (dir *Node) chargeFrags(name string, k OpKind, now sim.Time) {
	ds := dir.dir
	if name != "" {
		frag := ds.fragtree.LeafOfName(name)
		fs := ds.frags[frag]
		fs.Counters.Hit(k, now)
		fs.LastAccess = now
		return
	}
	for _, f := range ds.fragtree.leaves {
		fs := ds.frags[f]
		fs.Counters.Hit(k, now)
		fs.LastAccess = now
	}
}

// recordOpIn charges the frag counters inline (single-writer per frag: only
// the owning rank's actor serves ops on it) and defers the ancestor walk
// into the domain's log.
func (ns *Namespace) recordOpIn(d *domain, dir *Node, name string, k OpKind, now sim.Time) {
	if dir == nil || !dir.IsDir() {
		return
	}
	dir.chargeFrags(name, k, now)
	if ns.lazy {
		// Defer the ancestor walk: one append now, the identical
		// sequence of Hit calls replayed in arrival order at the next
		// counter read (see oplog.go).
		d.pendingHits = append(d.pendingHits, hitRec{dir: dir, kind: k, at: now})
		return
	}
	for cur := dir; cur != nil; cur = cur.parent {
		cur.dir.counters.Hit(k, now)
	}
}

// SplitDir fragments one leaf frag of dir into 2^bits children, dividing the
// parent frag's entries and heat among them according to the actual dentry
// rebucketing. Returns the new frags.
func (ns *Namespace) SplitDir(dir *Node, leaf Frag, bits uint8, now sim.Time) []Frag {
	ns.wlock()
	defer ns.wunlock()
	if !dir.IsDir() {
		panic("namespace: SplitDir on file")
	}
	ds := dir.dir
	old := ds.frags[leaf]
	kids := ds.fragtree.SplitLeaf(leaf, bits)
	perKid := make(map[Frag]int, len(kids))
	for name := range ds.children {
		h := HashName(name)
		if !leaf.Contains(h) {
			continue
		}
		for _, kf := range kids {
			if kf.Contains(h) {
				perKid[kf]++
				break
			}
		}
	}
	oldSnap := old.Counters.Snapshot(now)
	total := old.Entries
	for _, kf := range kids {
		fs := &FragState{Frag: kf, Counters: NewCounters(ns.halfLife), auth: old.auth, Entries: perKid[kf], ns: ns}
		// Seed the child's heat proportionally to the entries it
		// inherited so the balancer does not see a fragmented hot
		// directory as suddenly cold.
		if total > 0 {
			share := float64(perKid[kf]) / float64(total)
			fs.Counters.Seed(oldSnap.Scale(share), now)
		}
		ds.frags[kf] = fs
	}
	if old.auth != RankNone {
		delete(ns.fragOverrides, fragKey{dir, leaf})
		for _, kf := range kids {
			ns.fragOverrides[fragKey{dir, kf}] = struct{}{}
		}
		// The bound set changed shape (one frag bound became 2^bits);
		// rebuild the index lazily and stale cached authority, which
		// may have been derived through the replaced leaf.
		ns.bidxDirty = true
		ns.authGen++
	}
	if old.frozen {
		ns.frozenFrags--
	}
	delete(ds.frags, leaf)
	ns.recomputeSpread(dir)
	return kids
}

// MergeDir coalesces the 2^bits children of parent back into one fragment
// (the shrink direction of fragmentation). All children must currently be
// leaves, unfrozen, and owned by the same rank; their entries and heat are
// combined. Reports whether the merge happened.
func (ns *Namespace) MergeDir(dir *Node, parent Frag, bits uint8, now sim.Time) bool {
	ns.wlock()
	defer ns.wunlock()
	if !dir.IsDir() || bits == 0 {
		return false
	}
	ds := dir.dir
	kids := parent.Split(bits)
	states := make([]*FragState, 0, len(kids))
	auth := RankNone
	for i, k := range kids {
		fs, ok := ds.frags[k]
		if !ok || fs.frozen {
			return false
		}
		if i == 0 {
			auth = fs.auth
		} else if fs.auth != auth {
			return false
		}
		states = append(states, fs)
	}
	if !ds.fragtree.Merge(parent, bits) {
		return false
	}
	merged := &FragState{Frag: parent, Counters: NewCounters(ns.halfLife), auth: RankNone, ns: ns}
	var heat CounterSnapshot
	for i, k := range kids {
		merged.Entries += states[i].Entries
		heat = heat.Add(states[i].Counters.Snapshot(now))
		delete(ds.frags, k)
		delete(ns.fragOverrides, fragKey{dir, k})
	}
	merged.Counters.Seed(heat, now)
	ds.frags[parent] = merged
	if auth != RankNone {
		// The kids' frag bounds were deleted above without index
		// updates; rebuild lazily (SetFragAuth below re-adds the
		// merged bound through the normal path).
		ns.bidxDirty = true
		ns.authGen++
		ns.setFragAuthLocked(dir, parent, auth)
	} else {
		ns.recomputeSpread(dir)
	}
	return true
}
