package namespace

import (
	"errors"
	"fmt"
	"slices"
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
	halfLife sim.Time
	count    atomic.Int64

	// overrides tracks every directory with an explicit authority label;
	// fragOverrides tracks fragments owned separately from their
	// directory. Together they enumerate all subtree bounds without
	// walking the tree.
	overrides     map[*Node]struct{}
	fragOverrides map[fragKey]struct{}

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
		authGen:       1,
		pathGen:       1,
		bidxDirty:     true,
	}
	ns.def = newDomain()
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
		Node: Node{name: name},
		dirState: dirState{
			ns:           ns,
			frags:        []*FragState{{Frag: RootFrag, Counters: NewCounters(ns.halfLife), auth: RankNone, ns: ns}},
			fragtree:     NewFragTree(),
			counters:     NewCounters(ns.halfLife),
			authOverride: RankNone,
			rankSpread:   1,
		},
	}
	dn.dir = &dn.dirState
	dn.parent.Store(parent)
	dn.subtreeNodes.Store(1)
	ns.count.Add(1)
	return &dn.Node
}

// fileSlabSize is the bump-allocation block for file nodes; 512 nodes per
// heap allocation keeps blocks at 16 KiB.
const fileSlabSize = 512

func (ns *Namespace) newFileNode(d *domain, parent *Node, name string) *Node {
	if len(d.fileSlab) == 0 {
		d.fileSlab = make([]Node, fileSlabSize)
	}
	n := &d.fileSlab[0]
	d.fileSlab = d.fileSlab[1:]
	n.name = name
	n.parent.Store(parent)
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
	trimmed, err := trimPath(path)
	if err != nil || trimmed == "" {
		return nil, err
	}
	return strings.Split(trimmed, "/"), nil
}

// trimPath validates path by SplitPath's rules and returns its components
// still joined by single slashes ("" for the root), so a walk can take them
// one strings.Cut at a time without splitting the path.
func trimPath(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", fmt.Errorf("%w: path %q is not absolute", ErrInvalidArg, path)
	}
	trimmed := strings.Trim(path, "/")
	for rest, more := trimmed, trimmed != ""; more; {
		var p string
		p, rest, more = strings.Cut(rest, "/")
		if p == "" || p == "." || p == ".." {
			return "", fmt.Errorf("%w: path %q contains %q", ErrInvalidArg, path, p)
		}
	}
	return trimmed, nil
}

// Resolve walks an absolute path to its node. Steady-state lookups are
// answered by the directory cache plus one probe (see rescache.go); misses
// and every failure walk the path component by component, in place, and
// report SplitPath's validation errors before any lookup error.
func (ns *Namespace) Resolve(path string) (*Node, error) {
	ns.rlock()
	defer ns.runlock()
	return ns.resolveIn(ns.def, path)
}

func (ns *Namespace) resolveIn(d *domain, path string) (*Node, error) {
	if n := ns.cacheResolve(d, path); n != nil {
		return n, nil
	}
	rest, err := trimPath(path)
	if err != nil {
		return nil, err
	}
	var parent *Node
	cur := ns.root
	for more := rest != ""; more; {
		var p string
		p, rest, more = strings.Cut(rest, "/")
		if !cur.IsDir() {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, cur.path())
		}
		next, ok := cur.childGet(p)
		if !ok {
			return nil, fmt.Errorf("%w: %s/%s", ErrNotExist, cur.path(), p)
		}
		parent, cur = cur, next
	}
	ns.cacheWalked(d, path, parent, cur)
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
	rest, err := trimPath(path)
	if err != nil {
		return nil, "", err
	}
	if rest == "" {
		return nil, "", fmt.Errorf("%w: cannot take parent of root", ErrInvalidArg)
	}
	cur := ns.root
	for {
		p, tail, more := strings.Cut(rest, "/")
		if !more {
			break // p is the final component
		}
		next, ok := cur.childGet(p)
		if !ok {
			return nil, "", fmt.Errorf("%w: %s/%s", ErrNotExist, cur.path(), p)
		}
		if !next.IsDir() {
			return nil, "", fmt.Errorf("%w: %s", ErrNotDir, next.path())
		}
		cur, rest = next, tail
	}
	ns.cacheWalked(d, path, cur, nil)
	return cur, rest, nil
}

// attach links n under parent; h is HashName(n.name).
func (ns *Namespace) attach(parent *Node, n *Node, h uint32) {
	parent.childPut(n, h)
	parent.dir.fragOf(h).Entries++
	size := n.SubtreeNodes()
	for cur := parent; cur != nil; cur = cur.parent.Load() {
		cur.dir.subtreeNodes.Add(int64(size))
	}
}

func (ns *Namespace) detach(parent *Node, n *Node) {
	h := HashName(n.name)
	parent.childDel(n, h)
	parent.dir.fragOf(h).Entries--
	size := n.SubtreeNodes()
	for cur := parent; cur != nil; cur = cur.parent.Load() {
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
	h := HashName(name)
	if _, dup := parent.childGetHashed(name, h); dup {
		return nil, fmt.Errorf("%w: %s/%s", ErrExist, parent.path(), name)
	}
	var n *Node
	if isDir {
		n = ns.newDirNode(parent, name)
	} else {
		n = ns.newFileNode(d, parent, name)
	}
	ns.attach(parent, n, h)
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
	n := parent.dir.children.get(name, HashName(name))
	if n == nil {
		return fmt.Errorf("%w: %s/%s", ErrNotExist, parent.path(), name)
	}
	if n.IsDir() && n.dir.children.n > 0 {
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
	n.parent.Store(nil)
	if n.IsDir() {
		n.dir.pathMemo.Store(nil)
	}
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
	n := srcDir.dir.children.get(srcName, HashName(srcName))
	if n == nil {
		return fmt.Errorf("%w: %s/%s", ErrNotExist, srcDir.path(), srcName)
	}
	dstHash := HashName(dstName)
	if dstDir.dir.children.get(dstName, dstHash) != nil {
		return fmt.Errorf("%w: %s/%s", ErrExist, dstDir.path(), dstName)
	}
	if n.IsDir() {
		for cur := dstDir; cur != nil; cur = cur.parent.Load() {
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
	n.parent.Store(dstDir)
	ns.attach(dstDir, n, dstHash)
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
	ns.recordOpIn(ns.def, dir, name, k, now, false)
}

// chargeFrags charges one op of kind k against the dirfrag holding name (or
// every leaf frag for whole-directory ops, so fragmented directories
// attribute readdir load to all partitions). Callers must hold whichever
// lock makes the write safe: the auth rank's actor under the read lock
// (single writer per frag), or the deferred-log fold under the write lock.
func (dir *Node) chargeFrags(name string, k OpKind, now sim.Time) {
	ds := dir.dir
	if name != "" {
		fs := ds.fragOf(HashName(name))
		fs.Counters.Hit(k, now)
		fs.LastAccess = now
		return
	}
	for _, fs := range ds.frags {
		fs.Counters.Hit(k, now)
		fs.LastAccess = now
	}
}

// recordOpIn charges the frag counters inline (single-writer per frag: only
// the owning rank's actor serves ops on it) and defers the ancestor walk
// into the domain's log: one append now, the identical sequence of Hit
// calls replayed in arrival order at the next counter read (see oplog.go).
// A remote charge (View.RecordOpRemote) defers the frag hit into the log
// too. It appends under the read lock; a log that has reached
// maxPendingHits is then folded under the write lock, taken after the read
// lock is dropped, so the lock order stays shard → ns. In sharded mode a
// rank's own ops are the only appends to its domain, but a counter read may
// fold the log in between, which only leaves less to fold.
func (ns *Namespace) recordOpIn(d *domain, dir *Node, name string, k OpKind, now sim.Time, remote bool) {
	if dir == nil || !dir.IsDir() {
		return
	}
	ns.rlock()
	r := hitRec{dir: dir, kind: k, at: now}
	if remote {
		r.name, r.frag = name, true
	} else {
		dir.chargeFrags(name, k, now)
	}
	d.pendingHits = append(d.pendingHits, r)
	full := len(d.pendingHits) >= maxPendingHits
	ns.runlock()
	if full {
		ns.wlock()
		d.flush()
		ns.wunlock()
	}
}

// SplitDir fragments one leaf frag of dir into 2^bits children, dividing the
// parent frag's entries and heat among them according to the actual dentry
// rebucketing (from the hashes the children table stores). Returns the new
// frags.
func (ns *Namespace) SplitDir(dir *Node, leaf Frag, bits uint8, now sim.Time) []Frag {
	ns.wlock()
	defer ns.wunlock()
	if !dir.IsDir() {
		panic("namespace: SplitDir on file")
	}
	ds := dir.dir
	at := ds.fragIndex(leaf)
	kids := ds.fragtree.SplitLeaf(leaf, bits)
	old := ds.frags[at]
	// The kids of a leaf partition its range in order, so a hash's kid
	// is its next bits bits below the leaf's prefix.
	perKid := make([]int, len(kids))
	ds.children.each(func(_ *Node, h uint32) {
		if leaf.Contains(h) {
			perKid[h<<leaf.Bits>>(32-bits)]++
		}
	})
	oldSnap := old.Counters.Snapshot(now)
	total := old.Entries
	states := make([]*FragState, len(kids))
	for i, kf := range kids {
		fs := &FragState{Frag: kf, Counters: NewCounters(ns.halfLife), auth: old.auth, Entries: perKid[i], ns: ns}
		// Seed the child's heat proportionally to the entries it
		// inherited so the balancer does not see a fragmented hot
		// directory as suddenly cold.
		if total > 0 {
			share := float64(perKid[i]) / float64(total)
			fs.Counters.Seed(oldSnap.Scale(share), now)
		}
		states[i] = fs
	}
	ds.frags = slices.Replace(ds.frags, at, at+1, states...)
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
	// Leaves stay in hash order and a split replaces its leaf in place, so
	// the kids, when all are leaves, sit together starting at kids[0].
	at := ds.fragIndex(kids[0])
	if at < 0 || at+len(kids) > len(ds.frags) {
		return false
	}
	states := ds.frags[at : at+len(kids)]
	auth := RankNone
	for i, k := range kids {
		fs := states[i]
		if fs.Frag != k || fs.frozen {
			return false
		}
		if i == 0 {
			auth = fs.auth
		} else if fs.auth != auth {
			return false
		}
	}
	if !ds.fragtree.Merge(parent, bits) {
		return false
	}
	merged := &FragState{Frag: parent, Counters: NewCounters(ns.halfLife), auth: RankNone, ns: ns}
	var heat CounterSnapshot
	for i, k := range kids {
		merged.Entries += states[i].Entries
		heat = heat.Add(states[i].Counters.Snapshot(now))
		delete(ns.fragOverrides, fragKey{dir, k})
	}
	merged.Counters.Seed(heat, now)
	ds.frags = slices.Replace(ds.frags, at, at+len(kids), merged)
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
