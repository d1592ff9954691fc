package namespace

import "mantle/internal/sim"

// Ownership-sharded concurrency mode.
//
// The simulator runs single-threaded and the namespace carries no locks on
// that path: every helper below compiles to a plain branch when ns.sharded is
// false, so sim-mode behaviour (and its bit-identical artifact digests) is
// untouched. The live runtime calls EnableSharding before starting its actor
// goroutines, and from then on the tree is protected by a two-level scheme
// sized to how the MDS cluster actually shares it:
//
//   - treeMu, a namespace-wide RWMutex. Hot-path operations — resolve,
//     create, RecordOp, FrozenFor, EffectiveAuth — take the read side, so
//     any number of rank actors serve concurrently. Structural or
//     authority-changing operations — rename, unlink, dirfrag split/merge,
//     SetAuthOverride/SetFragAuth, freeze, counter flush, heartbeat
//     aggregation (AuthLoad/OwnedNodes/SubtreeRoots), invariant checks —
//     take the write side. Those are balancer-rate events, not op-rate.
//
//   - childMu, a per-directory mutex guarding only that directory's dentry
//     table. Two ranks owning different fragments of one directory can both
//     insert dentries under the read lock; childMu makes the table itself
//     safe. Readers holding the write lock may skip it (all writers are
//     excluded), which the invariant walk, Remove, Rename and SplitDir
//     exploit.
//
// Per-rank mutable hot state that is NOT protected by either lock and relies
// on single-writer discipline instead (the rank actor owning a fragment is
// the only goroutine that serves operations on it):
//
//   - FragState.Entries, FragState.LastAccess and FragState.Counters are
//     written only by the owning rank's actor (under RLock) and read either
//     by that same actor or under the write lock.
//   - Memoised per-node state written on read paths (Path strings, effective
//     authority) moved into atomics so concurrent fill-in is safe: fills for
//     the same generation are idempotent, so racing writers store identical
//     values.
//   - Monotonic bookkeeping (node count, subtree sizes, resolve-cache
//     generation) is atomic.
//
// Reentrancy discipline: public methods self-lock; namespace-internal code
// always calls the unexported *Locked / *In bodies (or plain field reads) so
// no lock is ever taken twice on one goroutine. sync.RWMutex read locks are
// NOT recursive-safe under writer pressure, so nested RLock is a bug, not a
// style issue.

// domain is the per-rank slice of namespace state that needs no cross-rank
// coordination at all: the deferred RecordOp log, the resolution cache, and
// the file-node slab. Each live rank gets its own domain via View; the
// simulator (and any code outside a rank actor) uses the default domain, so
// unsharded behaviour — including the arrival order of deferred counter
// replay — is exactly the single-domain behaviour it always had.
type domain struct {
	pendingHits []hitRec
	fileSlab    []Node
	resCache    map[string]resolveEnt
}

func newDomain() *domain {
	return &domain{resCache: make(map[string]resolveEnt)}
}

// EnableSharding switches the namespace into the concurrent mode described
// above and provisions one ownership domain per rank slot. It must be called
// before any concurrent use (the live runtime calls it at construction,
// before actors start). The op path is safe under the read lock because
// RecordOp only appends to the rank's own deferred log; the shared ancestor
// DecayCounters are written by the fold, under the write lock, which a
// RecordOp also takes, after dropping the read lock, when it fills its log
// to maxPendingHits.
func (ns *Namespace) EnableSharding(domains int) {
	ns.sharded = true
	ns.domains = make([]*domain, domains)
	for i := range ns.domains {
		ns.domains[i] = newDomain()
	}
}

// Sharded reports whether EnableSharding has been called.
func (ns *Namespace) Sharded() bool { return ns.sharded }

// View is a rank-scoped handle on the namespace: same tree, same locking,
// but hot-path caches and the deferred-hit log are private to the rank so
// actors never contend on them. In unsharded mode every View aliases the
// default domain and the methods are plain pass-throughs.
type View struct {
	ns *Namespace
	d  *domain
}

// View returns the handle for rank slot i. Out-of-range slots (and the
// unsharded namespace) share the default domain.
func (ns *Namespace) View(i int) *View {
	if !ns.sharded || i < 0 || i >= len(ns.domains) {
		return &View{ns: ns, d: ns.def}
	}
	return &View{ns: ns, d: ns.domains[i]}
}

// Resolve is Namespace.Resolve through the rank's own resolution cache.
func (v *View) Resolve(path string) (*Node, error) {
	v.ns.rlock()
	defer v.ns.runlock()
	return v.ns.resolveIn(v.d, path)
}

// ResolveDirOf is Namespace.ResolveDirOf through the rank's own cache.
func (v *View) ResolveDirOf(path string) (*Node, string, error) {
	v.ns.rlock()
	defer v.ns.runlock()
	return v.ns.resolveDirOfIn(v.d, path)
}

// Create is Namespace.Create allocating from the rank's own node slab.
func (v *View) Create(parent *Node, name string, isDir bool) (*Node, error) {
	v.ns.rlock()
	defer v.ns.runlock()
	return v.ns.createIn(v.d, parent, name, isDir)
}

// RecordOp is Namespace.RecordOp logging into the rank's own deferred-hit
// log; the flush (under the write lock) folds all domains, and a log that
// reaches maxPendingHits is folded on its own.
func (v *View) RecordOp(dir *Node, name string, k OpKind, now sim.Time) {
	v.ns.recordOpIn(v.d, dir, name, k, now, false)
}

// RecordOpRemote charges an op served by a rank that is NOT the directory's
// authority (a read served from a replica). The inline frag hit in RecordOp
// is single-writer — only the auth rank's actor may touch a frag's counters
// — so the whole charge (frag and ancestor walk alike) is deferred into this
// rank's log and folded under the write lock at the next counter read. Heat
// attribution is unchanged, only deferred: the auth's when_replicate still
// sees replica-served reads in the directory's counters.
func (v *View) RecordOpRemote(dir *Node, name string, k OpKind, now sim.Time) {
	v.ns.recordOpIn(v.d, dir, name, k, now, true)
}

// Lock helpers: no-ops until EnableSharding, and on the nil namespace a
// removed file reports (see Node.nsOf).

func (ns *Namespace) rlock() {
	if ns != nil && ns.sharded {
		ns.treeMu.RLock()
	}
}

func (ns *Namespace) runlock() {
	if ns != nil && ns.sharded {
		ns.treeMu.RUnlock()
	}
}

func (ns *Namespace) wlock() {
	if ns != nil && ns.sharded {
		ns.treeMu.Lock()
	}
}

func (ns *Namespace) wunlock() {
	if ns != nil && ns.sharded {
		ns.treeMu.Unlock()
	}
}

// childLock/childUnlock guard one directory's dentry table in sharded mode
// (directories only, like every child* helper below: n.dir is not checked).
// They order strictly after treeMu (taken while holding either side, never
// released after it) and nothing is acquired under them, so they cannot
// participate in a cycle.
func (n *Node) childLock() {
	if n.dir.ns.sharded {
		n.dir.childMu.Lock()
	}
}

func (n *Node) childUnlock() {
	if n.dir.ns.sharded {
		n.dir.childMu.Unlock()
	}
}

// childGet/childPut/childDel/childLen are the childMu-safe dentry-table
// accessors; h is always the name's HashName. Code holding the write lock
// may still read the table directly — every writer path holds either the
// write lock or (read lock + childMu), both excluded — but all mutations
// must go through childPut/childDel.
func (n *Node) childGet(name string) (*Node, bool) {
	return n.childGetHashed(name, HashName(name))
}

func (n *Node) childGetHashed(name string, h uint32) (*Node, bool) {
	n.childLock()
	c := n.dir.children.get(name, h)
	n.childUnlock()
	return c, c != nil
}

func (n *Node) childPut(c *Node, h uint32) {
	n.childLock()
	n.dir.children.put(c, h)
	n.childUnlock()
}

func (n *Node) childDel(c *Node, h uint32) {
	n.childLock()
	n.dir.children.del(c.name, h)
	n.childUnlock()
}

func (n *Node) childLen() int {
	n.childLock()
	l := int(n.dir.children.n)
	n.childUnlock()
	return l
}
