package namespace

import (
	"mantle/internal/sim"
)

// Lazy ancestor counter propagation.
//
// RecordOp used to charge every ancestor's decay counters inline, making
// each metadata operation O(path depth). The hot path now appends one record
// to a namespace-wide log and the fold into ancestor counters happens in one
// batch the next time any directory counter is read (a snapshot, a heartbeat
// AuthLoad, or a structural mutation that changes parent chains).
//
// Replay preserves bit-identical counter values: records are applied in
// arrival order — the exact order the eager walk would have used — and each
// record performs the same DecayCounter.Hit calls on the same counters, so
// every float operation sequence is unchanged, only deferred.

// DisableLazyCounters reverts new namespaces to the eager ancestor walk in
// RecordOp. It exists as a proof toggle: equivalence tests and the
// NamespaceScale benchmarks run both modes and compare.
var DisableLazyCounters bool

// DisableResolveCache reverts new namespaces to uncached path resolution,
// the matching proof toggle for the dentry-path cache.
var DisableResolveCache bool

// DisableHotPathCaches reverts new namespaces to walk-based EffectiveAuth
// and FrozenFor and uncached Path reconstruction — the remaining per-op
// ancestor walks the scale pass memoised.
var DisableHotPathCaches bool

// hitRec is one deferred RecordOp charge against dir and all its ancestors.
// Records from RecordOpRemote additionally carry the dirfrag charge (frag
// set, name naming the dentry): the inline frag hit is single-writer — only
// the auth rank's actor may touch a frag's counters — so a rank serving a
// read replica defers the whole charge and the fold applies it under the
// write lock.
type hitRec struct {
	dir  *Node
	name string
	kind OpKind
	at   sim.Time
	frag bool
}

// flush folds the domain's deferred hits in arrival order.
func (d *domain) flush() {
	if len(d.pendingHits) == 0 {
		return
	}
	recs := d.pendingHits
	d.pendingHits = d.pendingHits[:0]
	for i := range recs {
		r := &recs[i]
		if r.frag {
			r.dir.chargeFrags(r.name, r.kind, r.at)
		}
		for cur := r.dir; cur != nil; cur = cur.parent {
			cur.dir.counters.Hit(r.kind, r.at)
		}
		recs[i].dir = nil // release the node for GC once folded
	}
}

// FlushCounters folds every deferred hit into the directory counters along
// each record's ancestor chain, in arrival order. It is invoked
// automatically before any directory counter is read and before structural
// mutations (rename, unlink) that would change an ancestor chain; calling it
// at any other point is harmless.
func (ns *Namespace) FlushCounters() {
	ns.wlock()
	defer ns.wunlock()
	ns.flushLocked()
}

// flushLocked replays the default domain first, then the rank domains in
// rank order. In sim mode only the default domain ever holds records, so
// replay order — and every folded float — is exactly the single-log
// behaviour. Across concurrently-filled rank domains there is no global
// arrival order to preserve; per-domain order plus a fixed domain order
// keeps the fold deterministic given identical per-rank histories.
func (ns *Namespace) flushLocked() {
	ns.def.flush()
	for _, d := range ns.domains {
		d.flush()
	}
}

// PendingHits reports the number of un-folded RecordOp charges (test hook).
func (ns *Namespace) PendingHits() int {
	ns.wlock()
	defer ns.wunlock()
	return ns.pendingLocked()
}

func (ns *Namespace) pendingLocked() int {
	n := len(ns.def.pendingHits)
	for _, d := range ns.domains {
		n += len(d.pendingHits)
	}
	return n
}
