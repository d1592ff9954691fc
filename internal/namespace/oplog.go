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
//
// Late hits: across rank domains the fold is not in time order (see
// flushLocked), so a record can reach an ancestor counter after a later
// one. DecayCounter.Hit then adds it decayed by its age,
// delta·2^−(last−at)/halfLife, which is what it would weigh had it been
// folded in time order: the counters match a time-ordered fold up to
// rounding and the counter's 1e-9 clamp (runOpStream's sharded twin checks
// both). The simulator folds one domain, whose records arrive in time
// order, so the rule does not fire there.

// maxPendingHits bounds every domain's log. A RecordOp that leaves the log
// holding this many records folds it before returning, so the log's
// capacity stops at the bound instead of growing with throughput × the
// interval between counter reads. Folding early replays the same Hit calls
// in the same order, with no counter read in between (every read folds
// first), so in a single domain (the simulator's) the counters come out
// bit-identical. Across rank domains see flushLocked.
const maxPendingHits = 4096

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
		for cur := r.dir; cur != nil; cur = cur.parent.Load() {
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
// behaviour, bound or no bound. Across concurrently-filled rank domains
// there is no global arrival order to preserve, and the fold is not
// deterministic: a rank whose log reaches maxPendingHits folds it on its
// own, at a point that depends on scheduling, ahead of the other domains.
// A hit that so arrives after a later one decays by its age (see above).
func (ns *Namespace) flushLocked() {
	ns.def.flush()
	for _, d := range ns.domains {
		d.flush()
	}
}

// PendingHits reports the number of un-folded RecordOp charges (test hook).
// After any RecordOp returns, no domain holds more than maxPendingHits-1.
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
