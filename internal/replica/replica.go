// Package replica implements the hotspot-mitigation read-replication layer:
// a shared registry of which peer ranks hold read replicas of which
// directories, and the revoke machinery that keeps those replicas coherent
// with mutations.
//
// The registry models state on the store plane (like the epoch fencing
// table): every rank reads and writes the same Registry, so an invalidation
// is visible cluster-wide the instant it commits. What the message plane
// adds on top is the *protocol cost*: a mutation on a replicated directory
// may not apply until every holder has acknowledged a revoke (or the revoke
// timed out), which is the coherence round trip a real distributed MDS
// would pay. That cost — the revoke latency — is what the write barrier in
// package mds measures and what the live report surfaces.
//
// Consistency rules (enforced here plus the mds write barrier):
//
//   - A grant is refused while any write intent is registered on the path,
//     and a write intent is registered before the mutation is admitted —
//     so a grant can never slip in between a mutation's authority check
//     and its apply.
//   - A mutation on a path with holders starts (or joins) a revoke and
//     parks until every holder acked or the revoke was force-completed.
//   - Migration export, namespace structural changes (rename/unlink of a
//     directory) and rank death (crash, retire, fence) invalidate grants
//     instantly through the shared registry — in each case another barrier
//     (the migration freeze, the namespace write lock, the transport
//     unregister) already holds off conflicting traffic.
//
// The registry is mutex-guarded and callable from any rank's execution
// context; completion callbacks are delivered through Dispatch so they run
// on the waiting rank's own actor, never inline under a foreign lock.
package replica

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mantle/internal/namespace"
)

// doneCB is one parked writer waiting for a revoke to complete. rank is the
// parking rank's lane for Dispatch — recorded at park time, so an authority
// move mid-revoke cannot misdirect the wake-up.
type doneCB struct {
	rank namespace.Rank
	fn   func()
}

// entry tracks one replicated directory.
type entry struct {
	// holders is the published holder set, sorted. Grant and DropRank
	// replace it wholesale and nothing writes into it, so Holders, Revoke
	// and BeginWrite hand it out without copying.
	holders  []namespace.Rank
	revoking bool
	pending  map[namespace.Rank]bool // acks outstanding (revoking only)
	began    time.Time               // revoke start (latency measurement)
	done     []doneCB                // writers parked on this revoke
}

// Stats is the registry's observability snapshot.
type Stats struct {
	Grants        uint64 // replicas granted
	Revokes       uint64 // revokes completed (acked or forced)
	ForcedRevokes uint64 // revokes completed by timeout, not acks
	Invalidations uint64 // grants dropped by subtree invalidation
	RevokeMean    time.Duration
}

// Registry is the shared replica-placement table.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	// writes holds active write intents: path → rank → count. A path with
	// any intent refuses new grants; DropRank clears a dead rank's intents
	// so its vanished queue cannot wedge the path.
	writes map[string]map[namespace.Rank]int

	grants        uint64
	revokes       uint64
	forced        uint64
	invalidations uint64
	revokeTotal   time.Duration
	revokeCount   uint64

	// Dispatch delivers a completion callback to the waiting rank's
	// execution lane (the live runtime posts to the rank's actor). Nil
	// invokes callbacks inline — fine for single-threaded callers.
	// Set before traffic starts; not guarded.
	Dispatch func(rank namespace.Rank, fn func())
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: map[string]*entry{},
		writes:  map[string]map[namespace.Rank]int{},
	}
}

// dispatch delivers completion callbacks outside the registry lock.
func (reg *Registry) dispatch(dones []doneCB) {
	for _, d := range dones {
		if reg.Dispatch != nil {
			reg.Dispatch(d.rank, d.fn)
		} else {
			d.fn()
		}
	}
}

// completeLocked finishes a revoke (or drops a holderless entry): the entry
// is removed, latency recorded, and the parked writers returned for
// dispatch.
func (reg *Registry) completeLocked(path string, e *entry, forced bool) []doneCB {
	delete(reg.entries, path)
	if e.revoking {
		reg.revokes++
		if forced {
			reg.forced++
		}
		reg.revokeTotal += time.Since(e.began)
		reg.revokeCount++
	}
	dones := e.done
	e.done = nil
	return dones
}

// Grant records holder as a read replica of path. It is refused (false) when
// the path has write intents or a revoke in flight, when holder already
// holds it, or mid-revoke.
func (reg *Registry) Grant(path string, holder namespace.Rank) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if len(reg.writes[path]) > 0 {
		return false
	}
	e := reg.entries[path]
	if e == nil {
		e = &entry{}
		reg.entries[path] = e
	}
	i, held := slices.BinarySearch(e.holders, holder)
	if e.revoking || held {
		return false
	}
	next := make([]namespace.Rank, 0, len(e.holders)+1)
	next = append(next, e.holders[:i]...)
	next = append(next, holder)
	e.holders = append(next, e.holders[i:]...)
	reg.grants++
	return true
}

// without returns hs minus r in a fresh slice: hs may be published.
func without(hs []namespace.Rank, r namespace.Rank) []namespace.Rank {
	out := make([]namespace.Rank, 0, len(hs)-1)
	for _, h := range hs {
		if h != r {
			out = append(out, h)
		}
	}
	return out
}

// ActiveHolder reports whether r may serve reads of path from its replica:
// it holds one and no revoke is in flight.
func (reg *Registry) ActiveHolder(path string, r namespace.Rank) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	e := reg.entries[path]
	return e != nil && !e.revoking && slices.Contains(e.holders, r)
}

// HasHolders reports whether any rank holds a replica of path (revoking or
// not) — the write-conflict invariant check.
func (reg *Registry) HasHolders(path string) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	e := reg.entries[path]
	return e != nil && len(e.holders) > 0
}

// Holders returns path's published holder set, sorted; nil while a revoke
// is in flight (the placement must not be advertised to clients
// mid-teardown). The slice is shared and read-only: it allocates nothing,
// and a later grant or drop publishes a new slice instead of changing it.
func (reg *Registry) Holders(path string) []namespace.Rank {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	e := reg.entries[path]
	if e == nil || e.revoking || len(e.holders) == 0 {
		return nil
	}
	return e.holders
}

// HeldPaths lists the directories r currently holds replicas of, sorted
// (the replica share of the rank's "all" load, summed in this order).
func (reg *Registry) HeldPaths(r namespace.Rank) []string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	var out []string
	for p, e := range reg.entries {
		if slices.Contains(e.holders, r) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// PathsUnder lists replicated paths at or below prefix (the write barrier
// for structural mutations of a whole subtree).
func (reg *Registry) PathsUnder(prefix string) []string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	var out []string
	for p := range reg.entries {
		if p == prefix || strings.HasPrefix(p, prefix+"/") {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// BeginWrite registers rank's write intent on path. When replica holders
// exist a revoke begins (or is joined), ready is parked for delivery once
// the path is clear, and wait is true; notify lists the holders the caller
// must send revoke messages to (non-nil only for the revoke's initiator;
// the published holder set, read-only). The intent is registered in both
// cases and blocks new grants until EndWrite (or DropRank).
func (reg *Registry) BeginWrite(path string, rank namespace.Rank, ready func()) (notify []namespace.Rank, wait bool) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	w := reg.writes[path]
	if w == nil {
		w = map[namespace.Rank]int{}
		reg.writes[path] = w
	}
	w[rank]++
	e := reg.entries[path]
	if e == nil || len(e.holders) == 0 {
		return nil, false
	}
	if !e.revoking {
		notify = e.beginRevoke()
	}
	e.done = append(e.done, doneCB{rank: rank, fn: ready})
	return notify, true
}

// EndWrite releases one of rank's write intents on path.
func (reg *Registry) EndWrite(path string, rank namespace.Rank) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	w := reg.writes[path]
	if w == nil {
		return
	}
	if w[rank] > 1 {
		w[rank]--
	} else {
		delete(w, rank)
	}
	if len(w) == 0 {
		delete(reg.writes, path)
	}
}

// Revoke starts tearing down path's replicas without a write intent (a
// policy verdict). notify lists the holders to message (the published
// holder set, read-only); ok is false when there is nothing to revoke or a
// revoke is already in flight.
func (reg *Registry) Revoke(path string) (notify []namespace.Rank, ok bool) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	e := reg.entries[path]
	if e == nil || e.revoking || len(e.holders) == 0 {
		return nil, false
	}
	return e.beginRevoke(), true
}

// beginRevoke marks e revoking with every holder's ack outstanding and
// returns the holders to message.
func (e *entry) beginRevoke() []namespace.Rank {
	e.revoking = true
	e.began = time.Now()
	e.pending = make(map[namespace.Rank]bool, len(e.holders))
	for _, h := range e.holders {
		e.pending[h] = true
	}
	return e.holders
}

// Ack records holder from's revoke acknowledgement; the last ack completes
// the revoke and wakes the parked writers.
func (reg *Registry) Ack(path string, from namespace.Rank) {
	reg.mu.Lock()
	e := reg.entries[path]
	if e == nil || !e.revoking {
		reg.mu.Unlock()
		return
	}
	delete(e.pending, from)
	var dones []doneCB
	if len(e.pending) == 0 {
		dones = reg.completeLocked(path, e, false)
	}
	reg.mu.Unlock()
	reg.dispatch(dones)
}

// ForceComplete finishes a stalled revoke (ack timeout): outstanding acks
// are abandoned and the parked writers wake. A path with no revoke in
// flight is untouched (false).
func (reg *Registry) ForceComplete(path string) bool {
	reg.mu.Lock()
	e := reg.entries[path]
	if e == nil || !e.revoking {
		reg.mu.Unlock()
		return false
	}
	dones := reg.completeLocked(path, e, true)
	reg.mu.Unlock()
	reg.dispatch(dones)
	return true
}

// DropRank removes a dead rank (crash, retire, fence) from the registry:
// its holderships vanish, its outstanding acks are treated as delivered
// (the rank can no longer serve the stale replica), and its write intents
// clear so its dropped queue cannot wedge the paths it was mutating. Parked
// writers from other ranks wake if the dead rank's ack was the last one
// outstanding.
func (reg *Registry) DropRank(r namespace.Rank) {
	reg.mu.Lock()
	var dones []doneCB
	for p, e := range reg.entries {
		changed := false
		if slices.Contains(e.holders, r) {
			e.holders = without(e.holders, r)
			changed = true
		}
		if e.revoking {
			if e.pending[r] {
				delete(e.pending, r)
				changed = true
			}
			if changed && len(e.pending) == 0 {
				dones = append(dones, reg.completeLocked(p, e, false)...)
				continue
			}
		}
		if changed && !e.revoking && len(e.holders) == 0 {
			delete(reg.entries, p)
		}
	}
	for p, w := range reg.writes {
		if _, ok := w[r]; ok {
			delete(w, r)
			if len(w) == 0 {
				delete(reg.writes, p)
			}
		}
	}
	reg.mu.Unlock()
	reg.dispatch(dones)
}

// InvalidateSubtree drops every grant at or below prefix instantly — the
// caller's own barrier (migration freeze, namespace write lock) already
// excludes conflicting traffic, so no ack round is needed. Parked writers
// on the invalidated paths wake.
func (reg *Registry) InvalidateSubtree(prefix string) {
	reg.mu.Lock()
	var dones []doneCB
	for p, e := range reg.entries {
		if p != prefix && !strings.HasPrefix(p, prefix+"/") {
			continue
		}
		reg.invalidations += uint64(len(e.holders))
		dones = append(dones, reg.completeLocked(p, e, false)...)
	}
	reg.mu.Unlock()
	reg.dispatch(dones)
}

// Stats snapshots the registry's counters.
func (reg *Registry) Stats() Stats {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	s := Stats{
		Grants:        reg.grants,
		Revokes:       reg.revokes,
		ForcedRevokes: reg.forced,
		Invalidations: reg.invalidations,
	}
	if reg.revokeCount > 0 {
		s.RevokeMean = reg.revokeTotal / time.Duration(reg.revokeCount)
	}
	return s
}
