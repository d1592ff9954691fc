package mds

import (
	"slices"
	"sort"

	"mantle/internal/balancer"
	"mantle/internal/namespace"
	"mantle/internal/replica"
	"mantle/internal/simnet"
)

// Read replication (hotspot mitigation): the authoritative rank for a
// read-hot directory grants read replicas of it to peer ranks, which then
// serve non-mutating requests for the directory locally instead of
// forwarding them. The when_replicate hook decides grant/revoke per
// candidate each balancer epoch; placement (which peer) stays mechanism.
//
// Coherence is revoke-before-write: a mutation touching a replicated
// directory registers a write intent (blocking further grants), sends a
// revoke to every holder, and parks until the last holder acks — or until
// ReplicaRevokeTimeout force-completes the round (holder crashed). Rank
// death and migration export invalidate grants through the shared registry
// instead: the freeze/unregister barrier already excludes conflicting
// traffic there.

// Replication is the per-rank handle on the subsystem: the shared registry
// plus the rank's compiled when_replicate hook. A nil handle (the default,
// and always in simulation) disables every replication code path.
type Replication struct {
	// Reg is the shared placement registry (one per cluster).
	Reg *replica.Registry
	// When evaluates the when_replicate hook; nil uses no policy and
	// never grants.
	When func(balancer.ReplicaEnv) (int, error)
	// MaxReplicas caps replicas per directory (the hook sees it as
	// max_replicas).
	MaxReplicas int
}

// SetReplication enables read replication on this rank. Call before Start.
func (m *MDS) SetReplication(rep *Replication) { m.rep = rep }

// Replicating reports whether read replication is enabled on this rank.
func (m *MDS) Replicating() bool { return m.rep != nil }

// replicaRead reports whether a misdirected non-mutating request can be
// served from a local read replica instead of forwarded.
func (m *MDS) replicaRead(r *Request, res resolved) bool {
	r.viaReplica = false
	if m.rep == nil || r.Op.Mutating() || res.dir == nil {
		return false
	}
	if !m.rep.Reg.ActiveHolder(res.dir.Path(), m.rank) {
		return false
	}
	m.Counters.ReplicaReads++
	r.viaReplica = true
	return true
}

// barrierPaths lists the replicated-state paths a mutation must clear of
// holders before applying: the containing directory, the rename
// destination's directory, and — for structural ops moving or deleting a
// whole directory — everything replicated underneath it.
func (m *MDS) barrierPaths(r *Request, res resolved) []string {
	paths := []string{res.dir.Path()}
	addUnder := func(prefix string) {
		paths = append(paths, m.rep.Reg.PathsUnder(prefix)...)
	}
	switch r.Op {
	case OpRename:
		if dstDir, _, err := m.nsv.ResolveDirOf(r.DstPath); err == nil {
			paths = append(paths, dstDir.Path())
		}
		if node, ok := res.dir.Lookup(res.name); ok && node.IsDir() {
			addUnder(node.Path())
		}
	case OpUnlink:
		if node, ok := res.dir.Lookup(res.name); ok && node.IsDir() {
			addUnder(node.Path())
		}
	}
	sort.Strings(paths)
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || p != paths[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// replicaBarrier enforces revoke-before-write. It registers write intents
// for every barrier path the request does not already hold, and when any
// path still has replica holders it starts (or joins) their revoke rounds
// and parks the request — true means "parked, do not execute yet". The
// request re-enqueues itself once the last round completes; the recorded
// heldPaths keep the re-serve from double-registering.
func (m *MDS) replicaBarrier(r *Request, res resolved) bool {
	held := make(map[string]bool, len(r.heldPaths))
	for _, p := range r.heldPaths {
		held[p] = true
	}
	pending := 0
	ready := func() {
		pending--
		if pending > 0 || m.crashed || m.retired {
			return
		}
		m.enqueue(r)
	}
	type round struct {
		path   string
		notify []namespace.Rank
	}
	var rounds []round
	for _, p := range m.barrierPaths(r, res) {
		if held[p] {
			continue
		}
		r.heldPaths = append(r.heldPaths, p)
		notify, wait := m.rep.Reg.BeginWrite(p, m.rank, ready)
		if wait {
			pending++
			rounds = append(rounds, round{path: p, notify: notify})
		}
	}
	if pending == 0 {
		return false
	}
	m.Counters.ReplicaWriteStalls++
	for _, rd := range rounds {
		m.sendRevokes(rd.path, rd.notify)
	}
	return true
}

// sendRevokes mails a revoke to each holder and arms the force-complete
// timeout for the round. notify may be empty (this writer joined a round
// another writer started — the messages are already in flight).
func (m *MDS) sendRevokes(path string, notify []namespace.Rank) {
	for _, h := range notify {
		m.Counters.ReplicaRevokes++
		m.net.Send(m.addr, m.peers[h], &replicaRevoke{Path: path, From: m.rank})
	}
	if len(notify) > 0 && m.cfg.ReplicaRevokeTimeout > 0 {
		m.engine.Schedule(m.cfg.ReplicaRevokeTimeout, func() {
			if m.rep.Reg.ForceComplete(path) {
				m.Counters.ReplicaForcedRevokes++
			}
		})
	}
}

// releaseWriteIntents drops the request's registry write intents (after the
// mutation applied, or before the request leaves this rank).
func (m *MDS) releaseWriteIntents(r *Request) {
	if m.rep == nil || len(r.heldPaths) == 0 {
		return
	}
	for _, p := range r.heldPaths {
		m.rep.Reg.EndWrite(p, m.rank)
	}
	r.heldPaths = nil
}

// replicaLoad sums the metadata load of the directories this rank holds
// replicas of — the replica share of the "all" load it advertises — and
// reports how many it holds, from one registry scan. The snapshots are read
// in one batch and summed in path order.
func (m *MDS) replicaLoad() (load float64, held int) {
	paths := m.rep.Reg.HeldPaths(m.rank)
	if len(paths) == 0 {
		return 0, 0
	}
	dirs := make([]namespace.LoadUnit, 0, len(paths))
	for _, p := range paths {
		if node, err := m.nsv.Resolve(p); err == nil && node.IsDir() {
			dirs = append(dirs, namespace.LoadUnit{Dir: node})
		}
	}
	m.ns.Loads(m.engine.Now(), dirs)
	for _, d := range dirs {
		load += m.metaLoadOf(d.Snap)
	}
	return load, len(paths)
}

// replicaTick is the replication half of the balancer epoch: evaluate
// when_replicate over this rank's hottest directories and grant or revoke
// accordingly. Runs alongside rebalance, off the same stale heartbeat view.
func (m *MDS) replicaTick() {
	if m.rep == nil || m.stopped || m.crashed || m.draining || m.numRanks < 2 {
		return
	}
	e := m.buildEnv()
	if err := balancer.ScoreAll(m.bal, e); err != nil {
		m.Counters.PolicyErrors++
		return
	}
	for _, cand := range m.replicaCandidates() {
		path := cand.dir.Path()
		holders := m.rep.Reg.Holders(path)
		env := balancer.ReplicaEnv{
			WhoAmI: m.rank, Active: m.numRanks, MaxReplicas: m.rep.MaxReplicas,
			Total: e.Total, MDSs: e.MDSs,
			Path: path, Heat: cand.heat,
			Rd: cand.snap.IRD + cand.snap.Readdir, Wr: cand.snap.IWR,
			Replicas: len(holders),
		}
		verdict := 0
		if m.rep.When != nil {
			var err error
			verdict, err = m.rep.When(env)
			if err != nil {
				m.Counters.PolicyErrors++
				continue
			}
		}
		switch {
		case verdict > 0:
			m.grantReplica(path, e, holders)
		case verdict < 0:
			if notify, ok := m.rep.Reg.Revoke(path); ok {
				m.sendRevokes(path, notify)
			}
		}
	}
}

// replicaCand is one read-hot directory the replica scan found.
type replicaCand struct {
	dir  *namespace.Node
	snap namespace.CounterSnapshot // the directory's counters at the scan
	heat float64                   // snap.CephLoad()
}

// replicaCandidates lists this rank's hottest whole directories by READ
// heat (frag units collapse onto their directory: replicas are
// per-directory). Heat is deliberately not the balancer's MetaLoad — that
// scalar is migration policy and may weight writes only (greedy_spill uses
// IWR), which would blind replication to exactly the read-hot directories
// it exists for. CephLoad keeps the scalar and the rd gate policy-free, so
// the scan runs no policy, and it reads every unit's snapshot in one batch.
func (m *MDS) replicaCandidates() []replicaCand {
	units := m.ownedUnits()
	dirs := make([]namespace.LoadUnit, len(units))
	for i, u := range units {
		dirs[i] = namespace.LoadUnit{Dir: u.dir}
	}
	m.ns.Loads(m.engine.Now(), dirs)
	var cands []replicaCand
	for _, d := range dirs {
		s := d.Snap
		if s.IRD+s.Readdir <= m.cfg.MinExportLoad {
			continue
		}
		cands = append(cands, replicaCand{dir: d.Dir, snap: s, heat: s.CephLoad()})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].heat != cands[j].heat {
			return cands[i].heat > cands[j].heat
		}
		return cands[i].dir.Path() < cands[j].dir.Path()
	})
	// A directory's frag units share its snapshot, so they sort adjacent.
	cands = slices.CompactFunc(cands, func(a, b replicaCand) bool { return a.dir == b.dir })
	if len(cands) > 4 {
		cands = cands[:4]
	}
	return cands
}

// grantReplica places one more replica of path on the least-loaded active
// peer that does not already hold one and is not draining.
func (m *MDS) grantReplica(path string, e *balancer.Env, holders []namespace.Rank) {
	target := namespace.RankNone
	best := 0.0
	for r := 0; r < m.numRanks; r++ {
		rank := namespace.Rank(r)
		if rank == m.rank || slices.Contains(holders, rank) || m.hbData[rank].Draining {
			continue
		}
		if target == namespace.RankNone || e.MDSs[r].Load < best {
			target = rank
			best = e.MDSs[r].Load
		}
	}
	if target == namespace.RankNone || !m.rep.Reg.Grant(path, target) {
		return
	}
	m.Counters.ReplicaGrants++
	m.net.Send(m.addr, m.peers[target], &replicaGrant{Path: path, From: m.rank})
}

// handleReplicaGrant (holder): the replica payload arrived. The registry
// entry was created by the granting authority, so there is no local state
// to install — the message models the payload shipping and keeps the grant
// observable on the wire.
func (m *MDS) handleReplicaGrant(from simnet.Addr, g *replicaGrant) {}

// handleReplicaRevoke (holder): stop serving the path from the replica
// (the registry already marks the entry revoking, so replicaRead refuses
// new reads) and ack at the end of the current service interval (see
// whenIdle) — any replica read already admitted has finished by then.
func (m *MDS) handleReplicaRevoke(rv *replicaRevoke) {
	if m.rep == nil {
		return
	}
	from := rv.From
	path := rv.Path
	m.whenIdle(func(done func()) {
		done()
		if m.crashed || int(from) >= len(m.peers) {
			return
		}
		m.Counters.ReplicaRevokeAcks++
		m.net.Send(m.addr, m.peers[from], &replicaRevokeAck{Path: path, From: m.rank})
	})
}

// handleReplicaRevokeAck (authority): fold the holder's ack into the round;
// the last ack wakes the parked writers.
func (m *MDS) handleReplicaRevokeAck(a *replicaRevokeAck) {
	if m.rep == nil {
		return
	}
	m.rep.Reg.Ack(a.Path, a.From)
}
