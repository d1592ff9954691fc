package mds

import (
	"sort"

	"mantle/internal/namespace"
)

// Dynamic membership: the elastic coordinator grows and shrinks the active
// rank set at runtime. Ranks stay contiguous — active ranks are always
// [0, numRanks), a grow activates rank numRanks, a shrink drains the top
// rank — so every rank's view of the cluster is a single count, exactly like
// CephFS's max_mds. The peers slice is sized to the maximum pool at
// construction; SetClusterSize moves the active boundary within it.

// SetClusterSize updates this rank's view of the active rank count. Callers
// (the elastic coordinator, via the host) broadcast the new size to every
// live rank on each membership epoch. n must fit within the peer table the
// MDS was built with.
func (m *MDS) SetClusterSize(n int) {
	if n < 1 || n > len(m.peers) {
		panic("mds: cluster size outside peer table")
	}
	// Forget heartbeats from ranks beyond the new boundary so buildEnv and
	// rebalance never act on a retired rank's stale metrics after a regrow.
	for r := n; r < m.numRanks; r++ {
		delete(m.hbData, namespace.Rank(r))
	}
	m.numRanks = n
}

// ClusterSize reports this rank's view of the active rank count.
func (m *MDS) ClusterSize() int { return m.numRanks }

// StartDrain begins moving every bound this rank owns to its peers: from the
// next balancer tick the rank advertises Draining in its heartbeats (so
// peers stop targeting it), refuses new imports, and replaces its rebalance
// phase with drainTick until the coordinator observes DrainComplete and
// retires it.
func (m *MDS) StartDrain() {
	if m.rank == 0 {
		panic("mds: rank 0 owns the root and never drains")
	}
	m.draining = true
}

// Draining reports whether this rank is leaving the cluster.
func (m *MDS) Draining() bool { return m.draining }

// AbortDrain returns the rank to full membership: it stops advertising
// Draining, accepts imports again, and resumes normal balancing on the next
// tick, keeping whatever bounds the abandoned drain left it.
func (m *MDS) AbortDrain() { m.draining = false }

// DrainComplete reports whether the rank has fully handed off: no bounds
// left in the namespace, no migration mid-two-phase-commit in either
// direction, and nothing queued or executing. The coordinator polls this
// before deregistering the rank; a false result just means "poll again after
// the next tick".
func (m *MDS) DrainComplete() bool {
	return m.draining && !m.busy &&
		len(m.exports) == 0 && len(m.imports) == 0 &&
		m.QueueLen() == 0 && len(m.ns.SubtreeRoots(m.rank)) == 0
}

// BoundsLeft reports how many subtree bounds the rank still owns (drain
// progress for logs and tests).
func (m *MDS) BoundsLeft() int { return len(m.ns.SubtreeRoots(m.rank)) }

// Retire permanently removes the daemon after a leave commits (or is
// forced): periodic work stops, the address is released, and the daemon is
// fenced so a stray Recover cannot resurrect it. Unlike Crash, the rank's
// bounds are expected to be gone already — drained to peers, or moved by the
// coordinator's forced reassignment.
func (m *MDS) Retire() {
	m.Stop()
	if !m.crashed {
		m.net.Unregister(m.addr)
	}
	m.crashed = true
	m.retired = true
	m.queue, m.qhead = nil, 0
	m.deferred = nil
	m.busy = false
	// A retired rank's replicas and revoke obligations leave with it
	// (mirrors Crash — Retire does not go through Crash).
	if m.rep != nil {
		m.rep.Reg.DropRank(m.rank)
	}
}

// Retired reports whether the daemon left the cluster for good.
func (m *MDS) Retired() bool { return m.retired }

// LastHeartbeat returns this rank's most recent self-heartbeat — the same
// metrics it advertises to peers, which the elastic host feeds to the
// when_elastic hook.
func (m *MDS) LastHeartbeat() Heartbeat { return m.hbData[m.rank] }

// PeerHeartbeat returns this rank's current view of a peer's load vector
// (false when the peer never heartbeated, or its aggregated load-map entry
// aged out). Callers must hold the rank's execution context — the actor's
// shard lock in the live runtime.
func (m *MDS) PeerHeartbeat(r namespace.Rank) (Heartbeat, bool) {
	hb, ok := m.hbData[r]
	return hb, ok
}

// drainTick is the draining rank's replacement for rebalance: export every
// unit this rank owns toward the least-loaded active peers, respecting the
// same concurrent-export bound as normal balancing. Frozen units are already
// mid-migration and are skipped; whatever does not fit this tick goes on the
// next one.
func (m *MDS) drainTick() {
	if m.stopped || m.crashed || !m.draining {
		return
	}
	donors := m.drainDonors()
	if len(donors) == 0 {
		return
	}
	units := m.drainUnits()
	di := 0
	for _, u := range units {
		if m.activeExports >= m.cfg.MaxConcurrentExports {
			break
		}
		dest := donors[di%len(donors)]
		di++
		m.Counters.DrainExports++
		m.startExport(u, dest)
	}
}

// drainDonors lists active, non-draining, non-failed peers ordered by their
// last-advertised load (least-loaded first), so a drain spreads bounds the
// same way a donor-selection policy would.
func (m *MDS) drainDonors() []namespace.Rank {
	var out []namespace.Rank
	for r := 0; r < m.numRanks; r++ {
		rank := namespace.Rank(r)
		if rank == m.rank {
			continue
		}
		if hb, ok := m.hbData[rank]; ok && hb.Draining {
			continue
		}
		out = append(out, rank)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return m.hbData[out[i]].Auth < m.hbData[out[j]].Auth
	})
	return out
}

// drainUnits enumerates every export unit the rank still owns, without the
// load filtering normal balancing applies: a drain must move cold metadata
// too.
func (m *MDS) drainUnits() []exportUnit {
	now := m.engine.Now()
	var out []exportUnit
	for _, root := range m.ns.SubtreeRoots(m.rank) {
		if root.IsFrag {
			fs, ok := root.Dir.FragStateOf(root.Frag)
			if !ok || fs.Frozen() {
				continue
			}
			out = append(out, exportUnit{
				dir: root.Dir, frag: root.Frag, isFrag: true,
				load: m.metaLoadOf(fs.Counters.Snapshot(now)),
			})
			continue
		}
		if root.Dir.Frozen() {
			continue
		}
		out = append(out, exportUnit{dir: root.Dir, load: m.metaLoadOf(root.Dir.Load(now))})
	}
	return out
}

// handleExportNack (exporter): the importer refused the unit (it is draining
// out of the cluster). Abort now rather than waiting out the export timeout;
// the unit unfreezes and a later tick retries against a live target.
func (m *MDS) handleExportNack(n *exportNack) {
	m.abortExport(n.ExportID)
}
