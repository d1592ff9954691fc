package mds

import (
	"fmt"
	"sort"

	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/sim"
	"mantle/internal/simnet"
	"mantle/internal/telemetry"
)

// Migration implements the two-phase commit of §2 ("Migrate"): the exporter
// freezes the unit and proposes it; the importer journals its intent and
// acks; the exporter packs and ships the payload and journals the export;
// the importer journals the import, takes authority, and acks; the exporter
// finishes its journal, flushes client sessions, and unfreezes.

// exportState tracks an in-flight export on the exporter.
type exportState struct {
	id      uint64
	unit    exportUnit
	dest    namespace.Rank
	nodes   int
	timeout sim.Event
	started sim.Time // for the migration trace span
	acked   bool     // ack received; only the session-flush tail remains
}

// importState tracks an in-flight import on the importer.
type importState struct {
	id        uint64
	from      namespace.Rank
	path      string
	isFrag    bool
	frag      namespace.Frag
	nodes     int
	timeout   sim.Event
	journaled bool // EntryImportStart is durable; aborts must roll it back
}

// freezeUnit/unfreezeUnit toggle the migration freeze on the unit.
func (m *MDS) freezeUnit(u exportUnit, frozen bool) {
	if u.isFrag {
		m.ns.FreezeFrag(u.dir, u.frag, frozen)
	} else {
		m.ns.Freeze(u.dir, frozen)
	}
}

// startExport begins the two-phase commit for one unit.
func (m *MDS) startExport(u exportUnit, dest namespace.Rank) {
	if dest == m.rank || int(dest) >= m.numRanks {
		return
	}
	m.exportSeq++
	// The rank field needs 16 bits: with only 8, a rank ≥ 256 bleeds into
	// the sequence bits and distinct exports from the same rank collide on
	// one ID — the later startExport overwrites the earlier entry, whose
	// frozen unit is then orphaned (no state left to abort or finish).
	st := &exportState{id: m.exportSeq<<16 | uint64(m.rank), unit: u, dest: dest,
		nodes: u.nodeCount(), started: m.engine.Now()}
	m.exports[st.id] = st
	m.activeExports++
	// Authority is about to move: replicas of anything in the unit are
	// invalidated through the shared registry before the freeze parks
	// incoming requests, so no replica read races the handoff.
	if m.rep != nil {
		m.rep.Reg.InvalidateSubtree(u.dir.Path())
	}
	m.freezeUnit(u, true)
	if m.cfg.ExportTimeout > 0 {
		st.timeout = m.engine.Schedule(m.cfg.ExportTimeout, func() { m.abortExport(st.id) })
	}
	m.net.Send(m.addr, m.peers[dest], &exportDiscover{
		ExportID: st.id,
		From:     m.rank,
		Path:     u.dir.Path(),
		IsFrag:   u.isFrag,
		Frag:     u.frag,
		Nodes:    st.nodes,
	})
}

// abortExport abandons a stalled migration: the journaled intent is rolled
// back, the unit unfreezes, parked requests replay, and the balancer may
// retry on a later tick. Fires only when the importer is unreachable — the
// commit normally completes in milliseconds.
func (m *MDS) abortExport(id uint64) {
	st, ok := m.exports[id]
	if !ok || st.acked {
		// Acked exports are past the point of no return: the importer
		// already holds authority, only the exporter's session-flush tail
		// remains. A late timeout firing here must not roll that back.
		return
	}
	delete(m.exports, id)
	m.engine.Cancel(st.timeout)
	m.activeExports--
	m.Counters.ExportAborts++
	// Roll back the journaled intent so recovery never replays a half
	// migration. EntryExportStart may not have been written yet (abort in
	// the discover phase); the abort entry is idempotent either way.
	m.journal.Append(rados.EntryExportAbort, 256, nil)
	m.freezeUnit(st.unit, false)
	m.retryDeferred()
}

// abortImport abandons a half-received import whose payload never arrived
// (exporter death or partition): the intent is rolled back and the slot
// freed. The unit itself stays the exporter's problem — only the exporter
// holds the freeze.
func (m *MDS) abortImport(id uint64) {
	ist, ok := m.imports[id]
	if !ok {
		return
	}
	delete(m.imports, id)
	m.engine.Cancel(ist.timeout)
	m.Counters.ImportAborts++
	if ist.journaled {
		m.journal.Append(rados.EntryImportAbort, 256, nil)
	}
}

// handleExportDiscover (importer): journal the intent, then ack with prep.
// A draining rank refuses: it is handing its own metadata off and must not
// accept more (the exporter saw a pre-drain heartbeat, or none at all).
func (m *MDS) handleExportDiscover(from simnet.Addr, d *exportDiscover) {
	if m.draining {
		m.Counters.ImportRefusals++
		m.net.Send(m.addr, m.peers[d.From], &exportNack{ExportID: d.ExportID, From: m.rank})
		return
	}
	ist := &importState{id: d.ExportID, from: d.From, path: d.Path, isFrag: d.IsFrag, frag: d.Frag, nodes: d.Nodes}
	m.imports[d.ExportID] = ist
	if m.cfg.ExportTimeout > 0 {
		ist.timeout = m.engine.Schedule(m.cfg.ExportTimeout, func() { m.abortImport(d.ExportID) })
	}
	m.journal.Append(rados.EntryImportStart, 256, func() {
		ist.journaled = true
		if cur, live := m.imports[d.ExportID]; !live || cur != ist {
			// Aborted before the intent became durable: roll it back
			// now that it exists, and do not ack.
			m.journal.Append(rados.EntryImportAbort, 256, nil)
			return
		}
		if m.crashed {
			return
		}
		m.net.Send(m.addr, m.peers[d.From], &exportPrep{ExportID: d.ExportID, From: m.rank})
	})
}

// handleExportPrep (exporter): pack the unit (CPU cost scales with inodes),
// journal the export start, then ship the payload after a size-dependent
// serialisation delay.
func (m *MDS) handleExportPrep(p *exportPrep) {
	st, ok := m.exports[p.ExportID]
	if !ok || st.acked {
		return
	}
	pack := m.cfg.ExportFreezeOverhead + sim.Time(st.nodes)*m.cfg.ExportPerInode
	// Packing competes with request service: bill it as busy time at the
	// end of the current service interval.
	m.whenIdle(func(done func()) {
		m.busy = true
		m.rollWindows()
		m.busyWindow += pack
		m.engine.Schedule(pack, func() {
			m.busy = false
			done()
			m.journal.Append(rados.EntryExportStart, 256+st.nodes/8, nil)
			wire := sim.Time(0)
			if m.cfg.InodeBytes > 0 {
				wire = sim.Time(st.nodes * m.cfg.InodeBytes / 100) // ~100 MB/s serialisation
			}
			m.engine.Schedule(wire, func() {
				m.net.Send(m.addr, m.peers[st.dest], &exportPayload{ExportID: st.id, From: m.rank})
			})
		})
	})
}

// whenIdle runs fn the next time the server is between two service
// intervals: now if it is not busy, else when the current interval ends,
// ahead of the next queued request (as CephFS handles an export step in
// turn in its dispatch loop, however long the queue). Pending work runs in
// the order it arrived and dies with a Crash or a Retire; a crashed daemon
// takes none. fn receives the continuation that resumes the server, which
// it calls once it no longer holds the server.
func (m *MDS) whenIdle(fn func(done func())) {
	if m.crashed {
		return
	}
	m.idle = append(m.idle, fn)
	m.kick()
}

// handleExportPayload (importer): journal the import and take authority.
func (m *MDS) handleExportPayload(from simnet.Addr, p *exportPayload) {
	ist, ok := m.imports[p.ExportID]
	if !ok {
		return
	}
	// The payload arrived: the commit will finish (or abort explicitly), so
	// the cleanup timer must not fire underneath it.
	m.engine.Cancel(ist.timeout)
	m.journal.Append(rados.EntryImportFinish, 256+ist.nodes/8, func() {
		node, err := m.nsv.Resolve(ist.path)
		if err != nil {
			// The subtree vanished mid-migration (concurrent
			// unlink); abort by acking without taking authority.
			delete(m.imports, p.ExportID)
			m.Counters.ImportAborts++
			m.journal.Append(rados.EntryImportAbort, 256, nil)
			m.net.Send(m.addr, m.peers[ist.from], &exportAck{ExportID: p.ExportID, From: m.rank})
			return
		}
		if ist.isFrag {
			m.ns.SetFragAuth(node, ist.frag, m.rank)
			m.ns.FreezeFrag(node, ist.frag, false)
		} else {
			m.ns.SetAuthOverride(node, m.rank)
			m.ns.Freeze(node, false)
		}
		m.Counters.Imports++
		delete(m.imports, p.ExportID)
		m.net.Send(m.addr, m.peers[ist.from], &exportAck{ExportID: p.ExportID, From: m.rank})
		// Anything parked here that now resolves locally can run.
		m.retryDeferred()
	})
}

// handleExportAck (exporter): finish the journal, flush client sessions,
// release the unit.
func (m *MDS) handleExportAck(a *exportAck) {
	st, ok := m.exports[a.ExportID]
	if !ok || st.acked {
		return
	}
	// The entry stays in m.exports until finish() releases the freeze:
	// ExportsInFlight must cover the session-flush tail, or a drain that
	// polls it can declare the cluster quiet, stop the timer plane, and
	// strand the unit frozen forever.
	st.acked = true
	m.engine.Cancel(st.timeout)
	m.journal.Append(rados.EntryExportFinish, 256, nil)
	// Session flushes: every client with a session here must halt
	// updates and revalidate (the scatter-gather cost §4.1 measures via
	// session counts).
	flushCost := sim.Time(0)
	clients := make([]simnet.Addr, 0, len(m.sessions))
	for client := range m.sessions {
		clients = append(clients, client)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	for _, client := range clients {
		m.net.Send(m.addr, client, &SessionFlush{From: m.rank})
		m.Counters.SessionsSent++
		flushCost += m.cfg.SessionFlushCost
	}
	finish := func() {
		if cur, live := m.exports[a.ExportID]; !live || cur != st {
			// Crashed mid-flush: Crash() already released the freeze and
			// reset the export table; replaying the tail would double-count.
			return
		}
		delete(m.exports, a.ExportID)
		m.activeExports--
		m.Counters.Exports++
		m.Counters.InodesMoved += uint64(st.nodes)
		if tr := m.tracer(); tr != nil {
			tr.Complete(telemetry.PIDMDS, int(m.rank), "migration",
				"export "+st.unit.path(), st.started, m.engine.Now()-st.started,
				telemetry.Arg{Key: "dest", Val: int64(st.dest)},
				telemetry.Arg{Key: "nodes", Val: int64(st.nodes)})
		}
		m.freezeUnit(st.unit, false)
		if m.OnExport != nil {
			m.OnExport(m, st.unit.path(), st.dest, st.nodes)
		}
		m.retryDeferred()
	}
	if flushCost > 0 {
		m.whenIdle(func(done func()) {
			m.busy = true
			m.rollWindows()
			m.busyWindow += flushCost
			m.engine.Schedule(flushCost, func() {
				m.busy = false
				done()
				finish()
			})
		})
	} else {
		finish()
	}
}

// String renders an identification for debugging.
func (m *MDS) String() string { return fmt.Sprintf("mds.%d", m.rank) }
