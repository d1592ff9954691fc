package mds

import (
	"errors"
	"fmt"

	"mantle/internal/balancer"
	"mantle/internal/mon"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/sim"
	"mantle/internal/simnet"
	"mantle/internal/telemetry"
)

// MDS is one metadata server rank. It is driven entirely by simulator
// events: messages arrive via HandleMessage, periodic work via the balancer
// ticker. The namespace is shared cluster state (the collective cache);
// which rank may serve what is governed by the authority labels.
type MDS struct {
	rank namespace.Rank
	addr simnet.Addr
	// engine is the tick/timer source: the DES engine in simulation, a
	// per-rank wall clock in the live runtime. The MDS itself has no
	// internal locking — in live mode every callback runs on the rank's
	// actor under the runtime's state lock.
	engine   sim.Clock
	net      simnet.Transport
	ns       *namespace.Namespace
	nsv      *namespace.View // rank-scoped handle: private resolve cache + hit log
	cfg      Config
	bal      balancer.Balancer
	balState balancer.StateStore
	journal  *rados.Journal
	peers    []simnet.Addr // peer MDS addresses indexed by rank
	numRanks int

	// queue[qhead:] holds the requests waiting for the server; the head
	// index resets when the queue drains, so the backing array is reused.
	queue    []*Request
	qhead    int
	deferred []*Request
	busy     bool
	// idle[idleHead:] is the work waiting for the server between two
	// service intervals (see whenIdle), in arrival order; the head resets
	// when it drains, as the queue's does.
	idle     []func(done func())
	idleHead int
	kickFn   func() // kick, bound once: the done every idle item is handed
	// svcFree holds idle service records (see svcRec).
	svcFree []*svcRec

	// Measurement windows.
	windowStart sim.Time
	busyWindow  sim.Time
	reqWindow   int
	lastCPU     float64
	lastReqRate float64

	// Heartbeat state.
	hbSeq  uint64
	hbData map[namespace.Rank]Heartbeat
	// env is the balancer environment buildEnv refills each tick.
	env balancer.Env
	// loadMapVer is the version of the newest aggregated load map folded
	// into hbData (HBAggregated mode); older maps arriving out of order
	// are dropped.
	loadMapVer uint64

	// Migration state.
	exportSeq     uint64
	exports       map[uint64]*exportState
	imports       map[uint64]*importState
	activeExports int

	sessions   map[simnet.Addr]bool
	ticker     *sim.Ticker
	stopped    bool
	crashed    bool
	recovering bool
	draining   bool
	retired    bool
	monAddr    simnet.Addr
	hasMon     bool

	// Epoch fencing (live runtime; zero-valued and inert in simulation).
	// epoch is the membership incarnation this daemon was built under;
	// curEpoch reads the shared store's current epoch for the rank — the
	// analogue of revalidating the mdsmap against RADOS, which stays
	// reachable across message-plane partitions. When the store says the
	// rank moved on, the daemon self-fences instead of serving stale
	// authority. onFenced tells the host (the live runtime returns the
	// daemon to the standby pool).
	epoch    uint64
	curEpoch func() uint64
	onFenced func()

	// rep enables read replication (hotspot mitigation); nil — always in
	// simulation — disables every replication code path. See replicate.go.
	rep *Replication

	// Telemetry (nil = disabled). Metric handles are resolved once in
	// SetTelemetry so the hot path never touches the registry maps.
	tel         *telemetry.Telemetry
	hQueueWait  *telemetry.Histogram
	hQueueDepth *telemetry.Histogram
	hService    *telemetry.Histogram
	cServed     *telemetry.Counter
	cForwards   *telemetry.Counter
	cJournal    *telemetry.Counter
	gCPU        *telemetry.Gauge
	gQueue      *telemetry.Gauge

	// Counters is the observability block read by experiments.
	Counters Counters

	// OnServed, if set, is invoked after each successfully executed
	// request (cluster harness hook for throughput series).
	OnServed func(m *MDS, r *Request)
	// OnExport, if set, is invoked when an export commits.
	OnExport func(m *MDS, path string, dest namespace.Rank, inodes int)
}

// New constructs an MDS rank. peers maps rank→address (including self).
func New(rank namespace.Rank, addr simnet.Addr, engine sim.Clock, net simnet.Transport,
	ns *namespace.Namespace, pool *rados.Pool, cfg Config, bal balancer.Balancer,
	peers []simnet.Addr) *MDS {
	var state balancer.StateStore = &balancer.MemState{}
	if cfg.StateInRADOS {
		state = balancer.NewRADOSState(pool, fmt.Sprintf("mds%d-balstate", rank))
	}
	m := &MDS{
		rank:     rank,
		addr:     addr,
		engine:   engine,
		net:      net,
		ns:       ns,
		nsv:      ns.View(int(rank)),
		cfg:      cfg,
		bal:      bal,
		balState: state,
		journal:  rados.NewJournal(pool, fmt.Sprintf("mds%d", rank), 1<<22),
		peers:    peers,
		numRanks: len(peers),
		hbData:   map[namespace.Rank]Heartbeat{},
		exports:  map[uint64]*exportState{},
		imports:  map[uint64]*importState{},
		sessions: map[simnet.Addr]bool{},
	}
	m.kickFn = m.kick
	// The first heartbeat prices units before any tick has bound the
	// policy's environment.
	if s, ok := bal.(balancer.Seeder); ok {
		s.Seed(rank)
	}
	net.Register(addr, m)
	return m
}

// Rank reports the MDS rank.
func (m *MDS) Rank() namespace.Rank { return m.rank }

// Addr reports the MDS network address.
func (m *MDS) Addr() simnet.Addr { return m.addr }

// Balancer reports the active policy.
func (m *MDS) Balancer() balancer.Balancer { return m.bal }

// QueueLen reports queued plus deferred requests.
func (m *MDS) QueueLen() int { return len(m.queue) - m.qhead + len(m.deferred) }

// Sessions reports the number of client sessions opened with this MDS.
func (m *MDS) Sessions() int { return len(m.sessions) }

// Journal exposes the MDS journal for inspection.
func (m *MDS) Journal() *rados.Journal { return m.journal }

// SetTelemetry attaches the cluster's telemetry collectors. Call before
// Start; passing nil disables instrumentation again.
func (m *MDS) SetTelemetry(t *telemetry.Telemetry) {
	m.tel = t
	var reg *telemetry.Registry // nil: every instrument below is a no-op
	if t != nil {
		reg = t.Reg
	}
	r := int(m.rank)
	m.hQueueWait = reg.Histogram("mds.queue_wait_us", r)
	m.hQueueDepth = reg.Histogram("mds.queue_depth", r)
	m.hService = reg.Histogram("mds.service_us", r)
	m.cServed = reg.Counter("mds.served", r)
	m.cForwards = reg.Counter("mds.forwards", r)
	m.cJournal = reg.Counter("mds.journal_appends", r)
	m.gCPU = reg.Gauge("mds.cpu_pct", r)
	m.gQueue = reg.Gauge("mds.queue_depth_last", r)
}

// tracer reports the active tracer or nil.
func (m *MDS) tracer() *telemetry.Tracer {
	if m.tel == nil {
		return nil
	}
	return m.tel.Tracer
}

// Start begins the heartbeat/balancer ticker. Ticks are staggered per rank
// (independent daemons are not synchronised) with deterministic jitter.
func (m *MDS) Start() {
	offset := 100*sim.Millisecond + sim.Time(m.rank)*37*sim.Millisecond + m.engine.Jitter(50*sim.Millisecond)
	if offset < 0 {
		offset = 0
	}
	m.stopped = false
	m.ticker = m.engine.NewTicker(offset, m.cfg.HeartbeatInterval, m.balancerTick)
}

// Stop halts periodic work. The stopped flag also gates the deferred
// rebalance/drain phases a tick scheduled before Stop ran: without it a
// drain can pass its migrations-in-flight check and then watch a late
// rebalance closure start a fresh export into a cluster being torn down,
// stranding the unit frozen.
func (m *MDS) Stop() {
	m.stopped = true
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// HandleMessage implements simnet.Handler.
func (m *MDS) HandleMessage(from simnet.Addr, msg simnet.Message) {
	switch v := msg.(type) {
	case *Request:
		m.sessions[v.Client] = true
		m.enqueue(v)
	case *Heartbeat:
		m.Counters.HBsRecv++
		m.hbData[v.From] = *v
	case *mon.LoadMap:
		m.applyLoadMap(v)
	case *exportDiscover:
		m.handleExportDiscover(from, v)
	case *exportPrep:
		m.handleExportPrep(v)
	case *exportPayload:
		m.handleExportPayload(from, v)
	case *exportAck:
		m.handleExportAck(v)
	case *exportNack:
		m.handleExportNack(v)
	case *replicaGrant:
		m.handleReplicaGrant(from, v)
	case *replicaRevoke:
		m.handleReplicaRevoke(v)
	case *replicaRevokeAck:
		m.handleReplicaRevokeAck(v)
	default:
		panic(fmt.Sprintf("mds%d: unknown message %T", m.rank, msg))
	}
}

func (m *MDS) enqueue(r *Request) {
	if m.tel != nil {
		r.enqueuedAt = m.engine.Now()
		m.hQueueDepth.Observe(float64(len(m.queue) - m.qhead + 1))
	}
	if len(m.queue) == cap(m.queue) && m.qhead > 0 && m.qhead >= len(m.queue)/2 {
		// A queue that never drains: compact before append would grow it.
		n := copy(m.queue, m.queue[m.qhead:])
		clear(m.queue[n:])
		m.queue, m.qhead = m.queue[:n], 0
	}
	m.queue = append(m.queue, r)
	m.kick()
}

// kick starts the server's next piece of work if it is not busy: pending
// idle work first (see whenIdle), then the next queued request.
func (m *MDS) kick() {
	if m.busy {
		return
	}
	if m.idleHead < len(m.idle) {
		fn := m.idle[m.idleHead]
		m.idle[m.idleHead] = nil
		if m.idleHead++; m.idleHead == len(m.idle) {
			m.idle, m.idleHead = m.idle[:0], 0
		}
		fn(m.kickFn)
		return
	}
	if m.qhead == len(m.queue) {
		return
	}
	r := m.queue[m.qhead]
	m.queue[m.qhead] = nil
	if m.qhead++; m.qhead == len(m.queue) {
		m.queue, m.qhead = m.queue[:0], 0
	}
	m.serve(r)
}

// rollWindows advances the CPU/request measurement windows to now.
func (m *MDS) rollWindows() {
	now := m.engine.Now()
	for now-m.windowStart >= m.cfg.CPUWindow {
		m.lastCPU = float64(m.busyWindow) / float64(m.cfg.CPUWindow) * 100
		m.lastReqRate = float64(m.reqWindow) / m.cfg.CPUWindow.Seconds()
		m.busyWindow = 0
		m.reqWindow = 0
		m.windowStart += m.cfg.CPUWindow
	}
}

// startBusy occupies the server for d and then runs the record's
// continuation (see svcRec.ended).
func (m *MDS) startBusy(d sim.Time, rec *svcRec) {
	if m.busy {
		panic(fmt.Sprintf("mds%d: startBusy while busy", m.rank))
	}
	m.busy = true
	m.rollWindows()
	m.busyWindow += d
	m.engine.Schedule(d, rec.endedFn)
}

// svcKind is what a service interval does when it ends.
type svcKind uint8

const (
	svcReject  svcKind = iota // resolution failed: error reply
	svcForward                // misdirected: forward to auth
	svcServe                  // execute, then reply (after the journal, for a mutation)
)

// svcRec carries a request across its service interval and, for a
// mutation, its journal write. Records are pooled per MDS with both
// continuations bound once, so a served request schedules no fresh closure.
// Each interval owns its record until the continuation takes the fields it
// needs, so an interval that fires after Crash/Recover still runs its own.
type svcRec struct {
	m      *MDS
	kind   svcKind
	r      *Request
	res    resolved
	auth   namespace.Rank
	err    error
	jstart sim.Time // journal start, for the journal span (tracing only)

	endedFn func() // ended, bound once
	ackedFn func() // acked, bound once
}

// allocSvc takes a record from the free list, or makes one.
func (m *MDS) allocSvc(kind svcKind, r *Request, res resolved) *svcRec {
	var s *svcRec
	if n := len(m.svcFree); n > 0 {
		s = m.svcFree[n-1]
		m.svcFree[n-1] = nil
		m.svcFree = m.svcFree[:n-1]
	} else {
		s = &svcRec{m: m}
		s.endedFn, s.ackedFn = s.ended, s.acked
	}
	s.kind, s.r, s.res = kind, r, res
	return s
}

// release returns the record to the free list. Callers copy out what they
// need first and release before anything that can re-enter the MDS.
func (s *svcRec) release() {
	m := s.m
	s.r, s.res, s.err = nil, resolved{}, nil
	m.svcFree = append(m.svcFree, s)
}

// ended runs when the service interval is over.
func (s *svcRec) ended() {
	m := s.m
	m.busy = false
	if m.crashed {
		s.release()
		return
	}
	switch s.kind {
	case svcReject:
		r, res, err := s.r, s.res, s.err
		s.release()
		m.releaseWriteIntents(r)
		m.Counters.Errors++
		m.reply(r, res, err)
		m.kick()
	case svcForward:
		r, res, auth := s.r, s.res, s.auth
		s.release()
		if r.Hops > 16 {
			m.Counters.Errors++
			m.reply(r, res, errors.New("too many forwards"))
		} else {
			m.net.Send(m.addr, m.peers[auth], r)
		}
		m.kick()
	default:
		m.execute(s)
	}
}

// acked runs when a served mutation's journal entry is durable: only then
// does the client hear back.
func (s *svcRec) acked() {
	m := s.m
	r, res, jstart := s.r, s.res, s.jstart
	s.release()
	if tr := m.tracer(); tr != nil {
		tr.Complete(telemetry.PIDMDS, int(m.rank), "mds", "journal",
			jstart, m.engine.Now()-jstart,
			telemetry.Arg{Key: "trace", Val: r.TraceID})
	}
	m.reply(r, res, nil)
}

// Crash simulates a daemon failure: the MDS vanishes from the network,
// drops its queue (clients time out and retry), and stops balancing. Its
// authority labels stay on the namespace — requests for its subtrees go
// unanswered until Recover, as with CephFS without a standby MDS.
func (m *MDS) Crash() {
	if m.crashed {
		return
	}
	m.crashed = true
	m.Counters.Crashes++
	m.net.Unregister(m.addr)
	m.Stop()
	m.queue, m.qhead = nil, 0
	m.deferred = nil
	m.idle, m.idleHead = nil, 0
	m.busy = false
	// In-flight migrations die with the daemon. The freeze lives on the
	// shared namespace, so the units this exporter froze must be released
	// here (modelling recovery rolling back the un-committed export) or the
	// subtree wedges forever: the pending timeout would fire into an empty
	// exports map. Importer-side intents just evaporate; the exporter's
	// timeout aborts and unfreezes on its side.
	for _, st := range m.exports {
		m.engine.Cancel(st.timeout)
		m.freezeUnit(st.unit, false)
	}
	for _, ist := range m.imports {
		m.engine.Cancel(ist.timeout)
	}
	m.exports = map[uint64]*exportState{}
	m.imports = map[uint64]*importState{}
	m.activeExports = 0
	// The dead rank's replicas, pending revoke acks and write intents all
	// vanish with it: the registry completes any revoke that was waiting
	// only on this rank, so writers elsewhere un-park immediately instead
	// of riding out the revoke timeout.
	if m.rep != nil {
		m.rep.Reg.DropRank(m.rank)
	}
}

// ExportsInFlight reports exports mid-two-phase-commit on this rank.
func (m *MDS) ExportsInFlight() int { return len(m.exports) }

// ImportsInFlight reports imports mid-two-phase-commit on this rank.
func (m *MDS) ImportsInFlight() int { return len(m.imports) }

// Recover replays the journal (latency scales with its durable length) and
// rejoins the cluster, invoking done when serving resumes. Calling it again
// while a replay is already pending is a no-op, and a daemon whose address
// was taken over during the replay (a promoted standby got there first)
// stays fenced instead of split-braining the rank.
func (m *MDS) Recover(done func()) {
	if m.retired {
		// The elastic coordinator deregistered this rank; a late
		// fault-plan recovery must not resurrect it as a zombie member.
		return
	}
	if !m.crashed {
		if done != nil {
			done()
		}
		return
	}
	if m.recovering {
		return
	}
	m.recovering = true
	m.engine.Schedule(m.ReplayTime(), func() {
		m.recovering = false
		if m.net.Registered(m.addr) {
			// Superseded: a replacement daemon owns the rank now.
			return
		}
		m.crashed = false
		m.Counters.Recoveries++
		m.windowStart = m.engine.Now()
		m.busyWindow = 0
		m.reqWindow = 0
		m.net.Register(m.addr, m)
		m.Start()
		if done != nil {
			done()
		}
	})
}

// Crashed reports whether the MDS is down.
func (m *MDS) Crashed() bool { return m.crashed }

// ReplayTime is the modelled cost of replaying this daemon's journal: a
// fixed base plus a per-entry cost over its durable length.
func (m *MDS) ReplayTime() sim.Time {
	return m.cfg.RecoverBase + sim.Time(m.journal.Flushed())*m.cfg.RecoverPerEntry
}

// SetMonitor makes the MDS send liveness beacons to the monitor each tick.
func (m *MDS) SetMonitor(addr simnet.Addr) {
	m.monAddr = addr
	m.hasMon = true
}

// SetFencing arms membership-epoch fencing: epoch is this daemon's
// incarnation, current reads the store-authoritative epoch for the rank
// (must be safe to call from the daemon's execution context), and onFenced
// (optional) fires after a self-fence. Call before Start; never called in
// simulation, where fencing stays disabled and behaviour is unchanged.
func (m *MDS) SetFencing(epoch uint64, current func() uint64, onFenced func()) {
	m.epoch = epoch
	m.curEpoch = current
	m.onFenced = onFenced
}

// Epoch reports the daemon's membership epoch (0 = fencing disabled).
func (m *MDS) Epoch() uint64 { return m.epoch }

// superseded reports whether the store holds a newer epoch for this rank —
// i.e. the monitor declared this daemon failed and fenced it.
func (m *MDS) superseded() bool {
	return m.curEpoch != nil && m.curEpoch() > m.epoch
}

// Fenced reports whether this daemon may no longer serve its rank: it
// crashed, or the monitor fenced it with a newer epoch.
func (m *MDS) Fenced() bool { return m.crashed || m.superseded() }

// selfFence is the daemon's reaction to discovering it was replaced (the
// EBLOCKLISTED respawn in CephFS): crash — releasing frozen migration units
// and cancelling timers — and retire permanently, so neither a journal
// replay nor a late Recover can resurrect this incarnation. The rank itself
// lives on under its replacement daemon.
func (m *MDS) selfFence() {
	if m.retired {
		return
	}
	m.Counters.SelfFences++
	m.Crash()
	m.retired = true
	if m.onFenced != nil {
		m.onFenced()
	}
}

// resolved captures where a request landed in the namespace.
type resolved struct {
	dir  *namespace.Node // directory containing the dentry (nil for root ops)
	name string          // dentry name ("" for whole-dir ops)
	node *namespace.Node // target node, when it must exist
}

// resolve maps the request onto the namespace and reports the authoritative
// rank. Errors are user-visible failures.
func (m *MDS) resolve(r *Request) (res resolved, auth namespace.Rank, err error) {
	switch r.Op {
	case OpCreate, OpMkdir:
		dir, name, e := m.nsv.ResolveDirOf(r.Path)
		if e != nil {
			return res, 0, e
		}
		res = resolved{dir: dir, name: name}
		return res, m.ns.AuthForDentry(dir, name), nil
	case OpUnlink:
		dir, name, e := m.nsv.ResolveDirOf(r.Path)
		if e != nil {
			return res, 0, e
		}
		if _, ok := dir.Lookup(name); !ok {
			return res, 0, fmt.Errorf("unlink: %w: %s", namespace.ErrNotExist, r.Path)
		}
		res = resolved{dir: dir, name: name}
		return res, m.ns.AuthForDentry(dir, name), nil
	case OpRename:
		dir, name, e := m.nsv.ResolveDirOf(r.Path)
		if e != nil {
			return res, 0, e
		}
		res = resolved{dir: dir, name: name}
		return res, m.ns.AuthForDentry(dir, name), nil
	case OpReaddir:
		node, e := m.nsv.Resolve(r.Path)
		if e != nil {
			return res, 0, e
		}
		if !node.IsDir() {
			return res, 0, fmt.Errorf("readdir: %w: %s", namespace.ErrNotDir, r.Path)
		}
		res = resolved{dir: node}
		return res, m.ns.EffectiveAuth(node), nil
	default: // Getattr, Lookup, Open, Setattr
		node, e := m.nsv.Resolve(r.Path)
		if e != nil {
			return res, 0, e
		}
		// One read-lock hold each for the parent and the name: every
		// accessor takes the tree lock, which all ranks share.
		parent := node.Parent()
		if parent == nil {
			res = resolved{dir: node, node: node}
			return res, m.ns.EffectiveAuth(node), nil
		}
		res = resolved{dir: parent, name: node.Name(), node: node}
		return res, m.ns.AuthForDentry(parent, res.name), nil
	}
}

// serve performs the authority check and either forwards, defers (frozen),
// or executes the request.
func (m *MDS) serve(r *Request) {
	if m.tel != nil && r.enqueuedAt != 0 {
		wait := m.engine.Now() - r.enqueuedAt
		m.hQueueWait.Observe(float64(wait))
		if tr := m.tracer(); tr != nil && wait > 0 {
			tr.Complete(telemetry.PIDMDS, int(m.rank), "mds", "queue",
				r.enqueuedAt, wait, telemetry.Arg{Key: "trace", Val: r.TraceID})
		}
	}
	res, auth, err := m.resolve(r)
	if err != nil {
		// Resolution failures are cheap rejects billed like a lookup.
		rec := m.allocSvc(svcReject, r, res)
		rec.err = err
		m.startBusy(m.cfg.LookupSvc, rec)
		return
	}
	// Frozen subtree: park until the migration commits.
	frozen := false
	if res.name != "" {
		frozen = m.ns.FrozenFor(res.dir, res.name)
	} else if res.dir != nil {
		frozen = m.ns.FrozenFor(res.dir, "") || res.dir.Frozen()
	}
	if frozen {
		m.Counters.Deferred++
		m.deferred = append(m.deferred, r)
		m.kick()
		return
	}
	if auth != m.rank && !m.replicaRead(r, res) {
		// Misdirected: forward to the authority. Write intents this
		// request holds belong to a revoke it was parked on before the
		// authority moved; they must not travel with it.
		m.releaseWriteIntents(r)
		m.Counters.Forwards++
		r.Hops++
		m.cForwards.Add(1)
		if tr := m.tracer(); tr != nil {
			tr.Complete(telemetry.PIDMDS, int(m.rank), "mds", "forward "+r.Op.String(),
				m.engine.Now(), m.cfg.ForwardSvc,
				telemetry.Arg{Key: "trace", Val: r.TraceID},
				telemetry.Arg{Key: "to", Val: int64(auth)})
		}
		rec := m.allocSvc(svcForward, r, res)
		rec.auth = auth
		m.startBusy(m.cfg.ForwardSvc, rec)
		return
	}
	// Revoke-before-write: a mutation touching replicated state parks
	// until every holder acked (or the revoke timed out). The write
	// intents it registers block new grants until the mutation applies.
	if m.rep != nil && r.Op.Mutating() && res.dir != nil {
		if m.replicaBarrier(r, res) {
			m.kick()
			return
		}
	}
	m.Counters.Hits++
	svc := m.svcTime(r, res)
	if m.tel != nil {
		m.hService.Observe(float64(svc))
		if tr := m.tel.Tracer; tr != nil {
			tr.Complete(telemetry.PIDMDS, int(m.rank), "mds", "serve "+r.Op.String(),
				m.engine.Now(), svc,
				telemetry.Arg{Key: "path", Val: r.Path},
				telemetry.Arg{Key: "trace", Val: r.TraceID})
		}
	}
	m.startBusy(svc, m.allocSvc(svcServe, r, res))
}

// execute is the end of a served request's interval: apply it, then reply —
// after the journal write for a successful mutation, which keeps the record
// until it is acked.
func (m *MDS) execute(s *svcRec) {
	r, res := s.r, s.res
	// Fence check at the namespace boundary: the write (or read of
	// claimed authority) only proceeds if the store still agrees this
	// daemon owns its epoch. A superseded daemon rejects the operation
	// and self-fences — the client gets no reply and retries against
	// the replacement, exactly as with a crash.
	if m.superseded() {
		s.release()
		m.Counters.StaleRejects++
		m.selfFence()
		return
	}
	// Revoke-before-write invariant: by the time a mutation executes,
	// no rank may still hold a replica of the state it touches. The
	// registry's write intents guarantee this; the counter pins it
	// (the consistency soak asserts it stays zero).
	if m.rep != nil {
		for _, p := range r.heldPaths {
			if m.rep.Reg.HasHolders(p) {
				m.Counters.ReplicaWriteConflicts++
			}
		}
	}
	err := m.apply(r, res)
	m.releaseWriteIntents(r)
	m.Counters.Served++
	m.reqWindow++
	m.cServed.Add(1)
	if err != nil {
		m.Counters.Errors++
	} else if m.OnServed != nil {
		// Before the reply: once sent, r belongs to the requester.
		m.OnServed(m, r)
	}
	if r.Op.Mutating() && err == nil {
		// Journal before replying; the server is free to take
		// the next request while the journal write completes.
		m.cJournal.Add(1)
		if m.tracer() != nil {
			s.jstart = m.engine.Now()
		}
		m.journal.Append(rados.EntryUpdate, m.cfg.JournalBytesPerOp, s.ackedFn)
	} else {
		s.release()
		m.reply(r, res, err)
	}
	m.kick()
}

// svcTime models the CPU cost of executing the request.
func (m *MDS) svcTime(r *Request, res resolved) sim.Time {
	var penalty sim.Time
	if res.dir != nil {
		if k := res.dir.RankSpread(); k > 1 && r.Op.Mutating() && m.cfg.SharedDirPenaltyUS > 0 {
			penalty = sim.Time((k-1)*(k-1)*m.cfg.SharedDirPenaltyUS) * sim.Microsecond
		} else if m.cfg.CrossBoundPenaltyUS > 0 {
			if p := res.dir.Parent(); p != nil && m.ns.EffectiveAuth(p) != m.rank {
				penalty = sim.Time(m.cfg.CrossBoundPenaltyUS) * sim.Microsecond
			}
		}
	}
	svc := penalty + m.baseSvcTime(r, res) + m.fetchPenalty(r, res)
	if m.cfg.SvcJitterPct > 0 {
		f := 1 + (m.engine.Rand().Float64()*2-1)*m.cfg.SvcJitterPct/100
		svc = sim.Time(float64(svc) * f)
		if svc < sim.Microsecond {
			svc = sim.Microsecond
		}
	}
	return svc
}

// fetchPenalty models the dirfrag cache: under memory pressure, touching a
// fragment that has been cold longer than CacheCoolTime stalls on a fetch
// from the object store and records a FETCH hit (which Table 1's metaload
// weights at 2x).
func (m *MDS) fetchPenalty(r *Request, res resolved) sim.Time {
	if m.cfg.CacheCapacity <= 0 || m.cfg.CacheCoolTime <= 0 || res.dir == nil || res.name == "" {
		return 0
	}
	if r.viaReplica {
		// A replica read serves from the holder's own copy of the dirfrag
		// (the grant shipped it), so it is warm by construction — and the
		// frag's LastAccess/counters belong to the auth rank's actor.
		return 0
	}
	if m.ns.NumNodes() <= m.cfg.CacheCapacity {
		return 0
	}
	fs, ok := res.dir.FragStateOf(res.dir.FragOfName(res.name))
	if !ok {
		return 0
	}
	now := m.engine.Now()
	if fs.LastAccess != 0 && now-fs.LastAccess <= m.cfg.CacheCoolTime {
		return 0
	}
	m.Counters.Fetches++
	m.nsv.RecordOp(res.dir, res.name, namespace.OpFetch, now)
	return m.cfg.FetchSvc
}

func (m *MDS) baseSvcTime(r *Request, res resolved) sim.Time {
	switch r.Op {
	case OpCreate:
		return m.cfg.CreateSvc
	case OpMkdir:
		return m.cfg.MkdirSvc
	case OpGetattr:
		return m.cfg.GetattrSvc
	case OpLookup:
		return m.cfg.LookupSvc
	case OpOpen:
		return m.cfg.OpenSvc
	case OpUnlink:
		return m.cfg.UnlinkSvc
	case OpRename:
		return m.cfg.RenameSvc
	case OpSetattr:
		return m.cfg.SetattrSvc
	case OpReaddir:
		svc := m.cfg.ReaddirSvc
		if res.dir != nil {
			svc += sim.Time(res.dir.NumChildren() * m.cfg.ReaddirPerEntryNs / 1000)
		}
		if svc > m.cfg.ReaddirMaxSvc {
			svc = m.cfg.ReaddirMaxSvc
		}
		return svc
	default:
		return m.cfg.LookupSvc
	}
}

// apply executes the namespace mutation/read and updates popularity
// counters (RecordOp propagates heat up the tree, Figure 1's mechanism).
func (m *MDS) apply(r *Request, res resolved) error {
	now := m.engine.Now()
	switch r.Op {
	case OpCreate, OpMkdir:
		if _, err := m.nsv.Create(res.dir, res.name, r.Op == OpMkdir); err != nil {
			return err
		}
		m.nsv.RecordOp(res.dir, res.name, namespace.OpIWR, now)
		m.maybeSplit(res.dir, res.name)
		return nil
	case OpUnlink:
		if err := m.ns.Remove(res.dir, res.name); err != nil {
			return err
		}
		m.nsv.RecordOp(res.dir, res.name, namespace.OpIWR, now)
		m.maybeMerge(res.dir, res.name)
		return nil
	case OpRename:
		dstDir, dstName, err := m.nsv.ResolveDirOf(r.DstPath)
		if err != nil {
			return err
		}
		if err := m.ns.Rename(res.dir, res.name, dstDir, dstName); err != nil {
			return err
		}
		m.nsv.RecordOp(res.dir, res.name, namespace.OpIWR, now)
		m.nsv.RecordOp(dstDir, dstName, namespace.OpIWR, now)
		return nil
	case OpReaddir:
		if r.viaReplica {
			m.nsv.RecordOpRemote(res.dir, "", namespace.OpReaddir, now)
		} else {
			m.nsv.RecordOp(res.dir, "", namespace.OpReaddir, now)
		}
		return nil
	case OpSetattr:
		m.nsv.RecordOp(res.dir, res.name, namespace.OpIWR, now)
		return nil
	default: // Getattr, Lookup, Open
		if r.viaReplica {
			// Replica-served read: this rank is not the frag's writer, so
			// the charge defers through the domain log (fold under the
			// write lock) instead of hitting the frag counters inline.
			m.nsv.RecordOpRemote(res.dir, res.name, namespace.OpIRD, now)
		} else {
			m.nsv.RecordOp(res.dir, res.name, namespace.OpIRD, now)
		}
		return nil
	}
}

// maybeSplit fragments the dirfrag holding name once it exceeds SplitSize
// (the GIGA+-equivalent mechanism; the shared-directory experiments split at
// 50 000 entries into 2^3 dirfrags).
func (m *MDS) maybeSplit(dir *namespace.Node, name string) {
	if m.cfg.SplitSize <= 0 {
		return
	}
	frag := dir.FragOfName(name)
	fs, ok := dir.FragStateOf(frag)
	if !ok || fs.Entries < m.cfg.SplitSize || fs.Frozen() {
		return
	}
	if int(frag.Bits)+int(m.cfg.SplitBits) > 24 {
		return // pathological depth guard
	}
	m.ns.SplitDir(dir, frag, m.cfg.SplitBits, m.engine.Now())
	m.Counters.Splits++
	m.nsv.RecordOp(dir, "", namespace.OpStore, m.engine.Now())
	m.journal.Append(rados.EntryUpdate, m.cfg.JournalBytesPerOp, nil)
}

// maybeMerge coalesces a shrunken sibling group of dirfrags back into its
// parent fragment after an unlink (the merge direction of GIGA+-style
// fragmentation).
func (m *MDS) maybeMerge(dir *namespace.Node, name string) {
	if m.cfg.MergeSize <= 0 || m.cfg.SplitBits == 0 {
		return
	}
	frag := dir.FragOfName(name)
	if frag.Bits < m.cfg.SplitBits {
		return
	}
	parent := frag
	for i := uint8(0); i < m.cfg.SplitBits; i++ {
		parent = parent.Parent()
	}
	total := 0
	for _, k := range parent.Split(m.cfg.SplitBits) {
		fs, ok := dir.FragStateOf(k)
		if !ok || fs.Frozen() {
			return
		}
		total += fs.Entries
	}
	if total >= m.cfg.MergeSize {
		return
	}
	if m.ns.MergeDir(dir, parent, m.cfg.SplitBits, m.engine.Now()) {
		m.Counters.Merges++
		m.nsv.RecordOp(dir, "", namespace.OpStore, m.engine.Now())
		m.journal.Append(rados.EntryUpdate, m.cfg.JournalBytesPerOp, nil)
	}
}

// reply sends the response with routing hints for the touched directory. It
// answers inside the request record and is the MDS's last touch of it: once
// sent, the record belongs to the requester again.
func (m *MDS) reply(r *Request, res resolved, err error) {
	if m.crashed {
		return
	}
	var text string
	if err != nil {
		text = err.Error()
	}
	rep := r.Answer(text)
	rep.Served, rep.Forwards = m.rank, r.Hops
	if res.dir != nil {
		h := hintFor(m.ns, res.dir)
		if m.rep != nil {
			// Replica placement rides on every hint for the exact
			// directory: nil Replicas clears whatever the client learned
			// earlier, so a revoked set never lingers client-side.
			p := res.dir.Path()
			if h.DirPath == p {
				h.Replicas = m.rep.Reg.Holders(p)
				rep.Hints = append(rep.hint[:0], h)
			} else {
				rep.Hints = append(rep.hint[:0], h, Hint{
					DirPath: p, Rank: m.ns.EffectiveAuth(res.dir),
					Replicas: m.rep.Reg.Holders(p),
				})
			}
		} else {
			rep.Hints = append(rep.hint[:0], h)
		}
	}
	m.net.Send(m.addr, r.Client, rep)
}

// hintFor builds the client routing hint: the top of the same-authority
// subtree containing dir, plus per-fragment authorities when dir's frags
// are split across ranks.
func hintFor(ns *namespace.Namespace, dir *namespace.Node) Hint {
	top, rank := ns.SubtreeTop(dir)
	h := Hint{DirPath: top, Rank: rank}
	// Fragment-level hints are attached for the exact directory.
	if dir.NumFragLeaves() > 1 {
		split := false
		var fh []FragHint
		for _, f := range dir.FragLeaves() {
			fr := rank
			if fs, ok := dir.FragStateOf(f); ok && fs.Auth() != namespace.RankNone {
				fr = fs.Auth()
			}
			if fr != rank {
				split = true
			}
			fh = append(fh, FragHint{Frag: f, Rank: fr})
		}
		if split {
			h = Hint{DirPath: dir.Path(), Rank: rank, Frags: fh}
		}
	}
	return h
}

// retryDeferred re-queues requests parked on frozen subtrees.
func (m *MDS) retryDeferred() {
	if len(m.deferred) == 0 {
		return
	}
	batch := m.deferred
	m.deferred = nil
	for _, r := range batch {
		m.enqueue(r)
	}
}
