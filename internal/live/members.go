package live

import (
	"fmt"
	"time"

	"mantle/internal/balancer"
	"mantle/internal/core"
	"mantle/internal/elastic"
	"mantle/internal/mds"
	"mantle/internal/mon"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// Rank membership in the live runtime. Standby takeover, failed-rank
// reassignment and elastic growth and shrinkage are internal/elastic's,
// shared with the simulator; this file is the live runtime's seam under
// them, plus the monitor's and the coordinator's wiring. Both run on the
// controller actor: their ticks, sweeps and replay timers post to the
// controller's mailbox and execute under the controller's shard, and beacons
// flow from each rank over the live transport like any other message.
// Reaching into a rank — reading metrics, starting a drain, retiring or
// replacing a daemon — locks that rank's shard (ascending order when several
// are involved), the only cross-shard locking in the runtime.
//
// Fencing is the split-brain guard. The monitor issues a new epoch at every
// failure declaration and publishes it to rt.epochs, the shared fencing
// table (the mdsmap/RADOS-blocklist analogue: it lives on the "store
// plane", so a daemon cut off at the message plane still observes it). A
// daemon whose epoch is below the table's is a zombie: its sends drop at
// the transport (fencedNet), its namespace writes are rejected on the serve
// path (StaleRejects), and at its next balancer tick it discovers the
// supersession and self-fences — crash, release frozen units, return its
// node to the standby pool. Registration is epoch-owned, so the zombie can
// neither reclaim its address nor unregister its replacement.

// liveMonAddr is the monitor's transport address (same slot the simulated
// cluster uses; far above any provisioned rank or client address base).
const liveMonAddr = simnet.Addr(1 << 15)

// TakeoverEvent records one standby promotion, including the MTTR the
// report surfaces: declare→serving wall time, which must stay within the
// grace + modelled-replay budget.
type TakeoverEvent struct {
	Rank           int           `json:"rank"`
	Epoch          uint64        `json:"epoch"`
	JournalEntries uint64        `json:"journal_entries"`
	Replay         time.Duration `json:"replay"`
	MTTR           time.Duration `json:"mttr"`
}

// ensureController creates the controller actor, its clock and the
// membership layer on it. The controller owns the last shard.
func (rt *Runtime) ensureController() {
	if rt.controller != nil {
		return
	}
	rt.controller = newActor(rt, 1, rt.ctrlShard())
	rt.ctrlClock = &rankClock{rt: rt, a: rt.controller, rng: newRankRand(rt.cfg.Seed, len(rt.mdsAddrs)+1)}
	rt.membership = elastic.NewMembers(rt.ctrlClock, (*host)(rt))
}

// setupMonitor wires the failure detector onto the controller actor. Called
// from New after the initial ranks are built (they are primed here) and
// after ensureController.
func (rt *Runtime) setupMonitor() {
	grace := rt.cfg.MonGrace
	if grace <= 0 {
		grace = 4 * rt.cfg.MDS.HeartbeatInterval.Duration()
	}
	interval := rt.cfg.MonInterval
	if interval <= 0 {
		interval = rt.cfg.MDS.HeartbeatInterval.Duration()
	}
	mcfg := mon.Config{
		CheckInterval: sim.Time(interval / time.Microsecond),
		Grace:         sim.Time(grace / time.Microsecond),
	}
	if rt.cfg.LoadStale > 0 {
		mcfg.LoadStale = sim.Time(rt.cfg.LoadStale / time.Microsecond)
	}
	rt.transport.bind(liveMonAddr, rt.controller)
	rt.mon = rt.membership.NewMonitor(liveMonAddr, rt.transport, mcfg, rt.cfg.Standbys)
	rt.mon.OnEpoch = func(rank namespace.Rank, epoch uint64) { rt.publishEpoch(int(rank), epoch) }
	for r, m := range rt.members() {
		rt.mon.SetEpoch(namespace.Rank(r), m.Epoch())
	}
}

// setupElastic wires the when_elastic hook and the coordinator. Called from
// New when cfg.MaxRanks > 0, after ensureController.
func (rt *Runtime) setupElastic() error {
	cfg := rt.cfg
	if cfg.MaxRanks > len(rt.mdsAddrs) {
		return fmt.Errorf("live: MaxRanks %d beyond provisioned table", cfg.MaxRanks)
	}
	src := cfg.ElasticPolicy
	if src == "" {
		src = core.DefaultElasticScript
	}
	hook, err := core.NewElasticHook(src, core.Options{})
	if err != nil {
		return fmt.Errorf("live: when_elastic hook: %w", err)
	}
	// The coordinator journals membership transitions to its own
	// object-store instance, like each rank journals metadata.
	pool := rados.NewCluster(rt.ctrlClock, cfg.Rados).Pool("cephfs_metadata")
	ecfg := elastic.DefaultConfig(cfg.MDS.HeartbeatInterval)
	if cfg.Elastic != nil {
		ecfg = *cfg.Elastic
	}
	ecfg.MaxRanks = cfg.MaxRanks
	ecfg.MinRanks = cfg.MinRanks
	if ecfg.MinRanks < 1 {
		ecfg.MinRanks = 1
	}
	co, err := elastic.New(rt.membership, hook, rados.NewJournal(pool, "elastic", 0), ecfg)
	if err != nil {
		return err
	}
	rt.coord = co
	return nil
}

// Coordinator exposes the membership coordinator (nil for a fixed cluster).
func (rt *Runtime) Coordinator() *elastic.Coordinator { return rt.coord }

// Monitor exposes the failure detector (nil when self-healing is off).
// Its state is controller-actor-owned: inspect it only while the runtime
// is quiesced or from controller closures.
func (rt *Runtime) Monitor() *mon.Monitor { return rt.mon }

// wireFencing attaches a daemon to the fencing table: its own epoch, the
// table read (the "mdsmap revalidation" it performs on ticks and writes),
// and the self-fence hook that returns its node to the standby pool. The
// refund is posted to the controller — a rank actor must not take the
// controller's shard directly.
func (rt *Runtime) wireFencing(m *mds.MDS, r int, epoch uint64) {
	m.SetMonitor(liveMonAddr)
	m.SetFencing(epoch,
		func() uint64 { return rt.epochs[r].Load() },
		func() { rt.controller.post(rt.membership.Refund) })
}

// epochAt reads the fencing table for a rank slot (0 = never fenced).
func (rt *Runtime) epochAt(r int) uint64 { return rt.epochs[r].Load() }

// publishEpoch raises the fencing table entry to epoch (monotonic: the
// table never regresses, whatever order monitor bumps and daemon builds
// land in).
func (rt *Runtime) publishEpoch(r int, epoch uint64) {
	for {
		cur := rt.epochs[r].Load()
		if epoch <= cur || rt.epochs[r].CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// ActiveRanks reports the current membership size (elastic growth/shrink
// included) — fault injectors use it to pick live victims.
func (rt *Runtime) ActiveRanks() int {
	rt.memberMu.RLock()
	defer rt.memberMu.RUnlock()
	return len(rt.mdss)
}

// retiredCounters snapshots counters of daemons that left the cluster
// (report folding).
func (rt *Runtime) retiredCounters() []mds.Counters {
	rt.memberMu.RLock()
	defer rt.memberMu.RUnlock()
	return append([]mds.Counters(nil), rt.retired...)
}

// host is the live runtime's elastic.Host. New builds the initial ranks
// through it; every later call comes from the controller actor.
type host Runtime

func (h *host) rt() *Runtime { return (*Runtime)(h) }

func (h *host) Ranks() int { return h.rt().ActiveRanks() }

// WithRank runs fn on rank's daemon under that rank's shard lock.
func (h *host) WithRank(rank namespace.Rank, fn func(elastic.Daemon)) {
	rt := h.rt()
	rt.memberMu.RLock()
	m := rt.mdss[rank]
	rt.memberMu.RUnlock()
	rt.shards[rank].Lock()
	fn(m)
	rt.shards[rank].Unlock()
}

// Build constructs rank's daemon on its own object-store instance (journal
// completions post back to the owning actor; journals are rank-named, so
// nothing is shared between instances). A monitored daemon gets the next
// epoch of its slot and sees the transport through the fencing wrapper that
// stamps it; unmonitored runtimes use the raw transport. A new slot also
// gets its actor and clock, whose loop starts at once on a running runtime;
// a replacement keeps the slot's actor and clock, and the zombie it
// supersedes is kept for report folding — its registration is evicted
// inside mds.New, the blocklist taking effect at the message plane.
func (h *host) Build(rank namespace.Rank) error {
	rt := h.rt()
	r := int(rank)
	bal, err := rt.cfg.Factory(rank)
	if err != nil {
		return fmt.Errorf("live: balancer for rank %d: %w", r, err)
	}
	var rep *mds.Replication
	if rt.repReg != nil {
		// Each rank compiles its own hook (Lua VMs are not goroutine-safe).
		hook, err := core.NewReplicateHook(rt.cfg.ReplicaPolicy, core.Options{})
		if err != nil {
			return fmt.Errorf("live: when_replicate for rank %d: %w", r, err)
		}
		maxRep := rt.cfg.ReplicaMax
		if maxRep <= 0 {
			maxRep = 2
		}
		rep = &mds.Replication{Reg: rt.repReg, When: hook.Eval, MaxReplicas: maxRep}
	}
	rt.memberMu.RLock()
	replace := r < len(rt.mdss)
	var a *actor
	var clk *rankClock
	if replace {
		a, clk = rt.actors[r], rt.clocks[r]
	}
	rt.memberMu.RUnlock()
	if !replace {
		a = newActor(rt, rt.cfg.MailboxDepth, rt.shards[r])
		clk = &rankClock{rt: rt, a: a, rng: newRankRand(rt.cfg.Seed, r)}
		rt.transport.bind(rt.mdsAddrs[r], a)
	}
	store := rados.NewCluster(clk, rt.cfg.Rados)
	net := simnet.Transport(rt.transport)
	var epoch uint64
	if rt.monitored {
		epoch = rt.epochs[r].Add(1)
		net = &fencedNet{t: rt.transport, rank: r, epoch: epoch}
	}
	m := mds.New(rank, rt.mdsAddrs[r], clk, net, rt.ns, store.Pool("cephfs_metadata"),
		rt.cfg.MDS, balancer.NewVersioned(bal), rt.mdsAddrs)
	if rep != nil {
		m.SetReplication(rep)
	}
	if rt.monitored {
		rt.wireFencing(m, r, epoch)
		if rt.mon != nil {
			// Prime the monitor so a pre-beacon failure still fences this
			// daemon's epoch (initial ranks are primed in setupMonitor).
			rt.mon.SetEpoch(rank, epoch)
		}
	}
	limit := rt.cfg.AdmitQueue
	a.mu.Lock()
	a.admit = func() bool { return m.QueueLen() < limit }
	a.mu.Unlock()
	rt.memberMu.Lock()
	if replace {
		m.Counters.Recoveries++
		rt.zombies = append(rt.zombies, zombieMDS{rank: r, m: rt.mdss[r]})
		rt.mdss[r], rt.radoses[r] = m, store
		rt.memberMu.Unlock()
		return nil
	}
	rt.actors = append(rt.actors, a)
	rt.clocks = append(rt.clocks, clk)
	rt.mdss = append(rt.mdss, m)
	rt.radoses = append(rt.radoses, store)
	started := rt.started
	rt.memberMu.Unlock()
	if started {
		rt.wg.Add(1)
		go a.loop(&rt.wg)
	}
	return nil
}

// Truncate drops the retired slots from n up. Each counter snapshot is taken
// under the slot's shard and the truncation under memberMu, separately:
// shards are never held together with memberMu. The retired actor's
// goroutine exits once its mailbox empties.
func (h *host) Truncate(n int) {
	rt := h.rt()
	rt.memberMu.RLock()
	gone := append([]*mds.MDS(nil), rt.mdss[n:]...)
	actors := append([]*actor(nil), rt.actors[n:]...)
	rt.memberMu.RUnlock()
	counters := make([]mds.Counters, len(gone))
	for i, m := range gone {
		rt.shards[n+i].Lock()
		counters[i] = m.Counters
		rt.shards[n+i].Unlock()
		actors[i].retire()
		if rt.monitored {
			// Fence stragglers from the retired incarnation: a regrown
			// rank at this slot joins above this epoch, and late messages
			// from the retired daemon's timers drop at the transport.
			rt.epochs[n+i].Add(1)
		}
	}
	rt.memberMu.Lock()
	rt.retired = append(rt.retired, counters...)
	rt.mdss = rt.mdss[:n]
	rt.actors = rt.actors[:n]
	rt.clocks = rt.clocks[:n]
	rt.radoses = rt.radoses[:n]
	rt.memberMu.Unlock()
}

// SetSize publishes n to every daemon, the load generator's router clamp
// and the monitor (a grown rank gets a fresh grace window before the next
// sweep can declare it).
func (h *host) SetSize(n int) {
	rt := h.rt()
	for r, m := range rt.members() {
		rt.shards[r].Lock()
		m.SetClusterSize(n)
		rt.shards[r].Unlock()
	}
	rt.gen.rtr.setNumRanks(n)
	if rt.mon != nil {
		rt.mon.SetNumRanks(n)
	}
}

// Metrics feeds the hook: live queue depth read directly from each MDS, the
// rank's advertised load metrics, and the generator's recent per-rank served
// latency (the open-loop measurement the SLO uses).
func (h *host) Metrics() []core.ElasticRankMetrics {
	rt := h.rt()
	mdss := rt.members()
	out := make([]core.ElasticRankMetrics, len(mdss))
	for r, m := range mdss {
		rt.shards[r].Lock()
		hb := m.LastHeartbeat()
		q := m.QueueLen()
		rt.shards[r].Unlock()
		out[r] = core.ElasticRankMetrics{
			Queue: float64(q),
			Req:   hb.Req,
			CPU:   hb.CPU,
			Load:  hb.Auth,
			LatMS: rt.gen.rankLatencyMs(r),
		}
	}
	return out
}

// Fence has nothing left to do: the failure declaration already raised the
// rank's epoch in the fencing table (Monitor.OnEpoch), which fences whatever
// daemon held the rank from that instant.
func (h *host) Fence(namespace.Rank) {}

func (h *host) Reassign(failed namespace.Rank, survivors []namespace.Rank) {
	h.reassigns += uint64(h.ns.ReassignBounds(failed, survivors))
}

var _ elastic.Host = (*host)(nil)
