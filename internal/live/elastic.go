package live

import (
	"fmt"

	"mantle/internal/core"
	"mantle/internal/elastic"
	"mantle/internal/mds"
	"mantle/internal/namespace"
	"mantle/internal/rados"
)

// Elastic membership in the live runtime. The coordinator runs on a
// dedicated controller actor: its ticks and polls post to the controller's
// mailbox and execute under the controller's shard lock. Reaching into a
// rank — reading metrics, starting a drain, retiring a daemon — locks that
// rank's shard (ascending order when several are involved), which is the
// only cross-shard locking in the runtime. A join builds a rank
// (actor + clock + object store + MDS) as a standby, activates it, and
// widens the router's clamp; a leave drains the top rank through the
// ordinary migration path, retires the daemon, and lets its actor goroutine
// exit after the mailbox empties.

// setupElastic wires the controller actor, the when_elastic hook, and the
// coordinator. Called from New when cfg.MaxRanks > 0.
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
	rt.ensureController()
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
	co, err := elastic.New(rt.ctrlClock, (*liveHost)(rt), hook, rados.NewJournal(pool, "elastic", 0), ecfg)
	if err != nil {
		return err
	}
	rt.coord = co
	return nil
}

// Coordinator exposes the membership coordinator (nil for a fixed cluster).
func (rt *Runtime) Coordinator() *elastic.Coordinator { return rt.coord }

// liveHost adapts the runtime to elastic.Host. Every method is invoked from
// coordinator callbacks on the controller actor (under the controller's
// shard); touching a rank's MDS additionally takes that rank's shard, in
// ascending order when fanning out, per the Runtime.shards discipline.
type liveHost Runtime

func (h *liveHost) rt() *Runtime { return (*Runtime)(h) }

func (h *liveHost) ActiveRanks() int {
	rt := h.rt()
	rt.memberMu.RLock()
	defer rt.memberMu.RUnlock()
	return len(rt.mdss)
}

// withRank runs fn on rank's daemon under that rank's shard lock.
func (h *liveHost) withRank(rank namespace.Rank, fn func(*mds.MDS)) {
	rt := h.rt()
	rt.memberMu.RLock()
	m := rt.mdss[rank]
	rt.memberMu.RUnlock()
	rt.shards[rank].Lock()
	fn(m)
	rt.shards[rank].Unlock()
}

// Metrics feeds the hook: live queue depth read directly from each MDS, the
// rank's advertised load metrics, and the generator's recent per-rank served
// latency (the open-loop measurement the SLO uses).
func (h *liveHost) Metrics() []core.ElasticRankMetrics {
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

func (h *liveHost) SpawnStandby(rank namespace.Rank) error {
	rt := h.rt()
	rt.memberMu.RLock()
	active := len(rt.mdss)
	started := rt.started
	rt.memberMu.RUnlock()
	if int(rank) != active {
		return fmt.Errorf("live: spawn for rank %d but active set is [0, %d)", rank, active)
	}
	m, err := rt.buildRank(int(rank))
	if err != nil {
		return err
	}
	rt.shards[rank].Lock()
	m.SetClusterSize(int(rank) + 1)
	rt.shards[rank].Unlock()
	if started {
		rt.memberMu.RLock()
		a := rt.actors[rank]
		rt.memberMu.RUnlock()
		rt.wg.Add(1)
		go a.loop(&rt.wg)
	}
	return nil
}

func (h *liveHost) ActivateRank(rank namespace.Rank, newSize int) {
	rt := h.rt()
	for r, m := range rt.members() {
		rt.shards[r].Lock()
		m.SetClusterSize(newSize)
		if r == int(rank) {
			m.Start()
		}
		rt.shards[r].Unlock()
	}
	rt.gen.rtr.setNumRanks(newSize)
	if rt.mon != nil {
		// Runs on the controller actor: the grown rank gets a fresh grace
		// window before the next sweep can declare it.
		rt.mon.SetNumRanks(newSize)
	}
}

func (h *liveHost) AbortStandby(rank namespace.Rank) {
	h.removeRank(rank, int(rank), 0)
}

func (h *liveHost) StartDrain(rank namespace.Rank) {
	h.withRank(rank, func(m *mds.MDS) { m.StartDrain() })
}
func (h *liveHost) AbortDrain(rank namespace.Rank) {
	h.withRank(rank, func(m *mds.MDS) { m.AbortDrain() })
}
func (h *liveHost) Draining(rank namespace.Rank) bool {
	var v bool
	h.withRank(rank, func(m *mds.MDS) { v = m.Draining() })
	return v
}
func (h *liveHost) DrainComplete(rank namespace.Rank) bool {
	var v bool
	h.withRank(rank, func(m *mds.MDS) { v = m.DrainComplete() })
	return v
}
func (h *liveHost) RankCrashed(rank namespace.Rank) bool {
	var v bool
	h.withRank(rank, func(m *mds.MDS) { v = m.Crashed() })
	return v
}

func (h *liveHost) RetireRank(rank namespace.Rank, newSize int) {
	h.removeRank(rank, newSize, newSize)
}

// removeRank retires rank's daemon under its shard, truncates the
// membership slices to newSize under memberMu, and — when fanout > 0 —
// pushes the shrunk cluster size to the survivors and narrows the router
// clamp. The retire and the truncation are separate critical sections by
// design: shards are never held together with memberMu.
func (h *liveHost) removeRank(rank namespace.Rank, newSize, fanout int) {
	rt := h.rt()
	rt.memberMu.RLock()
	m, a := rt.mdss[rank], rt.actors[rank]
	rt.memberMu.RUnlock()
	rt.shards[rank].Lock()
	m.Retire()
	c := m.Counters
	rt.shards[rank].Unlock()
	a.retire()
	rt.memberMu.Lock()
	rt.retired = append(rt.retired, c)
	rt.mdss = rt.mdss[:newSize]
	rt.actors = rt.actors[:newSize]
	rt.clocks = rt.clocks[:newSize]
	rt.radoses = rt.radoses[:newSize]
	rt.memberMu.Unlock()
	if rt.monitored {
		// Fence stragglers from the retired incarnation: a regrown rank at
		// this slot joins above this epoch, and late messages from the
		// retired daemon's timers drop at the transport.
		rt.epochs[rank].Add(1)
		if rt.mon != nil {
			rt.mon.SetNumRanks(newSize)
		}
	}
	if fanout == 0 {
		return
	}
	for r, s := range rt.members() {
		rt.shards[r].Lock()
		s.SetClusterSize(fanout)
		rt.shards[r].Unlock()
	}
	rt.gen.rtr.setNumRanks(fanout)
}

func (h *liveHost) ForceReassign(rank namespace.Rank, newSize int) {
	rt := h.rt()
	mdss := rt.members()
	var live []namespace.Rank
	for r := 0; r < newSize && r < len(mdss); r++ {
		rt.shards[r].Lock()
		crashed := mdss[r].Crashed()
		rt.shards[r].Unlock()
		if !crashed {
			live = append(live, namespace.Rank(r))
		}
	}
	rt.reassigns += uint64(rt.ns.ReassignBounds(rank, live))
}

var _ elastic.Host = (*liveHost)(nil)

// retiredCounters snapshots counters of daemons that left the cluster
// (report folding).
func (rt *Runtime) retiredCounters() []mds.Counters {
	rt.memberMu.RLock()
	defer rt.memberMu.RUnlock()
	return append([]mds.Counters(nil), rt.retired...)
}
