package live

import (
	"fmt"
	"time"

	"mantle/internal/balancer"
	"mantle/internal/mds"
	"mantle/internal/mon"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// Self-healing for the live runtime. The monitor (internal/mon, the same
// failure detector the simulator runs) is hosted on the controller actor:
// its address is bound to the controller, so beacon handling and liveness
// sweeps execute as controller closures under the controller's shard, and
// beacons flow from each rank over the live transport like any other
// message. A rank whose beacons go silent past the grace window is declared
// failed, fenced by a new membership epoch, and — when the standby pool has
// capacity — replaced by a fresh daemon after modelled journal replay.
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

// ensureController creates the controller actor and its clock if no prior
// setup (elastic) already did. The controller owns the last shard.
func (rt *Runtime) ensureController() {
	if rt.controller != nil {
		return
	}
	rt.controller = newActor(rt, 1, rt.ctrlShard())
	rt.ctrlClock = &rankClock{rt: rt, a: rt.controller, rng: newRankRand(rt.cfg.Seed, len(rt.mdsAddrs)+1)}
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
	rt.standbys = rt.cfg.Standbys
	rt.transport.bind(liveMonAddr, rt.controller)
	rt.mon = mon.New(liveMonAddr, rt.ctrlClock, rt.transport, rt.cfg.Ranks, mcfg, rt.takeover)
	rt.mon.OnEpoch = func(rank namespace.Rank, epoch uint64) { rt.publishEpoch(int(rank), epoch) }
	rt.mon.OnFail = rt.reassignFailed
	rt.memberMu.RLock()
	mdss := append([]*mds.MDS(nil), rt.mdss...)
	rt.memberMu.RUnlock()
	for r, m := range mdss {
		rt.mon.SetEpoch(namespace.Rank(r), m.Epoch())
	}
}

// wireFencing attaches a daemon to the fencing table: its own epoch, the
// table read (the "mdsmap revalidation" it performs on ticks and writes),
// and the self-fence hook that returns its node to the standby pool. The
// refund is posted to the controller — a rank actor must not take the
// controller's shard directly.
func (rt *Runtime) wireFencing(m *mds.MDS, r int, epoch uint64) {
	m.SetMonitor(liveMonAddr)
	m.SetFencing(epoch,
		func() uint64 { return rt.epochs[r].Load() },
		func() { rt.controller.post(func() { rt.standbys++ }) })
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

// StandbysLeft reports the remaining standby pool (post-run inspection).
func (rt *Runtime) StandbysLeft() int {
	cs := rt.ctrlShard()
	cs.Lock()
	defer cs.Unlock()
	return rt.standbys
}

// takeover is the monitor's TakeoverFunc. It runs on the controller actor
// (the monitor's sweep is a controller closure) under the controller's
// shard. The failure declaration already bumped the fencing table via
// OnEpoch, so whatever daemon held the rank is fenced from this instant;
// here we consume a standby, model journal replay on the controller clock,
// and swap in a replacement at a fresh epoch on the same actor.
func (rt *Runtime) takeover(rank namespace.Rank) bool {
	r := int(rank)
	rt.memberMu.RLock()
	active := len(rt.mdss)
	var old *mds.MDS
	if r < active {
		old = rt.mdss[r]
	}
	rt.memberMu.RUnlock()
	if old == nil {
		// Elastically retired while failed: nothing to take over, and no
		// standby is consumed.
		return true
	}
	if rt.standbys <= 0 {
		return false
	}
	rt.standbys--
	declared := time.Now()
	// The journal is mutated on the rank's actor; read its length under
	// the rank's shard (controller → rank shard is the ordered path).
	rt.shards[r].Lock()
	flushed := old.Journal().Flushed()
	rt.shards[r].Unlock()
	replay := rt.cfg.MDS.RecoverBase + sim.Time(flushed)*rt.cfg.MDS.RecoverPerEntry
	rt.ctrlClock.Schedule(replay, func() {
		rt.memberMu.RLock()
		still := r < len(rt.mdss) && rt.mdss[r] == old
		rt.memberMu.RUnlock()
		if !still {
			// The rank was elastically retired (or already replaced)
			// while the standby replayed; return it to the pool.
			rt.standbys++
			return
		}
		_, epoch, err := rt.buildReplacement(r)
		if err != nil {
			// A broken factory cannot be surfaced mid-run; leave the
			// rank down (the monitor keeps reporting it).
			rt.standbys++
			return
		}
		// The replacement is serving as of now: refresh its beacon grace
		// from promotion time, not declaration time — a replay longer than
		// the sweep's double-grace allowance must not get the fresh daemon
		// re-declared before its first beacon.
		rt.mon.Promoted(rank)
		rt.zombies = append(rt.zombies, zombieMDS{rank: r, m: old})
		rt.takeovers = append(rt.takeovers, TakeoverEvent{
			Rank:           r,
			Epoch:          epoch,
			JournalEntries: flushed,
			Replay:         replay.Duration(),
			MTTR:           time.Since(declared),
		})
	})
	return true
}

// buildReplacement constructs a fresh daemon for rank slot r on the rank's
// existing actor and clock, at a new membership epoch. Runs on the
// controller actor under the controller's shard; the swap into the running
// actor happens under the rank's shard (and the admit swap under the
// actor's mailbox lock, where loop() reads it).
func (rt *Runtime) buildReplacement(r int) (*mds.MDS, uint64, error) {
	rank := namespace.Rank(r)
	bal, err := rt.cfg.Factory(rank)
	if err != nil {
		return nil, 0, fmt.Errorf("live: balancer for rank %d: %w", r, err)
	}
	rt.memberMu.RLock()
	a, clk := rt.actors[r], rt.clocks[r]
	active := len(rt.mdss)
	rt.memberMu.RUnlock()
	epoch := rt.epochs[r].Add(1)
	net := &fencedNet{t: rt.transport, rank: r, epoch: epoch}
	store := rados.NewCluster(clk, rt.cfg.Rados)
	pool := store.Pool("cephfs_metadata")
	// Registration inside mds.New evicts the zombie's endpoint (lower
	// epoch) — the blocklist taking effect at the message plane.
	m := mds.New(rank, rt.mdsAddrs[r], clk, net, rt.ns, pool,
		rt.cfg.MDS, balancer.NewVersioned(bal), rt.mdsAddrs)
	rt.wireFencing(m, r, epoch)
	rt.mon.SetEpoch(rank, epoch)
	m.Counters.Recoveries++
	rt.memberMu.Lock()
	rt.mdss[r] = m
	rt.radoses[r] = store
	rt.memberMu.Unlock()
	rt.shards[r].Lock()
	m.SetClusterSize(active)
	limit := rt.cfg.AdmitQueue
	a.mu.Lock()
	a.admit = func() bool { return m.QueueLen() < limit }
	a.mu.Unlock()
	m.Start()
	rt.shards[r].Unlock()
	return m, epoch, nil
}

// reassignFailed is the monitor's OnFail: a rank was declared failed and no
// standby absorbed it, so its subtrees move to the survivors (round-robin
// in deterministic path order) instead of staying unanswerable. Runs on
// the controller actor.
func (rt *Runtime) reassignFailed(failed namespace.Rank) {
	down := map[namespace.Rank]bool{failed: true}
	for _, fr := range rt.mon.FailedRanks() {
		down[fr] = true
	}
	mdss := rt.members()
	var live []namespace.Rank
	for r := range mdss {
		if down[namespace.Rank(r)] {
			continue
		}
		rt.shards[r].Lock()
		crashed := mdss[r].Crashed()
		rt.shards[r].Unlock()
		if !crashed {
			live = append(live, namespace.Rank(r))
		}
	}
	rt.reassigns += uint64(rt.ns.ReassignBounds(failed, live))
}

// Monitor exposes the failure detector (nil when self-healing is off).
// Its state is controller-actor-owned: inspect it only while the runtime
// is quiesced or from controller closures.
func (rt *Runtime) Monitor() *mon.Monitor { return rt.mon }
