// Package live is the wall-clock serving runtime: the same MDS mechanism,
// namespace, balancer and object-store model the simulator runs, executed
// concurrently — one goroutine-owned actor per rank, a real-time message
// transport, and an open-loop load generator measuring per-op latency
// against SLOs.
//
// Concurrency model. internal/mds stays free of internal locking: each
// rank's MDS only ever executes on its actor goroutine (messages arrive as
// mailbox envelopes, timer callbacks and crash/recover as posted closures),
// and every mailbox entry runs under that rank's own shard lock — one mutex
// per rank, held by nobody else on the hot path, so ranks serve
// concurrently with zero cross-rank contention. The shared state between ranks is the namespace,
// which synchronises itself: sharded mode (namespace.EnableSharding) gives
// hot operations a read-locked tree plus per-directory leaf locks and
// rank-private domains, while structural mutations (migration relabels,
// rename, fragmentation) take the tree write lock. Cross-rank coordination
// — elastic membership, drain polling, report collection — is an explicit
// path that snapshots the membership under memberMu and then locks exactly
// the participating shards in ascending rank order (see Runtime.shards for
// the full ordering discipline). Timers (service completions, balancer
// ticks, migration timeouts) come from a per-rank sim.Clock implementation
// — short delays on the rank actor's own timer heap, coarse ones on a shared
// timing wheel — so MDS code runs unchanged against either clock.
//
// Backpressure. Client requests pass through a bounded per-rank mailbox
// lane; when a rank's MDS queue is full the actor stops draining the lane,
// the lane fills, and the transport sheds further requests with
// ErrOverloaded. Control traffic (completions, heartbeats, migration
// two-phase-commit) uses an unbounded lane and is never refused.
package live

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/balancer"
	"mantle/internal/core"
	"mantle/internal/elastic"
	"mantle/internal/mds"
	"mantle/internal/mon"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/replica"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// BalancerFactory builds one policy instance per rank (Lua policies each own
// a VM, so instances cannot be shared).
type BalancerFactory func(rank namespace.Rank) (balancer.Balancer, error)

// Config assembles the live runtime.
type Config struct {
	// Ranks is the number of MDS daemons.
	Ranks int
	// Factory builds the per-rank balancer; each is wrapped in a
	// balancer.Versioned stack, as the simulated cluster does.
	Factory BalancerFactory
	// MDS is the cost model; service times are modelled on the wall clock.
	MDS mds.Config
	// Net shapes message delivery latency/jitter.
	Net simnet.Config
	// Rados is the object-store model (per-rank instance on the rank clock).
	Rados rados.Config
	// HalfLife is the namespace popularity decay half-life.
	HalfLife sim.Time
	// MailboxDepth bounds each rank's request lane (shed past it).
	MailboxDepth int
	// AdmitQueue stops draining the request lane while the MDS op queue
	// holds this many requests — the second half of admission control.
	AdmitQueue int
	// Seed seeds per-rank RNGs, the transport and the load generator.
	Seed int64
	// SeedBounds pre-assigns the zipf working set round-robin across the
	// initial ranks at construction time and primes the load generator's
	// router with the same map — the live analogue of clients mounting
	// with a warm mdsmap. Without it every pre-populated directory starts
	// on rank 0 and balancer spills are the only path to parallelism.
	SeedBounds bool
	// Load configures the open-loop generator.
	Load LoadConfig
	// DrainTimeout bounds the shutdown quiesce (pending ops, migrations).
	DrainTimeout time.Duration

	// Standbys is the warm standby pool for self-healing: a rank the
	// monitor declares failed is replaced — after modelled journal replay —
	// by a fresh daemon at a higher membership epoch, without external
	// intervention. Standbys > 0 or MonGrace > 0 enables the monitor (it
	// runs on the controller actor, beacons flow over the live transport);
	// both zero leaves the runtime exactly as it was: no monitor, no
	// epochs, raw transport.
	Standbys int
	// MonGrace is how long a rank may stay silent before the monitor
	// declares it failed (default 4x the heartbeat interval).
	MonGrace time.Duration
	// MonInterval is the monitor sweep cadence (default: the heartbeat
	// interval).
	MonInterval time.Duration

	// HBAggregated switches the balancer's load exchange from all-pairs
	// heartbeats (O(ranks²) messages per interval) to monitor-aggregated:
	// each rank piggybacks its load vector on the beacon it already sends
	// the monitor, which answers with a versioned aggregated load map —
	// O(ranks) messages per interval. Enabling it implies a monitor (the
	// aggregation point); MonGrace/MonInterval tune it as usual.
	HBAggregated bool
	// LoadStale bounds how long a silent rank's vector stays in the
	// aggregated load map before peers see it as never-heartbeated zeros
	// (default: the monitor grace). Only meaningful with HBAggregated.
	LoadStale time.Duration

	// MaxRanks > 0 enables the elastic coordinator: the pool may grow to
	// MaxRanks (addresses are pre-provisioned) and shrink to MinRanks
	// (default 1), driven by the when_elastic hook in ElasticPolicy.
	// Zero leaves the cluster fixed at Ranks.
	MaxRanks int
	MinRanks int
	// ElasticPolicy is the when_elastic Lua hook source ("" uses the
	// built-in queue/latency thresholds, core.DefaultElasticScript).
	ElasticPolicy string
	// Elastic optionally overrides coordinator tuning; nil derives
	// defaults from the heartbeat interval. MinRanks/MaxRanks above win.
	Elastic *elastic.Config

	// Replication enables the hotspot-mitigation subsystem: read-hot
	// directories gain read replicas on peer ranks (when_replicate hook),
	// the load generator routes reads across auth+replicas power-of-two-
	// choices style and coalesces duplicate lookups. Off (the default)
	// leaves every replication code path dormant.
	Replication bool
	// ReplicaPolicy is the when_replicate Lua hook source ("" uses
	// core.DefaultReplicateScript).
	ReplicaPolicy string
	// ReplicaMax caps replicas per directory (default 2).
	ReplicaMax int
}

// DefaultConfig returns a live config mirroring the simulator's calibrated
// models, with a 1s heartbeat so short wall-clock runs still balance.
func DefaultConfig(ranks int, seed int64) Config {
	mcfg := mds.DefaultConfig()
	mcfg.HeartbeatInterval = 1 * sim.Second
	mcfg.RebalanceDelay = 100 * sim.Millisecond
	return Config{
		Ranks:        ranks,
		MDS:          mcfg,
		Net:          simnet.DefaultConfig(),
		Rados:        rados.DefaultConfig(),
		HalfLife:     10 * sim.Second,
		MailboxDepth: 256,
		AdmitQueue:   128,
		Seed:         seed,
		SeedBounds:   true,
		DrainTimeout: 10 * time.Second,
	}
}

// Runtime is a wired live deployment.
type Runtime struct {
	cfg Config

	// shards holds one state lock per provisioned rank slot plus one for
	// the elastic controller (the last element). shards[r] serialises
	// rank r's world: its MDS, every mailbox entry its actor runs, and
	// runtime-side inspection of that rank. Ordering discipline:
	//   - a rank actor holds exactly its own shard and never acquires
	//     another (cross-rank work travels as transport messages, which
	//     execute on the recipient's actor under the recipient's shard);
	//   - the controller actor holds its own shard and may additionally
	//     lock rank shards, one at a time in ascending rank order;
	//   - the runtime main goroutine (Start, drain, collect) locks shards
	//     one at a time in ascending order, holding none of its own;
	//   - nobody acquires a shard while holding memberMu — membership is
	//     snapshotted under memberMu.RLock, released, then shards locked;
	//   - namespace tree locks nest inside shard locks (shard → ns),
	//     never the reverse: namespace code cannot call back into live.
	shards []*sync.Mutex
	// memberMu guards the membership slices (actors/clocks/mdss/retired)
	// and started. Mutations happen at elastic-transition rate; the hot
	// path never touches it.
	memberMu sync.RWMutex

	startWall time.Time
	ns        *namespace.Namespace
	transport *transport
	actors    []*actor
	clocks    []*rankClock
	mdss      []*mds.MDS
	radoses   []*rados.Cluster
	mdsAddrs  []simnet.Addr
	gen       *loadgen
	wg        sync.WaitGroup
	started   bool

	// Elastic membership (nil/empty for a fixed-size cluster). The
	// controller actor hosts the coordinator's timers; it owns the last
	// shard and reaches into rank shards only through the ordered
	// coordination path above.
	controller *actor
	ctrlClock  *rankClock
	coord      *elastic.Coordinator
	retired    []mds.Counters

	// Self-healing (zero-valued unless Standbys/MonGrace enable the
	// monitor). epochs is the shared fencing table — the mdsmap/blocklist
	// analogue: rt.epochs[r] holds the newest membership epoch issued for
	// rank slot r, and a daemon whose own epoch is below it is fenced
	// (sends dropped, writes rejected, self-fence on discovery). The table
	// is atomics because daemons consult it from their actor goroutines
	// while the monitor (controller actor) bumps it — it models state on
	// the store plane, reachable even when the message plane is cut.
	// mon, standbys, zombies, takeovers and reassigns are controller-actor
	// state, guarded by the controller's shard.
	monitored bool
	epochs    []atomic.Uint64
	mon       *mon.Monitor
	standbys  int
	zombies   []zombieMDS
	takeovers []TakeoverEvent
	reassigns uint64

	// repReg is the shared replica placement registry (nil when
	// Replication is off). Its completion callbacks are dispatched to the
	// waiting rank's actor, so parked writers wake on their own goroutine.
	repReg *replica.Registry

	// wheel batches every coarse rank timer (heartbeat tickers, rebalance
	// delays, export timeouts, monitor sweeps) into one shared hashed
	// timing wheel instead of a time.AfterFunc per arm — at 1000 ranks
	// that is thousands of runtime timer-heap entries replaced by one
	// driver goroutine. Created in Start (before any actor runs, so rank
	// clocks read it without synchronisation), stopped at the end of
	// drain. Short delays (service times, journal completions) stay off it
	// for precision, on the owning actor's timer heap — see wheelCutoff.
	wheel *sim.Wheel
}

// zombieMDS is a superseded daemon kept for report folding: it may keep
// mutating its counters (rejected writes, the eventual self-fence) until it
// discovers it was replaced, so its counters are folded at collect time
// under its rank's shard instead of being snapshotted at takeover.
type zombieMDS struct {
	rank int
	m    *mds.MDS
}

// New wires a runtime: namespace (in sharded mode), transport, one
// actor+clock+MDS per rank, and the load generator. The zipf working set is
// pre-populated so the first arrivals resolve; with SeedBounds it is also
// partitioned round-robin across the initial ranks (and the router primed to
// match), otherwise all of it lands on rank 0 and only balancer spills
// spread it.
func New(cfg Config) (*Runtime, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("live: Ranks must be positive")
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("live: nil balancer factory")
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = 256
	}
	if cfg.AdmitQueue <= 0 {
		cfg.AdmitQueue = 128
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.Load.Rate <= 0 {
		return nil, fmt.Errorf("live: Load.Rate must be positive")
	}
	if cfg.Load.Duration <= 0 {
		return nil, fmt.Errorf("live: Load.Duration must be positive")
	}
	if cfg.MaxRanks > 0 && cfg.MaxRanks < cfg.Ranks {
		return nil, fmt.Errorf("live: MaxRanks %d below initial Ranks %d", cfg.MaxRanks, cfg.Ranks)
	}
	if cfg.Standbys < 0 {
		return nil, fmt.Errorf("live: negative Standbys")
	}
	// Aggregated heartbeat exchange runs through the monitor, so asking
	// for it enables one; the MDS-side toggle follows the runtime config.
	cfg.MDS.HBAggregated = cfg.HBAggregated
	rt := &Runtime{cfg: cfg, startWall: time.Now()}
	rt.monitored = cfg.Standbys > 0 || cfg.MonGrace > 0 || cfg.HBAggregated
	maxRanks := cfg.Ranks
	if cfg.MaxRanks > maxRanks {
		maxRanks = cfg.MaxRanks
	}
	rt.ns = namespace.New(cfg.HalfLife)
	rt.ns.EnableSharding(maxRanks)
	rt.shards = make([]*sync.Mutex, maxRanks+1)
	for i := range rt.shards {
		rt.shards[i] = new(sync.Mutex)
	}
	rt.epochs = make([]atomic.Uint64, maxRanks)
	rt.transport = newTransport(rt, cfg.Net, cfg.Seed^0x74726e73)
	for r := 0; r < maxRanks; r++ {
		rt.mdsAddrs = append(rt.mdsAddrs, simnet.Addr(r))
	}
	if cfg.Replication {
		rt.repReg = replica.NewRegistry()
		// Write-intent completion callbacks run on the waiting rank's own
		// actor so the parked request is re-enqueued under that rank's
		// shard lock, never on the acker's goroutine.
		rt.repReg.Dispatch = func(r namespace.Rank, fn func()) {
			rt.memberMu.RLock()
			var a *actor
			if int(r) < len(rt.actors) {
				a = rt.actors[r]
			}
			rt.memberMu.RUnlock()
			if a != nil {
				a.post(fn)
			}
		}
		// Namespace mutations that detach directories (rename, rmdir paths)
		// invalidate replicas under the namespace write lock, before the
		// mutation is visible to any reader.
		rt.ns.SetInvalidateHook(func(p string) {
			rt.repReg.InvalidateSubtree(p)
		})
	}
	for r := 0; r < cfg.Ranks; r++ {
		if _, err := rt.buildRank(r); err != nil {
			return nil, err
		}
	}
	for _, m := range rt.mdss {
		m.SetClusterSize(cfg.Ranks)
	}
	rt.gen = newLoadgen(rt, cfg.Load)
	if cfg.MaxRanks > 0 || rt.monitored {
		rt.ensureController()
	}
	if cfg.MaxRanks > 0 {
		if err := rt.setupElastic(); err != nil {
			return nil, err
		}
	}
	if rt.monitored {
		rt.setupMonitor()
	}
	if rt.gen.cfg.Workload == "zipf" {
		dirs := zipfDirs(rt.gen.cfg.Dirs)
		for _, p := range dirs {
			if _, err := rt.ns.CreatePath(p, true); err != nil {
				return nil, fmt.Errorf("live: pre-populate: %w", err)
			}
		}
		if cfg.SeedBounds && cfg.Ranks > 1 {
			for i, p := range dirs {
				rank := namespace.Rank(i % cfg.Ranks)
				n, err := rt.ns.Resolve(p)
				if err != nil {
					return nil, fmt.Errorf("live: seed bounds: %w", err)
				}
				if rank != 0 {
					rt.ns.SetAuthOverride(n, rank)
				}
				rt.gen.rtr.seed(p, rank)
			}
		}
	}
	if rt.gen.cfg.HotDir {
		if _, err := rt.ns.CreatePath(hotDirPath, true); err != nil {
			return nil, fmt.Errorf("live: pre-populate hot dir: %w", err)
		}
		for i := 0; i < rt.gen.cfg.HotFiles; i++ {
			p := fmt.Sprintf("%s/f%d", hotDirPath, i)
			if _, err := rt.ns.CreatePath(p, false); err != nil {
				return nil, fmt.Errorf("live: pre-populate hot dir: %w", err)
			}
		}
		rt.gen.rtr.seed(hotDirPath, 0)
	}
	return rt, nil
}

// buildRank constructs the actor, clock, object store and MDS for rank r
// and appends them to the runtime (initial construction and elastic joins).
// Each rank gets its own object-store instance on its clock, so journal
// completions post back to the owning actor; journals are rank-named, so
// nothing is shared between the instances.
func (rt *Runtime) buildRank(r int) (*mds.MDS, error) {
	rank := namespace.Rank(r)
	bal, err := rt.cfg.Factory(rank)
	if err != nil {
		return nil, fmt.Errorf("live: balancer for rank %d: %w", r, err)
	}
	a := newActor(rt, rt.cfg.MailboxDepth, rt.shards[r])
	clk := &rankClock{rt: rt, a: a, rng: newRankRand(rt.cfg.Seed, r)}
	store := rados.NewCluster(clk, rt.cfg.Rados)
	pool := store.Pool("cephfs_metadata")
	rt.transport.bind(rt.mdsAddrs[r], a)
	// Monitored daemons see the transport through a fencing wrapper that
	// stamps their membership epoch; unmonitored runtimes use the raw
	// transport, preserving today's behavior exactly.
	net := simnet.Transport(rt.transport)
	var epoch uint64
	if rt.monitored {
		epoch = rt.epochs[r].Add(1)
		net = &fencedNet{t: rt.transport, rank: r, epoch: epoch}
	}
	m := mds.New(rank, rt.mdsAddrs[r], clk, net, rt.ns, pool,
		rt.cfg.MDS, balancer.NewVersioned(bal), rt.mdsAddrs)
	if rt.repReg != nil {
		// Each rank compiles its own hook (Lua VMs are not goroutine-safe).
		hook, err := core.NewReplicateHook(rt.cfg.ReplicaPolicy, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("live: when_replicate for rank %d: %w", r, err)
		}
		maxRep := rt.cfg.ReplicaMax
		if maxRep <= 0 {
			maxRep = 2
		}
		m.SetReplication(&mds.Replication{
			Reg:         rt.repReg,
			When:        hook.Eval,
			MaxReplicas: maxRep,
		})
	}
	if rt.monitored {
		rt.wireFencing(m, r, epoch)
		if rt.mon != nil {
			// Elastic grow after construction: prime the monitor so a
			// pre-beacon failure still fences this daemon's epoch.
			// (Initial ranks are primed in setupMonitor; this path runs
			// on the controller actor, where monitor state lives.)
			rt.mon.SetEpoch(rank, epoch)
		}
	}
	limit := rt.cfg.AdmitQueue
	a.admit = func() bool { return m.QueueLen() < limit }
	rt.memberMu.Lock()
	rt.actors = append(rt.actors, a)
	rt.clocks = append(rt.clocks, clk)
	rt.mdss = append(rt.mdss, m)
	rt.radoses = append(rt.radoses, store)
	rt.memberMu.Unlock()
	return m, nil
}

// ctrlShard is the controller actor's state lock (the last shard).
func (rt *Runtime) ctrlShard() *sync.Mutex { return rt.shards[len(rt.shards)-1] }

// members snapshots the active daemon set. Each entry's slice index is its
// rank and therefore its shard index; the snapshot stays safe to use after
// a concurrent shrink because retired daemons outlive the slices.
func (rt *Runtime) members() []*mds.MDS {
	rt.memberMu.RLock()
	defer rt.memberMu.RUnlock()
	return append([]*mds.MDS(nil), rt.mdss...)
}

// now is the shared wall-clock origin for every rank clock.
func (rt *Runtime) now() sim.Time {
	return sim.Time(time.Since(rt.startWall) / time.Microsecond)
}

// MDS exposes rank r's daemon (tests; access its state only while the
// runtime is quiesced or via the rank's actor).
func (rt *Runtime) MDS(r int) *mds.MDS {
	rt.memberMu.RLock()
	defer rt.memberMu.RUnlock()
	return rt.mdss[r]
}

// CrashRank kills rank r: the crash executes on the rank's own actor, so it
// serialises with whatever the rank was doing. A rank beyond the current
// membership (already retired by a shrink) is a no-op, so fault injectors
// need not track elastic transitions.
func (rt *Runtime) CrashRank(r int) {
	rt.memberMu.RLock()
	if r < 0 || r >= len(rt.mdss) {
		rt.memberMu.RUnlock()
		return
	}
	m, a := rt.mdss[r], rt.actors[r]
	rt.memberMu.RUnlock()
	a.post(func() { m.Crash() })
}

// RecoverRank replays rank r's journal and rejoins it; done (optional) fires
// on the rank's actor once serving resumes. No-op past the membership edge,
// like CrashRank.
func (rt *Runtime) RecoverRank(r int, done func()) {
	rt.memberMu.RLock()
	if r < 0 || r >= len(rt.mdss) {
		rt.memberMu.RUnlock()
		return
	}
	m, a := rt.mdss[r], rt.actors[r]
	rt.memberMu.RUnlock()
	a.post(func() { m.Recover(done) })
}

// Start launches the actors and heartbeat tickers. Run calls it implicitly;
// it is exposed so tests can inject faults between start and drain.
func (rt *Runtime) Start() {
	rt.memberMu.Lock()
	if rt.started {
		rt.memberMu.Unlock()
		return
	}
	rt.started = true
	actors := append([]*actor(nil), rt.actors...)
	mdss := append([]*mds.MDS(nil), rt.mdss...)
	rt.memberMu.Unlock()
	if rt.wheel == nil {
		// Before any actor goroutine exists, so rank clocks see the wheel
		// without synchronisation (the go statements below are the
		// happens-before edge).
		rt.wheel = sim.NewWheel(time.Millisecond, 4096)
	}
	for _, a := range actors {
		rt.wg.Add(1)
		go a.loop(&rt.wg)
	}
	if rt.controller != nil {
		rt.wg.Add(1)
		go rt.controller.loop(&rt.wg)
	}
	for r, m := range mdss {
		rt.shards[r].Lock()
		m.Start()
		rt.shards[r].Unlock()
	}
	if rt.coord != nil {
		cs := rt.ctrlShard()
		cs.Lock()
		rt.coord.Start()
		cs.Unlock()
	}
	if rt.mon != nil {
		cs := rt.ctrlShard()
		cs.Lock()
		rt.mon.Start()
		cs.Unlock()
	}
}

// Run starts everything, generates load for the configured duration, drains,
// and reports. The error is non-nil only for invariant violations or a
// wedged drain — operational outcomes (sheds, SLO misses) are in the Report.
func (rt *Runtime) Run() (*Report, error) {
	rt.Start()
	go rt.gen.run()

	// Reaper: expire abandoned ops while load runs.
	reaperStop := make(chan struct{})
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-reaperStop:
				return
			case now := <-tick.C:
				rt.gen.reap(now)
			}
		}
	}()

	<-rt.gen.done
	rep, err := rt.drain()
	close(reaperStop)
	return rep, err
}

// drain quiesces the cluster: wait out in-flight ops, stop periodic work,
// wait out in-flight migrations, stop the actors, then collect and verify.
func (rt *Runtime) drain() (*Report, error) {
	deadline := time.Now().Add(rt.cfg.DrainTimeout)

	// Phase 1: let in-flight client ops finish (the reaper and this loop's
	// reap calls expire ops pointed at dead ranks).
	for time.Now().Before(deadline) && rt.gen.pendingCount() > 0 {
		rt.gen.reap(time.Now())
		time.Sleep(5 * time.Millisecond)
	}
	rt.gen.flushPending()

	// Phase 2: freeze membership first (an in-flight transition is left
	// incomplete, exactly as a coordinator crash would leave it — the
	// journal records it), then stop periodic balancing and wait for
	// migrations mid two-phase-commit to commit or time out. Each rank is
	// stopped and polled under its own shard; the membership snapshot is
	// re-taken per poll round because a shrink already in the controller's
	// mailbox may still retire a rank.
	if rt.coord != nil {
		cs := rt.ctrlShard()
		cs.Lock()
		rt.coord.Stop()
		cs.Unlock()
	}
	if rt.mon != nil {
		// Stop failure sweeps before stopping ranks: a drain-stopped rank
		// stops beaconing, and a takeover firing mid-shutdown would race
		// the quiesce.
		cs := rt.ctrlShard()
		cs.Lock()
		rt.mon.Stop()
		cs.Unlock()
	}
	for r, m := range rt.members() {
		rt.shards[r].Lock()
		m.Stop()
		rt.shards[r].Unlock()
	}
	wedged := 0
	for {
		inflight := 0
		for r, m := range rt.members() {
			rt.shards[r].Lock()
			inflight += m.ExportsInFlight() + m.ImportsInFlight()
			rt.shards[r].Unlock()
		}
		if inflight == 0 {
			break
		}
		if !time.Now().Before(deadline) {
			wedged = inflight
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 3: wait for mailboxes to go quiet (posted work and armed short
	// timers still run), then stop the actors.
	for time.Now().Before(deadline) {
		quiet := 0
		rt.memberMu.RLock()
		actors := append([]*actor(nil), rt.actors...)
		rt.memberMu.RUnlock()
		for _, a := range actors {
			quiet += a.queued()
		}
		if rt.controller != nil {
			quiet += rt.controller.queued()
		}
		if quiet == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	rt.memberMu.RLock()
	actors := append([]*actor(nil), rt.actors...)
	rt.memberMu.RUnlock()
	for _, a := range actors {
		a.stop()
	}
	if rt.controller != nil {
		rt.controller.stop()
	}
	rt.wg.Wait()
	if rt.wheel != nil {
		// After the actors: every ticker is stopped and every remaining
		// armed timer belongs to a stopped actor, so none can fire into
		// live state.
		rt.wheel.Stop()
	}

	rep := rt.collect(wedged)
	var err error
	if wedged > 0 {
		err = fmt.Errorf("live: drain left %d migrations in flight", wedged)
	}
	rt.memberMu.RLock()
	ranks := len(rt.mdss)
	rt.memberMu.RUnlock()
	if ierr := rt.ns.CheckInvariants(ranks, false); ierr != nil {
		rep.InvariantViolation = ierr.Error()
		if err == nil {
			err = fmt.Errorf("live: namespace invariants violated after drain: %w", ierr)
		}
	}
	return rep, err
}

// newRankRand derives a per-rank random source.
func newRankRand(seed int64, rank int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(rank)*0x9e3779b9))
}
