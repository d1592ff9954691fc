// Package mon implements the cluster monitor: the authority that tracks MDS
// liveness through periodic beacons and promotes standby daemons when a
// rank goes silent — the role the MON node plays in the paper's testbed
// (10 nodes: 18 OSDs, 1 MON, up to 5 MDS). Without a monitor, a crashed
// rank stays down until something external calls Recover; with one, a
// standby replays the rank's journal and takes over.
package mon

import (
	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// Beacon is the liveness message every MDS sends the monitor. Epoch is the
// sender's membership epoch: 0 for daemons that predate epoch fencing (the
// whole simulator path), >0 for live-runtime daemons. The monitor ignores
// beacons from epochs it has already superseded, so a partitioned-but-
// replaced daemon whose traffic heals late cannot resurrect its rank.
type Beacon struct {
	Rank  namespace.Rank
	Seq   uint64
	Epoch uint64
	// Load, when non-nil, is the sender's load vector for aggregated
	// heartbeat mode: instead of mailing a full heartbeat to every peer
	// (O(ranks²) messages per interval), the rank piggybacks its vector on
	// the beacon it already sends the monitor, and the monitor answers
	// with the aggregated LoadMap — O(ranks) messages total. Nil (the
	// default, and always in the simulator) leaves beacon handling exactly
	// as before.
	Load *RankLoad
}

// RankLoad is one rank's load vector as carried on a beacon and in the
// aggregated LoadMap. The fields mirror mds.Heartbeat's measurement columns;
// any sender-side measurement jitter (LoadNoisePct) is applied before the
// vector is built, so aggregation transports exactly the numbers the
// all-pairs path would have mailed.
type RankLoad struct {
	Auth     float64
	All      float64
	CPU      float64
	Mem      float64
	Queue    float64
	Req      float64
	Draining bool
	// Replicas is how many directory read replicas the rank holds
	// (hotspot mitigation; 0 when replication is off). Carried for
	// placement visibility — peers and operators see where replica
	// load landed.
	Replicas int
}

// LoadMap is the monitor's aggregated, versioned view of every live rank's
// load vector. It is rebuilt once per sweep and sent (as a shared snapshot)
// in reply to each load-carrying beacon. Present[r] is false when rank r's
// vector is unknown, has aged past the staleness bound, or the rank is
// currently declared failed — receivers treat those ranks exactly like a
// peer that never sent a heartbeat (zeros in the balancer env). Version
// increases monotonically so a reordered older map can never overwrite a
// newer one at the receiver.
type LoadMap struct {
	Version uint64
	Loads   []RankLoad
	Present []bool
}

// Config tunes failure detection.
type Config struct {
	// CheckInterval is how often the monitor sweeps the beacon table.
	CheckInterval sim.Time
	// Grace is how long a rank may stay silent before it is declared
	// failed (CephFS defaults to several beacon periods).
	Grace sim.Time
	// LoadStale bounds how long a rank's load vector stays in the
	// aggregated LoadMap without a fresh beacon. A partitioned rank's
	// vector ages out (Present goes false) instead of steering migrations
	// at a dead rank, even when Grace is long enough that the rank has not
	// yet been declared failed. Zero defaults to Grace.
	LoadStale sim.Time
}

// DefaultConfig mirrors Ceph's shape: 4-second beacons, ~15-second grace.
// Simulated clusters usually scale these with the heartbeat interval.
func DefaultConfig() Config {
	return Config{CheckInterval: 2 * sim.Second, Grace: 15 * sim.Second}
}

// TakeoverFunc is invoked when a rank is declared failed. It must return
// true if a standby was promoted (the monitor then waits for the new
// daemon's beacons) or false if none was available (the rank is retried on
// a later sweep).
type TakeoverFunc func(rank namespace.Rank) bool

// Monitor tracks beacons and drives takeover. It is written against the
// Clock and Transport seams so the same failure detector runs inside the
// discrete-event simulator and on the live runtime's wall clock; like the
// MDS, a Monitor inherits its clock's concurrency contract (the live runtime
// binds it to a controller actor so beacon handling and sweeps serialize).
type Monitor struct {
	addr     simnet.Addr
	net      simnet.Transport
	clock    sim.Clock
	cfg      Config
	numRanks int
	takeover TakeoverFunc

	lastSeen map[namespace.Rank]sim.Time
	failed   map[namespace.Rank]bool
	ticker   *sim.Ticker

	// Aggregated heartbeat state: the latest load vector per rank (with
	// receipt time for staleness ageing and the beacon's source address
	// for the reply), plus the shared snapshot handed to every
	// load-carrying beacon until the next sweep rebuilds it. The snapshot
	// is immutable once published — receivers on other goroutines (the
	// live runtime's rank actors) only read it.
	loads    map[namespace.Rank]RankLoad
	loadSeen map[namespace.Rank]sim.Time
	senders  map[namespace.Rank]simnet.Addr
	snapshot *LoadMap
	mapVer   uint64

	// epochs is the highest membership epoch the monitor has issued or
	// observed per rank (the mdsmap incarnation number). It is bumped on
	// every failure declaration — fencing the declared daemon — and raised
	// by beacons from newer daemons. lastSeq tracks the last accepted
	// beacon sequence within the current epoch, so a delayed duplicate
	// cannot refresh liveness out of order. Epoch-0 senders (every
	// simulator daemon) bypass both filters: their behaviour is unchanged.
	epochs  map[namespace.Rank]uint64
	lastSeq map[namespace.Rank]uint64

	// OnFail, if set, is invoked once per rank-failed declaration that no
	// standby absorbed, so the cluster can reassign the dead rank's
	// subtrees to the survivors instead of leaving them unanswerable.
	OnFail func(rank namespace.Rank)

	// OnEpoch, if set, is invoked whenever the monitor issues a new epoch
	// for a rank (at the failure declaration). The live runtime uses it to
	// publish the epoch to its shared fencing table — the analogue of the
	// mon committing a new mdsmap and blocklisting the old daemon.
	OnEpoch func(rank namespace.Rank, epoch uint64)

	// Failures counts rank-failed declarations; Takeovers counts
	// successful standby promotions; StaleBeacons counts beacons dropped
	// by the epoch/sequence filters. LoadReports counts load vectors
	// accepted off beacons; LoadMapsSent counts aggregated maps mailed
	// back to ranks.
	Failures     uint64
	Takeovers    uint64
	StaleBeacons uint64
	LoadReports  uint64
	LoadMapsSent uint64
}

// New registers a monitor on the network.
func New(addr simnet.Addr, clock sim.Clock, net simnet.Transport, numRanks int,
	cfg Config, takeover TakeoverFunc) *Monitor {
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 2 * sim.Second
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 15 * sim.Second
	}
	m := &Monitor{
		addr:     addr,
		net:      net,
		clock:    clock,
		cfg:      cfg,
		numRanks: numRanks,
		takeover: takeover,
		lastSeen: map[namespace.Rank]sim.Time{},
		failed:   map[namespace.Rank]bool{},
		epochs:   map[namespace.Rank]uint64{},
		lastSeq:  map[namespace.Rank]uint64{},
		loads:    map[namespace.Rank]RankLoad{},
		loadSeen: map[namespace.Rank]sim.Time{},
		senders:  map[namespace.Rank]simnet.Addr{},
	}
	net.Register(addr, m)
	return m
}

// Addr reports the monitor's network address.
func (m *Monitor) Addr() simnet.Addr { return m.addr }

// Start begins liveness sweeps. Every rank gets a full grace period from
// start before it can be declared failed — including after a monitor
// restart, where the stale pre-Stop timestamps would otherwise mass-fail the
// whole cluster on the first sweep.
func (m *Monitor) Start() {
	now := m.clock.Now()
	for r := 0; r < m.numRanks; r++ {
		m.lastSeen[namespace.Rank(r)] = now
	}
	if m.ticker != nil {
		m.ticker.Stop()
	}
	m.ticker = m.clock.NewTicker(m.cfg.CheckInterval, m.cfg.CheckInterval, m.sweep)
}

// Stop halts sweeps.
func (m *Monitor) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// HandleMessage implements simnet.Handler.
func (m *Monitor) HandleMessage(from simnet.Addr, msg simnet.Message) {
	b, ok := msg.(*Beacon)
	if !ok {
		return
	}
	if b.Epoch != 0 {
		cur := m.epochs[b.Rank]
		switch {
		case b.Epoch < cur:
			// A daemon the monitor already fenced: its rank was declared
			// failed (bumping the epoch) and possibly handed to a standby.
			// However late this beacon is, it must not refresh liveness or
			// clear the failed flag — that would resurrect a zombie.
			m.StaleBeacons++
			return
		case b.Epoch == cur && b.Seq <= m.lastSeq[b.Rank]:
			// Same incarnation, but a delayed duplicate (or reordered)
			// beacon: the newest accepted sequence already proved liveness
			// at a later send time than this one.
			m.StaleBeacons++
			return
		case b.Epoch > cur:
			// A newer incarnation announced itself (a promoted standby's
			// first beacon); its sequence numbering restarts.
			m.epochs[b.Rank] = b.Epoch
		}
		m.lastSeq[b.Rank] = b.Seq
	}
	m.lastSeen[b.Rank] = m.clock.Now()
	if m.failed[b.Rank] {
		// The rank is back (a promoted standby or a recovered daemon).
		delete(m.failed, b.Rank)
	}
	if b.Load != nil {
		// Load recording sits behind the epoch/sequence filters above, so
		// a fenced zombie's late beacon can no longer inject a vector into
		// the map its replacement is balancing from.
		m.loads[b.Rank] = *b.Load
		m.loadSeen[b.Rank] = m.clock.Now()
		m.senders[b.Rank] = from
		m.LoadReports++
		if m.snapshot != nil {
			// Reply on the beacon path with the current snapshot: one map
			// per beacon, so aggregated exchange is O(ranks) messages per
			// interval and each rank holds a map at most one sweep old
			// when its own rebalance fires shortly after this beacon.
			m.net.Send(m.addr, from, m.snapshot)
			m.LoadMapsSent++
		}
	}
}

// sweep declares silent ranks failed and promotes standbys.
func (m *Monitor) sweep() {
	now := m.clock.Now()
	for r := 0; r < m.numRanks; r++ {
		rank := namespace.Rank(r)
		if m.failed[rank] {
			// Retry a takeover that had no standby available.
			if m.takeover != nil && m.takeover(rank) {
				m.Takeovers++
				// The replacement replays the journal before its
				// first beacon; give it double grace.
				m.lastSeen[rank] = now + m.cfg.Grace
				delete(m.failed, rank)
			}
			continue
		}
		if now-m.lastSeen[rank] <= m.cfg.Grace {
			continue
		}
		m.Failures++
		m.failed[rank] = true
		// Issue a new membership epoch: whatever daemon held this rank is
		// fenced from this instant, whether or not a standby absorbs the
		// rank. Epoch-0 (simulator) daemons ignore epochs entirely, so the
		// bump is inert there.
		m.epochs[rank]++
		delete(m.lastSeq, rank)
		// The fenced daemon's load vector dies with it: the next snapshot
		// must not steer exports at a rank the monitor just declared down.
		delete(m.loads, rank)
		delete(m.loadSeen, rank)
		delete(m.senders, rank)
		if m.OnEpoch != nil {
			m.OnEpoch(rank, m.epochs[rank])
		}
		if m.takeover != nil && m.takeover(rank) {
			m.Takeovers++
			m.lastSeen[rank] = now + m.cfg.Grace
			delete(m.failed, rank)
			continue
		}
		if m.OnFail != nil {
			m.OnFail(rank)
		}
	}
	m.rebuildSnapshot(now)
}

// rebuildSnapshot refreshes the aggregated LoadMap once per sweep. Entries
// older than the staleness bound (LoadStale, defaulting to Grace) or
// belonging to a currently-failed rank are left absent. The snapshot stays
// nil until the first load vector arrives, so a cluster running all-pairs
// heartbeats (or the simulator) never pays for — or receives — load maps.
func (m *Monitor) rebuildSnapshot(now sim.Time) {
	if len(m.loads) == 0 && m.snapshot == nil {
		return
	}
	stale := m.cfg.LoadStale
	if stale <= 0 {
		stale = m.cfg.Grace
	}
	lm := &LoadMap{
		Loads:   make([]RankLoad, m.numRanks),
		Present: make([]bool, m.numRanks),
	}
	for r := 0; r < m.numRanks; r++ {
		rank := namespace.Rank(r)
		ld, ok := m.loads[rank]
		if !ok || m.failed[rank] {
			continue
		}
		if now-m.loadSeen[rank] > stale {
			// Aged out: the rank is silent (partitioned or wedged) but not
			// yet past Grace. Receivers fold absence into zeros — the same
			// env a peer that never heartbeated produces.
			continue
		}
		lm.Loads[r] = ld
		lm.Present[r] = true
	}
	m.mapVer++
	lm.Version = m.mapVer
	m.snapshot = lm
}

// Snapshot exposes the current aggregated load map (nil until the first
// sweep after a load-carrying beacon). Tests and operators read it; callers
// must not mutate it.
func (m *Monitor) Snapshot() *LoadMap { return m.snapshot }

// SetNumRanks resizes the monitor's view of the active rank set. The elastic
// coordinator calls this on every membership epoch: a grown-in rank gets a
// full grace window from now (its first beacon hasn't had time to arrive), a
// shrunk-out rank's liveness state is discarded so a later sweep cannot
// declare a deliberately-removed rank failed and trigger a spurious takeover.
func (m *Monitor) SetNumRanks(n int) {
	if n < 1 {
		panic("mon: cluster must keep at least one rank")
	}
	now := m.clock.Now()
	for r := m.numRanks; r < n; r++ {
		m.lastSeen[namespace.Rank(r)] = now
	}
	for r := n; r < m.numRanks; r++ {
		delete(m.lastSeen, namespace.Rank(r))
		delete(m.failed, namespace.Rank(r))
		// The epoch survives the shrink: if the rank regrows, the new
		// daemon joins at a higher epoch and stragglers from the retired
		// incarnation stay fenced.
		delete(m.lastSeq, namespace.Rank(r))
		delete(m.loads, namespace.Rank(r))
		delete(m.loadSeen, namespace.Rank(r))
		delete(m.senders, namespace.Rank(r))
	}
	m.numRanks = n
}

// SetEpoch primes the monitor with a rank's current membership epoch — the
// live runtime calls it when it constructs a daemon, so a rank that dies
// before its first beacon is still fenced at an epoch above the daemon's.
// Lower values than the current epoch are ignored.
func (m *Monitor) SetEpoch(rank namespace.Rank, epoch uint64) {
	if epoch > m.epochs[rank] {
		m.epochs[rank] = epoch
		delete(m.lastSeq, rank)
	}
}

// Promoted tells the monitor that rank's replacement started serving. The
// sweep's own post-takeover allowance (double grace from the declaration)
// assumes journal replay is short; Promoted extends the rank's deadline to a
// full grace window from now when that is later, so a replay longer than
// Grace never eats the first beacon's grace and a slow takeover is not
// re-declared. It never shortens the allowance: after a replay shorter than
// Grace the deadline stays at declaration + 2×Grace.
func (m *Monitor) Promoted(rank namespace.Rank) {
	if now := m.clock.Now(); now > m.lastSeen[rank] {
		m.lastSeen[rank] = now
	}
	delete(m.failed, rank)
}

// EpochOf reports the rank's current membership epoch (0 = never fenced).
func (m *Monitor) EpochOf(rank namespace.Rank) uint64 { return m.epochs[rank] }

// NumRanks reports the monitor's current view of the active rank count.
func (m *Monitor) NumRanks() int { return m.numRanks }

// RankFailed reports whether the monitor currently considers rank down.
func (m *Monitor) RankFailed(rank namespace.Rank) bool { return m.failed[rank] }

// FailedRanks lists ranks currently considered down (deterministic order).
func (m *Monitor) FailedRanks() []namespace.Rank {
	var out []namespace.Rank
	for r := 0; r < m.numRanks; r++ {
		if m.failed[namespace.Rank(r)] {
			out = append(out, namespace.Rank(r))
		}
	}
	return out
}
