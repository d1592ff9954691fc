package elastic

import (
	"fmt"

	"mantle/internal/core"
	"mantle/internal/mds"
	"mantle/internal/mon"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// Rank membership, written once for both hosts: the monitor's standby
// takeover and failed-rank reassignment, and the join/leave steps the
// coordinator drives. The simulated cluster and the live runtime differ only
// in what Host exposes: how a rank's daemon is reached (under which lock),
// how one is built, and where the cluster size is published.
//
// Takeover. When the monitor declares a rank failed, a standby (if the pool
// has one) is consumed, the old daemon is fenced, and after the modelled
// journal replay (RecoverBase + flushed entries × RecoverPerEntry) a
// replacement is built in the rank's slot, started, and reported to the
// monitor as promoted. The replay timer gives the standby back when, by
// then, the rank was retired by a leave, was replaced already, or came back
// on its own (an unfenced daemon); or when the replacement cannot be built.
// With no standby, OnFail moves the dead rank's bounds to the survivors.

// Daemon is what membership needs of one rank's MDS daemon. *mds.MDS
// satisfies it; the coordinator's tests supply a fake.
type Daemon interface {
	Start()
	SetClusterSize(n int)
	StartDrain()
	AbortDrain()
	Draining() bool
	DrainComplete() bool
	Crashed() bool
	// Fenced reports whether the daemon may no longer serve its rank:
	// crashed, or superseded by a newer membership epoch.
	Fenced() bool
	Retire()
	Journal() *rados.Journal
	// ReplayTime is the modelled cost of replaying the daemon's journal.
	ReplayTime() sim.Time
	Epoch() uint64
}

var _ Daemon = (*mds.MDS)(nil)

// Host is the per-host seam membership runs over. Every method is called on
// the membership clock — the DES engine, or the live runtime's controller
// actor under the controller's shard — so a host adds only the locking its
// own daemons need.
type Host interface {
	// Ranks reports how many rank slots hold a daemon: the active ranks,
	// plus a joining standby while one warms up.
	Ranks() int
	// WithRank runs fn on the daemon in rank's slot, under that rank's
	// lock.
	WithRank(rank namespace.Rank, fn func(Daemon))
	// Build constructs a daemon for slot rank and installs it unstarted.
	// rank == Ranks() appends a new slot (a joining standby); a lower rank
	// replaces the slot's daemon (a takeover), and the replacement counts
	// one recovery.
	Build(rank namespace.Rank) error
	// Truncate drops the slots [n, Ranks()), whose daemons are retired.
	Truncate(n int)
	// SetSize publishes the active rank count to every daemon, the
	// monitor and the request router, if any.
	SetSize(n int)
	// Metrics returns one signal set per active rank for the
	// when_elastic hook.
	Metrics() []core.ElasticRankMetrics
	// Fence cuts a declared-failed rank's daemon off before its journal
	// is replayed. Live daemons are fenced already: the declaration
	// raised their rank's epoch. Simulator daemons run at epoch 0 and
	// ignore epochs, so the simulator crashes the daemon instead.
	Fence(rank namespace.Rank)
	// Reassign moves every bound failed owns onto survivors.
	Reassign(failed namespace.Rank, survivors []namespace.Rank)
}

// Takeover records one standby promotion.
type Takeover struct {
	Rank namespace.Rank
	// Epoch is the replacement's membership epoch (0 in simulation).
	Epoch uint64
	// Entries is the length of the replayed journal; Replay its modelled
	// cost.
	Entries uint64
	Replay  sim.Time
	// Declared and Serving bracket the takeover: the failure declaration
	// and the replacement's start.
	Declared sim.Time
	Serving  sim.Time
}

// Members is the membership state of one cluster: the standby pool, the
// monitor it serves, and the takeover log. All of it is owned by the
// membership clock.
type Members struct {
	clock    sim.Clock
	host     Host
	mon      *mon.Monitor
	standbys int

	// Takeovers logs every standby promotion (append-only).
	Takeovers []Takeover
}

// NewMembers binds membership to a host. clock is where the monitor's
// sweeps, the coordinator's ticks and the replay timers run.
func NewMembers(clock sim.Clock, host Host) *Members {
	return &Members{clock: clock, host: host}
}

// NewMonitor builds the failure detector for the host's ranks, with a pool
// of standbys that take over ranks it declares failed and, once the pool is
// empty, reassignment of a failed rank's bounds to the survivors.
func (ms *Members) NewMonitor(addr simnet.Addr, net simnet.Transport, cfg mon.Config, standbys int) *mon.Monitor {
	ms.standbys = standbys
	ms.mon = mon.New(addr, ms.clock, net, ms.host.Ranks(), cfg, ms.takeover)
	ms.mon.OnFail = ms.onFail
	return ms.mon
}

// Standbys reports the standby pool left.
func (ms *Members) Standbys() int { return ms.standbys }

// Refund returns a standby to the pool: a superseded live daemon that fenced
// itself frees its node.
func (ms *Members) Refund() { ms.standbys++ }

// takeover is the monitor's TakeoverFunc.
func (ms *Members) takeover(rank namespace.Rank) bool {
	if ms.standbys <= 0 {
		return false
	}
	ms.standbys--
	ms.host.Fence(rank)
	var old Daemon
	var entries uint64
	var replay sim.Time
	ms.host.WithRank(rank, func(d Daemon) {
		old, entries, replay = d, d.Journal().Flushed(), d.ReplayTime()
	})
	declared := ms.clock.Now()
	ms.clock.Schedule(replay, func() {
		n := ms.host.Ranks()
		down := int(rank) < n && ms.is(rank, func(d Daemon) bool { return d == old && d.Fenced() })
		if !down || ms.host.Build(rank) != nil {
			// Retired, replaced or back on its own, or a broken factory
			// (which cannot be surfaced mid-run: the rank stays down and
			// the monitor keeps reporting it).
			ms.standbys++
			return
		}
		var epoch uint64
		ms.host.WithRank(rank, func(d Daemon) {
			d.SetClusterSize(n)
			d.Start()
			epoch = d.Epoch()
		})
		ms.mon.Promoted(rank)
		ms.Takeovers = append(ms.Takeovers, Takeover{Rank: rank, Epoch: epoch,
			Entries: entries, Replay: replay, Declared: declared, Serving: ms.clock.Now()})
	})
	return true
}

// onFail is the monitor's OnFail: a rank was declared failed and no
// standby absorbed it, so its bounds move to the survivors instead of
// staying unanswerable.
func (ms *Members) onFail(failed namespace.Rank) {
	ms.host.Reassign(failed, ms.survivors(ms.host.Ranks(), failed))
}

// survivors lists the ranks below n that can take a dead rank's bounds: not
// the dead rank, not declared failed by the monitor, and not crashed.
func (ms *Members) survivors(n int, dead namespace.Rank) []namespace.Rank {
	var out []namespace.Rank
	for r := 0; r < n; r++ {
		rank := namespace.Rank(r)
		if rank == dead || (ms.mon != nil && ms.mon.RankFailed(rank)) || ms.is(rank, Daemon.Crashed) {
			continue
		}
		out = append(out, rank)
	}
	return out
}

// is evaluates pred on rank's daemon under the rank's lock.
func (ms *Members) is(rank namespace.Rank, pred func(Daemon) bool) (v bool) {
	ms.host.WithRank(rank, func(d Daemon) { v = pred(d) })
	return v
}

// The coordinator's membership steps.

// spawn builds the daemon for a joining rank as a standby: registered, but
// with no balancer tick until activate.
func (ms *Members) spawn(rank namespace.Rank) error {
	if n := ms.host.Ranks(); int(rank) != n {
		return fmt.Errorf("elastic: spawn for rank %d but active set is [0, %d)", rank, n)
	}
	if err := ms.host.Build(rank); err != nil {
		return err
	}
	ms.host.WithRank(rank, func(d Daemon) { d.SetClusterSize(int(rank) + 1) })
	return nil
}

// activate publishes the grown size, then starts the standby's periodic
// work.
func (ms *Members) activate(rank namespace.Rank, n int) {
	ms.host.SetSize(n)
	ms.host.WithRank(rank, Daemon.Start)
}

// retire stops and deregisters rank's daemon, drops the slots from n up and
// publishes n as the size (a no-op for a standby that never activated).
func (ms *Members) retire(rank namespace.Rank, n int) {
	ms.host.WithRank(rank, Daemon.Retire)
	ms.host.Truncate(n)
	ms.host.SetSize(n)
}

// forceReassign moves every bound a dead draining rank still owns onto the
// survivors below n — the monitor's reassignment, scoped to the leave in
// progress, so a crash mid-handoff still converges to a consistent, smaller
// bound set.
func (ms *Members) forceReassign(rank namespace.Rank, n int) {
	ms.host.Reassign(rank, ms.survivors(n, rank))
}
