// Package elastic implements the rank membership subsystem: a coordinator
// that grows and shrinks the active MDS rank pool of a running cluster under
// policy control, without violating namespace invariants, and the monitor's
// standby takeover and failed-rank reassignment (members.go). All of it is
// written once for the simulated cluster and the live runtime, over a small
// per-host seam, Host.
//
// Mantle (SC '15) made load *placement* programmable; this package makes
// membership programmable the same way. A when_elastic Lua hook (see
// internal/core) votes grow/shrink/hold from per-rank queue and latency
// signals, and the coordinator turns sustained votes into journaled
// membership transitions:
//
//	join  (scale-out):  journal join-start → spawn standby for rank n →
//	                    activate as rank n (epoch bump, every live rank and
//	                    the monitor learn the new size) → journal
//	                    join-commit. The new rank fills through the
//	                    existing two-phase migration machinery — peers'
//	                    balancing policies see an empty rank and ship load.
//	leave (scale-in):   journal leave-start → mark rank n-1 draining (it
//	                    advertises Draining, refuses imports, and exports
//	                    every bound it owns to donor-selected peers) → poll
//	                    until the handoff is empty → retire the rank →
//	                    journal leave-commit.
//
// Ranks stay contiguous, CephFS max_mds style: active ranks are always
// [0, n), a grow activates rank n, a shrink drains rank n-1, and rank 0 —
// the root's authority — never leaves. Crashes mid-transition abort cleanly:
// a standby that dies before activation is discarded (join-abort), a
// draining rank that dies has its remaining bounds force-reassigned to the
// survivors before the leave commits, and a drain that cannot finish within
// its deadline is abandoned (leave-abort) with the rank returning to full
// membership.
package elastic

import (
	"fmt"

	"mantle/internal/core"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/sim"
)

// Config tunes the coordinator.
type Config struct {
	// MinRanks/MaxRanks bound the pool. MinRanks >= 1 (rank 0 never
	// leaves); MaxRanks is the size of the pre-provisioned rank table.
	MinRanks int
	MaxRanks int
	// Interval is the hook evaluation period.
	Interval sim.Time
	// Cooldown is the minimum time between committed membership changes,
	// so a fill-in-progress is not misread as sustained pressure.
	Cooldown sim.Time
	// SustainGrow/SustainShrink are how many consecutive identical votes
	// the hook must cast before the coordinator acts.
	SustainGrow   int
	SustainShrink int
	// PollInterval is how often an in-flight transition is re-examined.
	PollInterval sim.Time
	// DrainTimeout abandons a leave whose drain cannot finish (the rank
	// returns to full membership); 0 disables the deadline.
	DrainTimeout sim.Time
	// JoinWarmup is the standby window between spawn and activation — the
	// crash point where a join can still abort without a membership
	// change.
	JoinWarmup sim.Time
}

// DefaultConfig scales with the heartbeat interval hb: votes are evaluated
// every 2*hb (metrics refresh each hb; evaluating faster just re-reads the
// same numbers), and a membership change is followed by a 4*hb cooldown so
// the fill migrations land before the next vote matters.
func DefaultConfig(hb sim.Time) Config {
	if hb <= 0 {
		hb = 10 * sim.Second
	}
	return Config{
		MinRanks:      1,
		MaxRanks:      0, // caller provides
		Interval:      2 * hb,
		Cooldown:      4 * hb,
		SustainGrow:   2,
		SustainShrink: 3,
		PollInterval:  hb / 2,
		DrainTimeout:  120 * hb,
		JoinWarmup:    hb / 2,
	}
}

// phase is the coordinator's transition state.
type phase int

const (
	phaseIdle phase = iota
	phaseJoining
	phaseLeaving
)

// EventKind labels membership events for reports and tests.
type EventKind string

// Membership event kinds.
const (
	EventJoinStart   EventKind = "join-start"
	EventJoinCommit  EventKind = "join-commit"
	EventJoinAbort   EventKind = "join-abort"
	EventLeaveStart  EventKind = "leave-start"
	EventLeaveCommit EventKind = "leave-commit"
	EventLeaveForced EventKind = "leave-forced"
	EventLeaveAbort  EventKind = "leave-abort"
)

// Event is one membership transition record.
type Event struct {
	T      sim.Time
	Kind   EventKind
	Rank   namespace.Rank
	Active int // active count after the event
}

func (e Event) String() string {
	return fmt.Sprintf("t=%v %s rank=%d active=%d", e.T, e.Kind, e.Rank, e.Active)
}

// Counters is the coordinator's observability block.
type Counters struct {
	Votes        uint64 // hook evaluations
	GrowVotes    uint64
	ShrinkVotes  uint64
	Grows        uint64 // committed joins
	Shrinks      uint64 // committed leaves (incl. forced)
	JoinAborts   uint64
	LeaveAborts  uint64
	ForcedLeaves uint64 // leaves completed by force-reassigning a dead rank
	HookErrors   uint64
}

// Coordinator drives elastic membership. It is the cluster's single
// membership authority: one instance per cluster, hosted next to the
// monitor.
type Coordinator struct {
	clock   sim.Clock
	m       *Members
	hook    *core.ElasticHook
	journal *rados.Journal
	cfg     Config

	phase   phase
	target  namespace.Rank // rank being joined or drained
	epoch   uint64         // bumps on every committed membership change
	ticker  *sim.Ticker
	pollEv  sim.Event
	started sim.Time // when the in-flight transition began

	growStreak   int
	shrinkStreak int
	cooldownTil  sim.Time

	// Events is the membership transition log (append-only).
	Events []Event
	// Counters tracks votes and transitions.
	Counters Counters
	// OnEvent, if set, fires on every membership event (serve-loop logs).
	OnEvent func(Event)
}

// New builds a coordinator over the cluster's membership; it runs on the
// membership clock. hook may be nil for a cluster driven purely by
// Grow/Shrink calls (fault injection, tests); journal may be nil to skip
// durability (the simulated cluster always passes one).
func New(m *Members, hook *core.ElasticHook, journal *rados.Journal, cfg Config) (*Coordinator, error) {
	if cfg.MinRanks < 1 {
		cfg.MinRanks = 1
	}
	if cfg.MaxRanks < cfg.MinRanks {
		return nil, fmt.Errorf("elastic: max ranks %d below min %d", cfg.MaxRanks, cfg.MinRanks)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * sim.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = cfg.Interval / 4
	}
	if cfg.SustainGrow < 1 {
		cfg.SustainGrow = 1
	}
	if cfg.SustainShrink < 1 {
		cfg.SustainShrink = 1
	}
	return &Coordinator{clock: m.clock, m: m, hook: hook, journal: journal, cfg: cfg}, nil
}

// Epoch reports the number of committed membership changes.
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// InFlight reports whether a membership transition is currently under way.
func (c *Coordinator) InFlight() bool { return c.phase != phaseIdle }

// Start begins periodic policy evaluation.
func (c *Coordinator) Start() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
	c.ticker = c.clock.NewTicker(c.cfg.Interval, c.cfg.Interval, c.tick)
}

// Stop halts evaluation and any in-flight transition polling. An in-flight
// transition is left as-is; the journal records it as incomplete, which is
// exactly what a coordinator crash would leave behind.
func (c *Coordinator) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
	c.clock.Cancel(c.pollEv)
}

// record journals (when configured) and logs one membership event.
func (c *Coordinator) record(kind EventKind, jk rados.EntryKind, rank namespace.Rank) {
	ev := Event{T: c.clock.Now(), Kind: kind, Rank: rank, Active: c.m.host.Ranks()}
	c.Events = append(c.Events, ev)
	if c.journal != nil {
		c.journal.Append(jk, 64, nil)
	}
	if c.OnEvent != nil {
		c.OnEvent(ev)
	}
}

// tick evaluates the hook (idle) or lets the in-flight transition progress.
func (c *Coordinator) tick() {
	if c.phase != phaseIdle {
		return
	}
	if c.hook == nil {
		return
	}
	now := c.clock.Now()
	verdict, err := c.hook.Eval(core.ElasticEnv{
		Active:   c.m.host.Ranks(),
		MinRanks: c.cfg.MinRanks,
		MaxRanks: c.cfg.MaxRanks,
		MDSs:     c.m.host.Metrics(),
	})
	c.Counters.Votes++
	if err != nil {
		c.Counters.HookErrors++
		return
	}
	switch verdict {
	case core.ElasticGrow:
		c.Counters.GrowVotes++
		c.growStreak++
		c.shrinkStreak = 0
	case core.ElasticShrink:
		c.Counters.ShrinkVotes++
		c.shrinkStreak++
		c.growStreak = 0
	default:
		c.growStreak = 0
		c.shrinkStreak = 0
		return
	}
	if now < c.cooldownTil {
		return
	}
	if verdict == core.ElasticGrow && c.growStreak >= c.cfg.SustainGrow {
		c.growStreak = 0
		c.Grow()
		return
	}
	if verdict == core.ElasticShrink && c.shrinkStreak >= c.cfg.SustainShrink {
		c.shrinkStreak = 0
		c.Shrink()
	}
}

// Grow begins a join for the next rank. It is exported so the fault
// harness and tests can force membership changes without a policy vote.
// Returns false when the pool is at MaxRanks or a transition is in flight.
func (c *Coordinator) Grow() bool {
	n := c.m.host.Ranks()
	if c.phase != phaseIdle || n >= c.cfg.MaxRanks {
		return false
	}
	rank := namespace.Rank(n)
	c.phase = phaseJoining
	c.target = rank
	c.started = c.clock.Now()
	c.record(EventJoinStart, rados.EntryJoinStart, rank)
	if err := c.m.spawn(rank); err != nil {
		c.Counters.JoinAborts++
		c.phase = phaseIdle
		c.record(EventJoinAbort, rados.EntryJoinAbort, rank)
		return false
	}
	// The standby warms up before activation — the journaled window in
	// which a crash aborts the join without any membership change.
	c.pollEv = c.clock.Schedule(c.cfg.JoinWarmup, c.finishJoin)
	return true
}

// finishJoin activates the standby, or aborts if it died warming up.
func (c *Coordinator) finishJoin() {
	rank := c.target
	if c.phase != phaseJoining {
		return
	}
	if c.m.is(rank, Daemon.Crashed) {
		c.m.retire(rank, int(rank))
		c.Counters.JoinAborts++
		c.phase = phaseIdle
		c.record(EventJoinAbort, rados.EntryJoinAbort, rank)
		return
	}
	newSize := int(rank) + 1
	c.m.activate(rank, newSize)
	c.epoch++
	c.Counters.Grows++
	c.phase = phaseIdle
	c.cooldownTil = c.clock.Now() + c.cfg.Cooldown
	c.record(EventJoinCommit, rados.EntryJoinCommit, rank)
}

// Shrink begins a leave for the top rank. Returns false when the pool is at
// MinRanks (or 1) or a transition is in flight.
func (c *Coordinator) Shrink() bool {
	n := c.m.host.Ranks()
	if c.phase != phaseIdle || n <= c.cfg.MinRanks || n <= 1 {
		return false
	}
	rank := namespace.Rank(n - 1)
	c.phase = phaseLeaving
	c.target = rank
	c.started = c.clock.Now()
	c.record(EventLeaveStart, rados.EntryLeaveStart, rank)
	c.m.host.WithRank(rank, Daemon.StartDrain)
	c.pollEv = c.clock.Schedule(c.cfg.PollInterval, c.pollLeave)
	return true
}

// pollLeave checks drain progress. Four outcomes: the handoff completed
// (retire, commit), the rank died mid-drain (force-reassign its remaining
// bounds, retire, commit as forced), a takeover replaced the daemon and lost
// the drain mark (re-arm and keep polling), or the deadline passed (abort
// the leave; the rank stays a full member).
func (c *Coordinator) pollLeave() {
	if c.phase != phaseLeaving {
		return
	}
	rank := c.target
	newSize := int(rank)
	now := c.clock.Now()
	switch {
	case c.m.is(rank, Daemon.Crashed):
		c.m.forceReassign(rank, newSize)
		c.m.retire(rank, newSize)
		c.epoch++
		c.Counters.Shrinks++
		c.Counters.ForcedLeaves++
		c.phase = phaseIdle
		c.cooldownTil = now + c.cfg.Cooldown
		c.record(EventLeaveForced, rados.EntryLeaveCommit, rank)
	case c.m.is(rank, Daemon.DrainComplete):
		c.m.retire(rank, newSize)
		c.epoch++
		c.Counters.Shrinks++
		c.phase = phaseIdle
		c.cooldownTil = now + c.cfg.Cooldown
		c.record(EventLeaveCommit, rados.EntryLeaveCommit, rank)
	case c.cfg.DrainTimeout > 0 && now-c.started > c.cfg.DrainTimeout:
		// The drain cannot finish (no live donors, or bounds keep
		// flowing back). Abort: the rank stays active with whatever it
		// still owns — a consistent, if unshrunk, cluster.
		c.m.host.WithRank(rank, Daemon.AbortDrain)
		c.Counters.LeaveAborts++
		c.phase = phaseIdle
		c.cooldownTil = now + c.cfg.Cooldown
		c.record(EventLeaveAbort, rados.EntryLeaveAbort, rank)
	default:
		if !c.m.is(rank, Daemon.Draining) {
			// A standby takeover rebuilt the daemon without the
			// drain mark; re-arm so the leave keeps making progress.
			c.m.host.WithRank(rank, Daemon.StartDrain)
		}
		c.pollEv = c.clock.Schedule(c.cfg.PollInterval, c.pollLeave)
	}
}
