package elastic

import (
	"testing"

	"mantle/internal/core"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/sim"
)

// fakeHost is an in-memory Host: membership is just a counter plus flag
// maps, and a fakeDaemon reads and writes its rank's flags, so these tests
// pin the coordinator's own mechanics (sustain, cooldown, single transition
// in flight, abort paths) through the shared membership steps without a
// cluster.
type fakeHost struct {
	active     int
	queue      float64
	standbys   map[namespace.Rank]bool
	draining   map[namespace.Rank]bool
	crashed    map[namespace.Rank]bool
	drained    map[namespace.Rank]bool
	reassigned []namespace.Rank
}

func newFakeHost(active int) *fakeHost {
	return &fakeHost{
		active:   active,
		standbys: map[namespace.Rank]bool{},
		draining: map[namespace.Rank]bool{},
		crashed:  map[namespace.Rank]bool{},
		drained:  map[namespace.Rank]bool{},
	}
}

// Ranks counts a warming standby's slot, as the real hosts do.
func (h *fakeHost) Ranks() int { return h.active + len(h.standbys) }

func (h *fakeHost) WithRank(r namespace.Rank, fn func(Daemon)) { fn(fakeDaemon{h, r}) }

func (h *fakeHost) Build(r namespace.Rank) error {
	h.standbys[r] = true
	return nil
}

func (h *fakeHost) Truncate(n int) {
	for r := range h.standbys {
		if int(r) >= n {
			delete(h.standbys, r)
		}
	}
	h.active = min(h.active, n)
}

func (h *fakeHost) SetSize(n int) {
	for r := range h.standbys {
		if int(r) < n {
			delete(h.standbys, r)
		}
	}
	h.active = n
}

func (h *fakeHost) Metrics() []core.ElasticRankMetrics {
	out := make([]core.ElasticRankMetrics, h.active)
	for i := range out {
		out[i].Queue = h.queue
	}
	return out
}

func (h *fakeHost) Fence(namespace.Rank) {}

func (h *fakeHost) Reassign(failed namespace.Rank, _ []namespace.Rank) {
	h.reassigned = append(h.reassigned, failed)
}

var _ Host = (*fakeHost)(nil)

type fakeDaemon struct {
	h *fakeHost
	r namespace.Rank
}

func (d fakeDaemon) Start()                  {}
func (d fakeDaemon) SetClusterSize(int)      {}
func (d fakeDaemon) StartDrain()             { d.h.draining[d.r] = true }
func (d fakeDaemon) AbortDrain()             { delete(d.h.draining, d.r) }
func (d fakeDaemon) Draining() bool          { return d.h.draining[d.r] }
func (d fakeDaemon) DrainComplete() bool     { return d.h.drained[d.r] }
func (d fakeDaemon) Crashed() bool           { return d.h.crashed[d.r] }
func (d fakeDaemon) Fenced() bool            { return d.h.crashed[d.r] }
func (d fakeDaemon) Retire()                 { delete(d.h.draining, d.r) }
func (d fakeDaemon) Journal() *rados.Journal { return nil }
func (d fakeDaemon) ReplayTime() sim.Time    { return 0 }
func (d fakeDaemon) Epoch() uint64           { return 0 }

func coordCfg() Config {
	return Config{
		MinRanks:      1,
		MaxRanks:      4,
		Interval:      sim.Second,
		Cooldown:      5 * sim.Second,
		SustainGrow:   3,
		SustainShrink: 3,
		PollInterval:  sim.Second / 2,
		DrainTimeout:  10 * sim.Second,
		JoinWarmup:    sim.Second / 2,
	}
}

// growHook votes grow whenever the average queue is high, shrink when idle
// — the default policy's shape with test-friendly thresholds.
const growHook = `
local q = 0
for i = 1, active do q = q + MDSs[i]["q"] end
if q / active > 10 then return 1 end
if q / active < 1 then return -1 end
return 0`

func newCoord(t *testing.T, e *sim.Engine, h Host, cfg Config) *Coordinator {
	t.Helper()
	hook, err := core.NewElasticHook(growHook, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(NewMembers(e, h), hook, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSustainAndCooldown pins the vote-to-action mechanism: SustainGrow
// consecutive grow votes before the first join, then Cooldown before the
// next, independent of how loud the hook keeps voting.
func TestSustainAndCooldown(t *testing.T) {
	e := sim.NewEngine(1)
	h := newFakeHost(1)
	h.queue = 100 // every tick votes grow
	c := newCoord(t, e, h, coordCfg())
	c.Start()
	e.Run(20 * sim.Second)

	if h.active != 4 {
		t.Fatalf("active = %d, want MaxRanks 4", h.active)
	}
	// Sustain 3 at 1s ticks: first join-start at t=3s. Commit at 3.5s
	// (warmup), cooldown to 8.5s, streak refills during cooldown so the
	// second join fires on the first tick past it (9s), third at 15s.
	var starts []sim.Time
	for _, ev := range c.Events {
		if ev.Kind == EventJoinStart {
			starts = append(starts, ev.T)
		}
	}
	want := []sim.Time{3 * sim.Second, 9 * sim.Second, 15 * sim.Second}
	if len(starts) != len(want) {
		t.Fatalf("join starts at %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("join starts at %v, want %v", starts, want)
		}
	}
	if c.Epoch() != 3 || c.Counters.Grows != 3 {
		t.Fatalf("epoch %d grows %d, want 3/3", c.Epoch(), c.Counters.Grows)
	}
	// At MaxRanks the hook keeps voting grow but nothing more happens.
	if c.Counters.GrowVotes < c.Counters.Grows {
		t.Fatalf("counters inconsistent: %+v", c.Counters)
	}
}

// TestHoldVoteResetsStreak: a single hold between grow votes restarts the
// sustain count, so oscillating signals never trigger a join.
func TestHoldVoteResetsStreak(t *testing.T) {
	e := sim.NewEngine(1)
	h := newFakeHost(1)
	h.queue = 100
	c := newCoord(t, e, h, coordCfg())
	c.Start()
	// Flip the signal to hold every 2 ticks: streak never reaches 3.
	e.NewTicker(2*sim.Second, 2*sim.Second, func() {
		if h.queue == 100 {
			h.queue = 5 // hold band
		} else {
			h.queue = 100
		}
	})
	e.Run(20 * sim.Second)
	if c.Counters.Grows != 0 {
		t.Fatalf("oscillating votes grew the pool: %+v (events %v)", c.Counters, c.Events)
	}
}

// TestShrinkLifecycle drives a full leave on the fake host: drain mark set,
// completion polled, retire commits, and the idle pool then refuses to go
// below MinRanks.
func TestShrinkLifecycle(t *testing.T) {
	e := sim.NewEngine(1)
	h := newFakeHost(3)
	cfg := coordCfg()
	cfg.MinRanks = 2
	c := newCoord(t, e, h, cfg)

	if !c.Shrink() {
		t.Fatal("shrink refused")
	}
	if !h.draining[2] {
		t.Fatal("rank 2 not drain-marked")
	}
	if c.Shrink() {
		t.Fatal("second shrink accepted while one is in flight")
	}
	// Let two polls pass incomplete, then finish the handoff.
	e.Schedule(sim.Second+sim.Second/4, func() { h.drained[2] = true })
	e.Run(3 * sim.Second)

	if h.active != 2 || c.Counters.Shrinks != 1 || c.InFlight() {
		t.Fatalf("active %d shrinks %d inflight %v", h.active, c.Counters.Shrinks, c.InFlight())
	}
	if c.Shrink() {
		t.Fatal("shrink below MinRanks accepted")
	}
}

// TestLeaveForcedOnCrash: the draining rank dies → remaining bounds are
// force-reassigned and the leave commits as forced.
func TestLeaveForcedOnCrash(t *testing.T) {
	e := sim.NewEngine(1)
	h := newFakeHost(3)
	c := newCoord(t, e, h, coordCfg())
	c.Shrink()
	e.Schedule(sim.Second/4, func() { h.crashed[2] = true })
	e.Run(2 * sim.Second)
	if c.Counters.ForcedLeaves != 1 || h.active != 2 {
		t.Fatalf("forced %d active %d: %+v", c.Counters.ForcedLeaves, h.active, c.Events)
	}
	if len(h.reassigned) != 1 || h.reassigned[0] != 2 {
		t.Fatalf("reassigned = %v", h.reassigned)
	}
}

// TestLeaveTimeoutAborts: a drain that never finishes is abandoned at
// DrainTimeout and the rank returns to full membership.
func TestLeaveTimeoutAborts(t *testing.T) {
	e := sim.NewEngine(1)
	h := newFakeHost(3)
	c := newCoord(t, e, h, coordCfg())
	c.Shrink()
	e.Run(15 * sim.Second)
	if c.Counters.LeaveAborts != 1 || c.Counters.Shrinks != 0 {
		t.Fatalf("counters %+v (events %v)", c.Counters, c.Events)
	}
	if h.active != 3 || h.draining[2] {
		t.Fatalf("rank not restored: active %d draining %v", h.active, h.draining)
	}
}

// TestJoinAbortOnStandbyCrash: a standby that dies during warmup aborts the
// join with no membership change and no epoch bump.
func TestJoinAbortOnStandbyCrash(t *testing.T) {
	e := sim.NewEngine(1)
	h := newFakeHost(2)
	c := newCoord(t, e, h, coordCfg())
	c.Grow()
	e.Schedule(sim.Second/4, func() { h.crashed[2] = true })
	e.Run(2 * sim.Second)
	if c.Counters.JoinAborts != 1 || c.Counters.Grows != 0 || c.Epoch() != 0 {
		t.Fatalf("counters %+v epoch %d", c.Counters, c.Epoch())
	}
	if h.active != 2 || h.standbys[2] {
		t.Fatalf("standby leaked: active %d standbys %v", h.active, h.standbys)
	}
}

// TestRearmDrainAfterTakeover: when a takeover replaces the draining daemon
// (drain mark lost, rank alive, drain incomplete), the next poll re-arms
// StartDrain instead of wedging or committing.
func TestRearmDrainAfterTakeover(t *testing.T) {
	e := sim.NewEngine(1)
	h := newFakeHost(3)
	c := newCoord(t, e, h, coordCfg())
	c.Shrink()
	// Simulate the monitor promoting a standby: the mark vanishes.
	e.Schedule(sim.Second/4, func() { delete(h.draining, 2) })
	e.Schedule(2*sim.Second, func() { h.drained[2] = true })
	e.Run(4 * sim.Second)
	if c.Events[len(c.Events)-1].Kind != EventLeaveCommit {
		t.Fatalf("events %v", c.Events)
	}
	if h.active != 2 || c.Counters.Shrinks != 1 {
		t.Fatalf("active %d counters %+v", h.active, c.Counters)
	}
}
