package live

import (
	"math/rand"
	"time"

	"mantle/internal/sim"
)

// rankClock implements sim.Clock on the wall clock for one rank. Every
// callback lands on the rank's actor control lane, so MDS code written
// against sim.Clock keeps its single-threaded execution model: callbacks run
// on the actor loop under the rank's shard lock, exactly where message
// handlers run.
//
// Cancellation is best-effort (a timer may have come due and moved to the
// control lane already). That matches how the MDS uses timers: every timeout
// callback re-checks its own state map before acting, so a late firing is a
// no-op.
type rankClock struct {
	rt *Runtime
	a  *actor
	// rng backs Rand/Jitter. It is only touched from MDS code paths, which
	// all run under the runtime state lock, so no extra locking is needed.
	rng *rand.Rand
}

var _ sim.Clock = (*rankClock)(nil)

// Now reports microseconds of wall time since the runtime was built.
func (c *rankClock) Now() sim.Time { return c.rt.now() }

// wheelCutoff routes timers at or above this delay through the shared
// timing wheel (millisecond quantisation, O(1) arm/cancel, no runtime
// timer-heap entry). Below it — modelled service times, journal completions
// and idle polls, mostly well under a millisecond — wheel rounding would be
// real distortion, so those go on the owning actor's own timer heap.
const wheelCutoff = 4 * time.Millisecond

// Schedule arms a wall-clock timer that runs fn on the owning actor.
// Coarse delays (heartbeat ticks, rebalance evaluation, export timeouts)
// ride the runtime's shared timing wheel; precise short delays go on the
// actor's timer heap, which its loop sleeps on directly.
func (c *rankClock) Schedule(delay sim.Time, fn func()) sim.Event {
	if fn == nil {
		panic("live: Schedule with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	at := c.rt.now() + delay
	d := delay.Duration()
	if w := c.rt.wheel; w != nil && d >= wheelCutoff {
		return sim.ExternalEvent(at, w.Schedule(d, func() { c.a.post(fn) }))
	}
	return c.a.schedule(at, fn)
}

// Cancel stops the event's wall-clock timer (best-effort, see type comment).
func (c *rankClock) Cancel(ev sim.Event) { ev.CancelExternal() }

// NewTicker builds the shared sim.Ticker on this clock.
func (c *rankClock) NewTicker(offset, interval sim.Time, fn func()) *sim.Ticker {
	return sim.NewClockTicker(c, offset, interval, fn)
}

// Rand exposes the rank's random source.
func (c *rankClock) Rand() *rand.Rand { return c.rng }

// Jitter mirrors sim.Engine.Jitter on the rank's source.
func (c *rankClock) Jitter(spread sim.Time) sim.Time {
	if spread <= 0 {
		return 0
	}
	return sim.Time(c.rng.Int63n(int64(2*spread)+1)) - spread
}
