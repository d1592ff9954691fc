package sim

import "math/rand"

// Clock is the scheduling surface components depend on instead of a concrete
// *Engine: the discrete-event engine implements it for simulated runs, and
// the live runtime implements it over the wall clock, so the MDS, the object
// store and the balancer tick share one code path in both modes. Times stay
// in the engine's microsecond unit; a live implementation maps one virtual
// microsecond to one wall microsecond.
//
// Implementations beyond *Engine are expected to document their concurrency
// contract. The live runtime's clocks, for example, are owned by one rank
// actor and must only be called from that actor's event loop.
type Clock interface {
	// Now reports the current time.
	Now() Time
	// Schedule runs fn after delay and returns a cancellable handle.
	Schedule(delay Time, fn func()) Event
	// Cancel best-effort cancels a pending event. Implementations may let
	// an already-firing callback run; callers guard their callbacks (the
	// MDS does, via generation/map checks) rather than rely on exactness.
	Cancel(ev Event)
	// NewTicker schedules fn every interval, first firing after offset.
	NewTicker(offset, interval Time, fn func()) *Ticker
	// Rand exposes the clock's random source. The engine's is the global
	// deterministic stream; live clocks carry per-rank sources.
	Rand() *rand.Rand
	// Jitter draws a duration uniformly from [-spread, +spread].
	Jitter(spread Time) Time
}

// Engine implements Clock.
var _ Clock = (*Engine)(nil)

// ExternalTimer is the cancellation hook behind an Event produced by a
// non-engine Clock (a wall-clock timer). Cancellation is best-effort: a
// timer whose callback is already running cannot be recalled.
type ExternalTimer interface {
	CancelTimer()
}

// ArmedTimer is an ExternalTimer whose slot is reused for later arms. Each
// arm has a generation (never 0), and CancelArm cancels the slot only while
// gen is still its current arm, so a stale handle cannot reach a later arm.
type ArmedTimer interface {
	ExternalTimer
	CancelArm(gen uint64)
}

// ExternalEvent wraps a non-engine timer in an Event handle so code written
// against Clock can hold and cancel timers from either implementation. The
// handle never touches the engine's event pool.
func ExternalEvent(at Time, t ExternalTimer) Event {
	return Event{at: at, ext: t}
}

// ArmedEvent wraps arm gen of a reusable timer slot in an Event handle:
// cancelling through the handle cancels that arm and no other.
func ArmedEvent(at Time, t ArmedTimer, gen uint64) Event {
	return Event{at: at, ext: t, gen: gen}
}

// External reports the wall-clock timer behind the handle, or nil for an
// engine event (including the zero Event).
func (ev Event) External() ExternalTimer { return ev.ext }

// CancelExternal cancels the wall-clock timer behind the handle: through
// CancelArm for a handle from ArmedEvent, through CancelTimer otherwise. It
// is a no-op for an engine event.
func (ev Event) CancelExternal() {
	switch {
	case ev.ext == nil:
	case ev.gen != 0:
		ev.ext.(ArmedTimer).CancelArm(ev.gen)
	default:
		ev.ext.CancelTimer()
	}
}
