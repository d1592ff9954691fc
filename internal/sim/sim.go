// Package sim provides a deterministic discrete-event simulation engine.
//
// All components of the simulated metadata cluster (MDS nodes, clients, the
// network, the object store) schedule work on a single Engine. Events fire in
// (time, sequence) order, so two runs with the same seed and the same inputs
// produce byte-identical results. Virtual time is kept in microseconds.
//
// The engine is allocation-free in steady state: fired and cancelled events
// return to a per-engine free list, and handles carry a generation number so
// a stale handle (cancel-after-fire) can never touch a recycled slot.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp in microseconds since the start of the run.
type Time int64

// Common durations expressed in the engine's microsecond unit.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Duration converts t to a time.Duration for display purposes.
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Microsecond }

func (t Time) String() string { return t.Duration().String() }

// FromSeconds converts floating-point seconds into a virtual Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Event is a handle to a scheduled callback. Events are one-shot; recurring
// behaviour is built by re-scheduling from within the callback. The zero
// Event is valid and refers to nothing (Cancel is a no-op), and a handle
// stays safe after its event fires or is cancelled: the underlying slot is
// recycled under a new generation, so stale cancels cannot touch it.
type Event struct {
	e   *event
	gen uint64
	at  Time
	// ext is set only on handles produced by ExternalEvent or ArmedEvent
	// (wall-clock timers from non-engine Clock implementations); engine
	// events leave it nil. On an ArmedEvent handle gen names the arm.
	ext ExternalTimer
}

// At reports the virtual time the event fires (or fired).
func (ev Event) At() Time { return ev.at }

// event is the pooled scheduler slot behind an Event handle.
type event struct {
	at  Time
	seq uint64
	gen uint64
	fn  func()
	idx int // position in the heap; -1 while free
}

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// the simulation itself is single-threaded by design so that runs are
// reproducible. Parallelism in experiments comes from running independent
// engines on separate goroutines (see internal/experiments).
type Engine struct {
	now     Time
	seq     uint64
	queue   []*event // binary min-heap ordered by (at, seq)
	free    []*event // recycled slots
	rng     *rand.Rand
	stopped bool

	// Processed counts events executed; useful for runaway detection.
	Processed uint64
	// MaxEvents aborts the run (panic) if more than this many events fire.
	// Zero means no limit.
	MaxEvents uint64
	// DisablePool bypasses the free list so every Schedule allocates a
	// fresh slot. It exists only for regression tests that prove pooling
	// changes no event order; production code never sets it.
	DisablePool bool
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn after delay (clamped to >= 0) and returns a handle so the
// caller may cancel it.
func (e *Engine) Schedule(delay Time, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at the absolute virtual time at. Times in the past are
// clamped to "now" (the event still fires after currently-pending events with
// earlier timestamps).
func (e *Engine) ScheduleAt(at Time, fn func()) Event {
	if fn == nil {
		panic("sim: ScheduleAt with nil callback")
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.push(ev)
	return Event{e: ev, gen: ev.gen, at: at}
}

// Cancel removes a pending event. Cancelling the zero Event, an
// already-fired, or an already-cancelled event is a no-op: the handle's
// generation no longer matches the recycled slot. Handles carrying an
// external timer (see ExternalEvent) are cancelled through it, so code
// written against Clock can cancel events from either implementation.
func (e *Engine) Cancel(ev Event) {
	if ev.ext != nil {
		ev.CancelExternal()
		return
	}
	if ev.e == nil || ev.e.gen != ev.gen {
		return
	}
	slot := ev.e
	e.removeAt(slot.idx)
	e.recycle(slot)
}

// alloc takes a slot from the free list (or the heap's allocator).
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 && !e.DisablePool {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	// Generations start at 1 so the zero Event handle can never match.
	return &event{gen: 1, idx: -1}
}

// recycle retires a fired or cancelled slot: bumping the generation
// invalidates every outstanding handle before the slot is reused.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.idx = -1
	if !e.DisablePool {
		e.free = append(e.free, ev)
	}
}

// ---- heap (hand-rolled: container/heap's interface indirection and any
// boxing cost real time on the hottest loop in the simulator) ----

// push appends ev and restores heap order. The common case — the new event
// sorts after its parent, because most scheduling is near-future work on a
// mostly-sorted queue — exits after a single comparison without moving
// anything.
func (e *Engine) push(ev *event) {
	i := len(e.queue)
	e.queue = append(e.queue, ev)
	for i > 0 {
		p := (i - 1) / 2
		pe := e.queue[p]
		if pe.at < ev.at || (pe.at == ev.at && pe.seq < ev.seq) {
			break
		}
		e.queue[i] = pe
		pe.idx = i
		i = p
	}
	e.queue[i] = ev
	ev.idx = i
}

// siftDown restores heap order downward from i using a hole: ev is written
// exactly once at its final position.
func (e *Engine) siftDown(i int) {
	ev := e.queue[i]
	n := len(e.queue)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n {
			cr, cl := e.queue[r], e.queue[c]
			if cr.at < cl.at || (cr.at == cl.at && cr.seq < cl.seq) {
				c = r
			}
		}
		ce := e.queue[c]
		if ev.at < ce.at || (ev.at == ce.at && ev.seq < ce.seq) {
			break
		}
		e.queue[i] = ce
		ce.idx = i
		i = c
	}
	e.queue[i] = ev
	ev.idx = i
}

// siftUp restores heap order upward from i (needed after an arbitrary
// removal promotes the last element into the middle of the heap).
func (e *Engine) siftUp(i int) {
	ev := e.queue[i]
	for i > 0 {
		p := (i - 1) / 2
		pe := e.queue[p]
		if pe.at < ev.at || (pe.at == ev.at && pe.seq < ev.seq) {
			break
		}
		e.queue[i] = pe
		pe.idx = i
		i = p
	}
	e.queue[i] = ev
	ev.idx = i
}

// removeAt deletes the slot at heap position i.
func (e *Engine) removeAt(i int) {
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if i == n {
		return
	}
	e.queue[i] = last
	last.idx = i
	e.siftDown(i)
	e.siftUp(i)
}

// Pending reports the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// Stop makes the current Run return after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// step executes the earliest pending event. It reports false when the queue
// is empty.
func (e *Engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	e.removeAt(0)
	fn := ev.fn
	e.now = ev.at
	e.Processed++
	if e.MaxEvents != 0 && e.Processed > e.MaxEvents {
		panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now))
	}
	// Recycle before the callback: fn may schedule new work straight into
	// the freed slot, and outstanding handles are already invalidated by
	// the generation bump.
	e.recycle(ev)
	fn()
	return true
}

// Run executes events until the queue drains, until the first event whose
// timestamp exceeds until would fire, or until Stop is called. When the run
// ends for either of the first two reasons the clock advances to until;
// after a Stop the clock stays at the stopping event so callers observe the
// true end time.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 {
			break
		}
		if e.queue[0].at > until {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
}

// RunUntilIdle executes events until none remain.
func (e *Engine) RunUntilIdle() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// Ticker repeatedly invokes fn every interval until cancelled. It is built
// purely on the Clock interface, so the same tick-scheduling path serves the
// DES and the live wall-clock runtime; a Ticker inherits its clock's
// concurrency contract (the engine's: single-threaded).
type Ticker struct {
	clock    Clock
	eng      *Engine // non-nil when clock is the DES engine: direct dispatch on the hot path
	interval Time
	fn       func()
	tickFn   func() // t.tick bound once, so rescheduling never re-allocates the method value
	ev       Event
	stopped  bool
}

// NewTicker schedules fn every interval, first firing after offset. A
// non-zero offset lets callers stagger per-node periodic work (heartbeats)
// the way independent daemons would be staggered in a real cluster.
func (e *Engine) NewTicker(offset, interval Time, fn func()) *Ticker {
	return NewClockTicker(e, offset, interval, fn)
}

// NewClockTicker builds a Ticker on any Clock. Non-engine Clock
// implementations delegate their NewTicker method here.
func NewClockTicker(c Clock, offset, interval Time, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{clock: c, interval: interval, fn: fn}
	t.eng, _ = c.(*Engine)
	t.tickFn = t.tick
	t.ev = t.schedule(offset)
	return t
}

// schedule arms the next firing. Ticks dominate the simulator's periodic
// work (every heartbeat in every rank goes through here), so the engine case
// bypasses the Clock interface: the concrete call inlines, where the
// interface dispatch cost ~65% on the EventTicker benchmark.
func (t *Ticker) schedule(delay Time) Event {
	if t.eng != nil {
		return t.eng.Schedule(delay, t.tickFn)
	}
	return t.clock.Schedule(delay, t.tickFn)
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.ev = t.schedule(t.interval)
	}
}

// Stop cancels future firings. Stopping twice is a no-op.
func (t *Ticker) Stop() {
	t.stopped = true
	t.clock.Cancel(t.ev)
}

// Restart resumes a stopped ticker, first firing after offset. Restarting a
// running ticker just reschedules its next firing.
func (t *Ticker) Restart(offset Time) {
	t.clock.Cancel(t.ev)
	t.stopped = false
	t.ev = t.schedule(offset)
}

// Jitter returns a duration uniformly drawn from [-spread, +spread] using the
// engine's deterministic RNG. A zero or negative spread returns 0.
func (e *Engine) Jitter(spread Time) Time {
	if spread <= 0 {
		return 0
	}
	return Time(e.rng.Int63n(int64(2*spread)+1)) - spread
}
