package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Wheel is a hashed timing wheel for the live runtime's coarse wall-clock
// timers. At 1000 ranks the per-rank tickers (heartbeat, rebalance, export
// timeouts) otherwise keep thousands of time.AfterFunc entries churning in
// the Go runtime's timer heaps — one allocation and one heap re-link per
// ticker re-arm. The wheel replaces that with an intrusive doubly-linked
// entry per timer in a fixed slot array and a single driver goroutine that
// sweeps one slot per tick, so arming and cancelling are O(1) with no
// steady-state allocation beyond the entry itself.
//
// Precision is the wheel tick (callers round up, never fire early), so only
// coarse timers belong here — the live runtime keeps short service and
// journal delays on each rank actor's own timer heap, where 1ms of
// quantisation would be real distortion.
type Wheel struct {
	tick  time.Duration
	mask  int64
	slots []wheelSlot
	start time.Time

	// cur is the last fully-processed tick index; Schedule reads it to
	// catch the rare insert-behind-the-sweep race (see below).
	cur atomic.Int64

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type wheelSlot struct {
	mu   sync.Mutex
	head *WheelTimer
}

// WheelTimer is one armed timer. It implements ExternalTimer, so a live
// clock can hand it straight to ExternalEvent and Cancel works unchanged.
type WheelTimer struct {
	slot       *wheelSlot
	at         int64
	fn         func()
	next, prev *WheelTimer
	// done marks a fired or cancelled timer (guarded by slot.mu), so a
	// cancel racing the sweep can never double-fire or corrupt the list.
	done bool
}

// NewWheel starts a wheel with the given tick and at least the given number
// of slots (rounded up to a power of two). The driver goroutine runs until
// Stop.
func NewWheel(tick time.Duration, slots int) *Wheel {
	if tick <= 0 {
		tick = time.Millisecond
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	w := &Wheel{
		tick:  tick,
		mask:  int64(n - 1),
		slots: make([]wheelSlot, n),
		start: time.Now(),
		stopc: make(chan struct{}),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

func (w *Wheel) now() int64 { return int64(time.Since(w.start) / w.tick) }

// Schedule arms fn to run d from now, rounded up to the next wheel tick.
// fn runs on the driver goroutine and must not block (the live runtime only
// posts to actor mailboxes from it). Safe for concurrent use.
func (w *Wheel) Schedule(d time.Duration, fn func()) *WheelTimer {
	if d < 0 {
		d = 0
	}
	// +1 rounds up (never early) even for exact multiples, and guarantees
	// the deadline is strictly after any tick the sweep could currently be
	// processing against an older timestamp.
	at := w.now() + int64(d/w.tick) + 1
	t := &WheelTimer{at: at, fn: fn}
	s := &w.slots[at&w.mask]
	t.slot = s
	s.mu.Lock()
	t.next = s.head
	if s.head != nil {
		s.head.prev = t
	}
	s.head = t
	s.mu.Unlock()
	// If this goroutine stalled between reading the clock and inserting,
	// the sweep may already have passed the deadline's slot; fire here
	// instead of waiting a full wheel revolution. done arbitrates against
	// a concurrent sweep of the same slot.
	if at <= w.cur.Load() {
		s.mu.Lock()
		fire := !t.done
		if fire {
			t.unlink(s)
			t.done = true
		}
		s.mu.Unlock()
		if fire {
			fn()
		}
	}
	return t
}

// CancelTimer implements ExternalTimer: best-effort, O(1) unlink. A timer
// the sweep already collected stays fired — the same contract time.Timer
// gives the live clock today.
func (t *WheelTimer) CancelTimer() {
	s := t.slot
	s.mu.Lock()
	if !t.done {
		t.unlink(s)
		t.done = true
	}
	s.mu.Unlock()
}

func (t *WheelTimer) unlink(s *wheelSlot) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		s.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.prev, t.next = nil, nil
}

// Stop terminates the driver goroutine. Timers still armed never fire;
// callers quiesce their timer sources first (the live runtime stops tickers
// and actors before stopping the wheel).
func (w *Wheel) Stop() {
	w.stopOnce.Do(func() { close(w.stopc) })
	w.wg.Wait()
}

func (w *Wheel) run() {
	defer w.wg.Done()
	tk := time.NewTicker(w.tick)
	defer tk.Stop()
	for {
		select {
		case <-w.stopc:
			return
		case <-tk.C:
			w.advance()
		}
	}
}

// advance sweeps every tick index between the last processed one and the
// current wall clock — a late wakeup (ticker coalescing under load) catches
// up one slot at a time, so due timers fire exactly once and in tick order.
func (w *Wheel) advance() {
	n := w.now()
	for c := w.cur.Load() + 1; c <= n; c++ {
		s := &w.slots[c&w.mask]
		var due *WheelTimer
		s.mu.Lock()
		for t := s.head; t != nil; {
			nx := t.next
			if t.at <= c {
				t.unlink(s)
				t.done = true
				// Reuse next to chain due timers; the entry is already
				// off the slot list.
				t.next = due
				due = t
			}
			t = nx
		}
		w.cur.Store(c)
		s.mu.Unlock()
		for t := due; t != nil; t = t.next {
			t.fn()
		}
	}
}
