package sim

import "testing"

// The free-list pool recycles event slots the moment they fire or are
// cancelled, so the dangerous cases are all stale-handle cases: a handle
// kept after its event fired must never be able to touch the slot's next
// occupant. These tests pin that lifecycle down.

// TestCancelAfterFire schedules A, lets it fire, then schedules B — which
// reuses A's pooled slot — and cancels the stale handle to A. B must still
// fire.
func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	aFired, bFired := false, false
	a := e.Schedule(10, func() { aFired = true })
	e.RunUntilIdle()
	if !aFired {
		t.Fatal("A never fired")
	}
	b := e.Schedule(10, func() { bFired = true })
	e.Cancel(a) // stale: A's slot now belongs to B
	e.RunUntilIdle()
	if !bFired {
		t.Fatal("cancelling a fired event's stale handle killed the slot's new occupant")
	}
	_ = b
}

// TestCancelTwiceThenReuse cancels the same handle twice, schedules into the
// recycled slot, and cancels the stale handle a third time.
func TestCancelTwiceThenReuse(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(10, func() { t.Fatal("cancelled event fired") })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	next := e.Schedule(5, func() { fired = true })
	e.Cancel(ev) // stale cancel must not remove next
	e.RunUntilIdle()
	if !fired {
		t.Fatal("stale cancel removed the recycled slot's event")
	}
	if next.At() != 5 {
		t.Fatalf("At() = %v, want 5", next.At())
	}
}

// TestZeroEventCancel cancels the zero handle (a never-scheduled timeout).
func TestZeroEventCancel(t *testing.T) {
	e := NewEngine(1)
	var ev Event
	e.Cancel(ev) // must not panic
	if ev.At() != 0 {
		t.Fatal("zero event At() != 0")
	}
}

// TestTickerStopRestart stops a ticker mid-run and restarts it; firings must
// resume on the restarted cadence and the stale pre-stop event handle must
// not leak into the pool's next occupant.
func TestTickerStopRestart(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	tk := e.NewTicker(5, 10, func() { times = append(times, e.Now()) })
	e.Run(28) // fires at 5, 15, 25
	tk.Stop()
	e.Run(60) // nothing fires while stopped
	if len(times) != 3 {
		t.Fatalf("pre-stop fired %d times (%v), want 3", len(times), times)
	}
	tk.Restart(7) // next firing at 67, then every 10
	e.Run(90)
	want := []Time{5, 15, 25, 67, 77, 87}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
	tk.Stop()
	e.RunUntilIdle()
	if len(times) != len(want) {
		t.Fatal("ticker fired after final Stop")
	}
}

// TestRestartRunningTicker reschedules the next firing without doubling.
func TestRestartRunningTicker(t *testing.T) {
	e := NewEngine(1)
	count := 0
	tk := e.NewTicker(5, 10, func() { count++ })
	e.Run(6) // one firing at t=5; next pending at 15
	tk.Restart(100)
	e.Run(300)
	// Firings: t=5, then 106, 116, ... 296 (20 more).
	if count != 21 {
		t.Fatalf("count = %d, want 21", count)
	}
	tk.Stop()
}

// TestPoolReuse asserts the free list actually recycles: a schedule/fire
// churn loop must not grow the pool beyond the peak pending count.
func TestPoolReuse(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 1000; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.RunUntilIdle()
	if got := len(e.free); got != 1000 {
		t.Fatalf("free list has %d slots, want 1000", got)
	}
	for i := 0; i < 5000; i++ {
		e.Schedule(Time(i), func() {})
		e.RunUntilIdle()
	}
	if got := len(e.free); got != 1000 {
		t.Fatalf("free list grew to %d slots under churn, want 1000", got)
	}
}

// TestPoolingPreservesOrder is the pooled-vs-unpooled determinism gate: the
// same seeded random workload, with events cancelled mid-flight, must fire
// in the identical order whether or not slots are recycled. The unpooled run
// empties the free list before every Schedule, so each event gets a fresh
// slot.
func TestPoolingPreservesOrder(t *testing.T) {
	run := func(unpooled bool) []int64 {
		e := NewEngine(99)
		var trace []int64
		var pending []Event
		schedule := func(d Time, fn func()) Event {
			if unpooled {
				e.free = nil
			}
			return e.Schedule(d, fn)
		}
		var spawn func(id int64)
		spawn = func(id int64) {
			trace = append(trace, id, int64(e.Now()))
			if len(trace) >= 600 {
				return
			}
			// Schedule two successors, cancel an old event half the time.
			for k := int64(0); k < 2; k++ {
				next := id*2 + k
				pending = append(pending, schedule(Time(e.Rand().Int63n(50)+1), func() { spawn(next) }))
			}
			if len(pending) > 4 && e.Rand().Intn(2) == 0 {
				idx := e.Rand().Intn(len(pending))
				e.Cancel(pending[idx])
				pending = append(pending[:idx], pending[idx+1:]...)
			}
		}
		schedule(0, func() { spawn(1) })
		e.RunUntilIdle()
		return trace
	}
	pooled, plain := run(false), run(true)
	if len(pooled) != len(plain) {
		t.Fatalf("traces differ in length: %d vs %d", len(pooled), len(plain))
	}
	for i := range pooled {
		if pooled[i] != plain[i] {
			t.Fatalf("pooled trace diverges from unpooled at %d: %d vs %d", i, pooled[i], plain[i])
		}
	}
}
