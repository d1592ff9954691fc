package live

import (
	"sync"
	"testing"
	"time"

	"mantle/internal/mds"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// Tests for the message and timer plane: zero-delay sends deliver inline,
// short timers live on their actor. PR 16's template — pins by counts and
// ordering, not by timings (the wall-clock bounds below are 10 s against
// millisecond waits).

// bareActor is an actor on a runtime shell, with its loop running.
func bareActor(t *testing.T) (*Runtime, *actor, func()) {
	t.Helper()
	rt := &Runtime{startWall: time.Now()}
	a := newActor(rt, 1<<20, new(sync.Mutex))
	var wg sync.WaitGroup
	wg.Add(1)
	go a.loop(&wg)
	return rt, a, func() { a.stop(); wg.Wait() }
}

// TestZeroDelaySendArmsNoTimer: on a zero-latency link the destination's
// lane holds the message before Send returns, and a send allocates nothing:
// the lane holds an envelope value, not a closure around the handler.
func TestZeroDelaySendArmsNoTimer(t *testing.T) {
	rt := &Runtime{startWall: time.Now()}
	tr := newTransport(rt, simnet.Config{}, 1)
	a := newActor(rt, 1<<20, new(sync.Mutex)) // loop not running: lanes only fill
	const dst, src = simnet.Addr(1), simnet.Addr(2)
	tr.bind(dst, a)
	tr.Register(dst, discard)

	tr.Send(src, dst, &mds.Heartbeat{})
	if a.ctrl.n != 1 || a.reqs.n != 0 {
		t.Fatalf("after control send: ctrl=%d reqs=%d, want 1/0", a.ctrl.n, a.reqs.n)
	}
	tr.Send(src, dst, &mds.Request{ID: 1, Client: src})
	if a.ctrl.n != 1 || a.reqs.n != 1 {
		t.Fatalf("after request send: ctrl=%d reqs=%d, want 1/1", a.ctrl.n, a.reqs.n)
	}

	msg := &mds.Heartbeat{}
	allocs := testing.AllocsPerRun(1000, func() { tr.Send(src, dst, msg) })
	t.Logf("zero-delay send: %.0f allocs", allocs)
	if allocs != 0 {
		t.Fatalf("zero-delay send allocates %.0f objects, want 0", allocs)
	}
	if got := tr.Delivered.Load(); got != tr.Sent.Load() {
		t.Fatalf("delivered %d of %d sends synchronously", got, tr.Sent.Load())
	}
}

// TestShortScheduleAllocs: arming and cancelling a short timer allocates
// nothing once the actor has a spare slot: the cancelled slot is reused.
func TestShortScheduleAllocs(t *testing.T) {
	rt := &Runtime{startWall: time.Now()}
	clk := &rankClock{rt: rt, a: newActor(rt, 1, new(sync.Mutex))}
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		clk.Cancel(clk.Schedule(sim.Millisecond, fn))
	})
	t.Logf("short Schedule: %.0f allocs", allocs)
	if allocs != 0 {
		t.Fatalf("short Schedule allocates %.0f objects, want 0", allocs)
	}
	if n := clk.a.queued(); n != 0 {
		t.Fatalf("%d timers left armed after cancel", n)
	}
}

// TestActorTimerOrder: timers run in deadline order, FIFO among equal
// deadlines, and never before their deadline on the runtime clock.
func TestActorTimerOrder(t *testing.T) {
	rt := &Runtime{startWall: time.Now()}
	a := newActor(rt, 1, new(sync.Mutex))
	base := rt.now() + 2*sim.Millisecond
	offsets := []sim.Time{3000, 1000, 1000, 0, 2000, 1000, 0}
	want := []int{3, 6, 1, 2, 5, 4, 0}
	var got []int
	var early []sim.Time
	for i, off := range offsets {
		i, at := i, base+off
		a.schedule(at, func() {
			if now := rt.now(); now < at {
				early = append(early, at-now)
			}
			got = append(got, i)
		})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go a.loop(&wg)
	for a.queued() > 0 {
		time.Sleep(time.Millisecond)
	}
	a.stop()
	wg.Wait()
	if len(early) > 0 {
		t.Fatalf("timers fired early by %v µs", early)
	}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
}

// TestActorTimerCancel: a timer cancelled before its deadline never runs;
// cancelling one that already ran (twice, even) changes nothing.
func TestActorTimerCancel(t *testing.T) {
	rt, a, stop := bareActor(t)
	defer stop()
	done := make(chan string, 4)
	cancelled := a.schedule(rt.now()+2*sim.Millisecond, func() { done <- "cancelled" })
	cancelled.CancelExternal()
	fired := a.schedule(rt.now(), func() { done <- "fired" })
	if got := <-done; got != "fired" {
		t.Fatalf("first callback %q, want fired", got)
	}
	fired.CancelExternal()
	fired.CancelExternal()
	a.schedule(rt.now()+3*sim.Millisecond, func() { done <- "sentinel" })
	if got := <-done; got != "sentinel" {
		t.Fatalf("callback %q ran after cancel, want sentinel", got)
	}
	if n := a.queued(); n != 0 {
		t.Fatalf("%d entries left after all timers resolved", n)
	}
}

// TestActorTimerReuse: a fired or cancelled timer's slot is reused by the
// next arm, and the old handle cannot reach it. Arm A and let it fire, arm B
// into A's slot and cancel through A's handle (twice): B still fires. Arm C
// and cancel it before its deadline (twice): it never runs, and a cancel
// through C's handle after D took the slot leaves D alone.
func TestActorTimerReuse(t *testing.T) {
	rt, a, stop := bareActor(t)
	defer stop()
	done := make(chan string, 4)
	next := func() string {
		select {
		case got := <-done:
			return got
		case <-time.After(10 * time.Second):
			t.Fatal("no timer fired")
			return ""
		}
	}
	// A slot is released before its callback runs, so each receive below
	// happens after the slot is spare again.
	evA := a.schedule(rt.now(), func() { done <- "A" })
	if got := next(); got != "A" {
		t.Fatalf("first callback %q, want A", got)
	}
	evB := a.schedule(rt.now()+2*sim.Millisecond, func() { done <- "B" })
	if evA.External() != evB.External() {
		t.Fatal("B did not reuse A's slot")
	}
	evA.CancelExternal()
	evA.CancelExternal()
	if got := next(); got != "B" {
		t.Fatalf("callback %q, want B despite the stale cancel", got)
	}
	evC := a.schedule(rt.now()+2*sim.Millisecond, func() { done <- "C" })
	evC.CancelExternal()
	evC.CancelExternal()
	evD := a.schedule(rt.now()+3*sim.Millisecond, func() { done <- "D" })
	if evC.External() != evD.External() {
		t.Fatal("D did not reuse C's slot")
	}
	evC.CancelExternal()
	if got := next(); got != "D" {
		t.Fatalf("callback %q, want D (C cancelled, D untouched)", got)
	}
	if n := a.queued(); n != 0 {
		t.Fatalf("%d entries left after all timers resolved", n)
	}
}

// TestActorTimerWakesEarlier: a loop asleep on a far deadline is woken by
// an earlier arm from another goroutine, and stop() returns promptly with
// timers still armed.
func TestActorTimerWakesEarlier(t *testing.T) {
	rt, a, stop := bareActor(t)
	a.schedule(rt.now()+60*sim.Minute, func() { t.Error("far timer ran") })
	for {
		a.mu.Lock()
		parked := a.parked
		a.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go a.schedule(rt.now()+sim.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("earlier deadline did not wake the sleeping loop")
	}
	stopped := make(chan struct{})
	go func() { stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("stop with an armed timer did not return")
	}
	if n := a.queued(); n != 1 {
		t.Fatalf("queued = %d after stop, want the far timer still armed", n)
	}
}

// TestDrainWaitsForArmedTimer: drain's quiet check counts armed short timers,
// so a journal completion armed just before shutdown still runs instead of
// being stranded under a stopped actor.
func TestDrainWaitsForArmedTimer(t *testing.T) {
	rt, err := New(testConfig(1, 1000, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	ran := false
	rt.clocks[0].Schedule(2*sim.Millisecond, func() { ran = true })
	if _, err := rt.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	rt.shards[0].Lock()
	defer rt.shards[0].Unlock()
	if !ran {
		t.Fatal("armed 2 ms timer was dropped by drain")
	}
}

// TestInlineShedReplyRace drives tiny mailboxes on zero-latency links, so
// shed replies run inline into the generator — from the generator's own
// goroutine (first-hop sheds) and from actor goroutines (forwarded requests
// shed by a full peer). Under -race this pins that the generator's locks are
// leaves: nothing inside them reaches for a shard.
func TestInlineShedReplyRace(t *testing.T) {
	for _, replication := range []bool{false, true} {
		cfg := testConfig(3, 6000, 400*time.Millisecond)
		if replication {
			cfg = replicaConfig(3, 6000, 400*time.Millisecond)
		}
		cfg.Net = simnet.Config{}
		cfg.MailboxDepth = 4
		cfg.AdmitQueue = 2
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run()
		if err != nil {
			t.Fatalf("replication=%v: run: %v", replication, err)
		}
		if rep.Sheds == 0 {
			t.Fatalf("replication=%v: no sheds under a 4-deep mailbox", replication)
		}
		if rep.InvariantViolation != "" {
			t.Fatalf("replication=%v: invariants: %s", replication, rep.InvariantViolation)
		}
		if rep.ReplicaWriteConflicts != 0 {
			t.Fatalf("replication=%v: %d replica write conflicts", replication, rep.ReplicaWriteConflicts)
		}
		got := rt.gen.completed.Load() + rt.gen.errors.Load() + rt.gen.shedSeen.Load() + rt.gen.timeouts.Load()
		if got != rep.Issued {
			t.Fatalf("replication=%v: accounting: %d resolved, %d issued", replication, got, rep.Issued)
		}
	}
}

// TestAdmissionUnderShard: the loop asks admit under the rank's shard lock
// (MDS.Retire clears the MDS queue under it from another goroutine), and
// work that arrives while the loop has dropped its mailbox mutex to ask is
// not slept through: here the first refusal itself posts a control entry,
// and nothing else would ever wake the loop.
func TestAdmissionUnderShard(t *testing.T) {
	rt := &Runtime{startWall: time.Now()}
	smu := new(sync.Mutex)
	a := newActor(rt, 1<<20, smu)
	posted, served := make(chan struct{}), make(chan struct{})
	first := true
	a.admit = func() bool {
		if smu.TryLock() {
			smu.Unlock()
			t.Error("admit ran without the shard lock")
		}
		if first {
			first = false
			a.post(func() { close(posted) })
			return false
		}
		return true
	}
	if !a.offer(mail{fn: func() { close(served) }}) {
		t.Fatal("offer refused")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go a.loop(&wg)
	for _, ch := range []chan struct{}{posted, served} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			// The loop is asleep for good: leave it rather than hang.
			t.Fatal("the loop slept through work that arrived during admission")
		}
	}
	a.stop()
	wg.Wait()
}
