package live

import (
	"container/heap"
	"sync"
	"time"

	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// actor is the goroutine owning one MDS rank. All MDS state transitions for
// the rank — message handling, timer callbacks, crash/recover — execute as
// mailbox entries drained by loop(), so the MDS keeps the single-writer
// discipline it has in the simulator without growing any internal locking.
// An entry is either a delivered message (an envelope: endpoint, sender,
// message) or a closure (timers and control operations); either runs under
// the actor's shard lock (one mutex per rank, see Runtime.shards):
// rank-local work never contends with other ranks, and cross-rank state —
// the namespace — synchronises itself via its own two-level tree lock.
//
// Work arrives on two lanes:
//   - ctrl: unbounded, for due timers, peer/migration messages and control
//     operations. These must never be refused — dropping a service
//     completion or an export ack would wedge the rank.
//   - reqs: bounded client requests. offer() refuses work past the bound and
//     the transport sheds (ErrOverloaded), which is the backpressure surface.
//
// Short timers (below wheelCutoff) live on the actor, in a min-heap by
// deadline, FIFO on ties. The loop moves due ones onto ctrl and otherwise
// sleeps on a one-slot wake channel plus one reusable time.Timer set to the
// earliest deadline — no runtime timer or goroutine per arm. A fired or
// cancelled timer goes back to a spare list for the next arm; its handle
// carries the arm's generation, so a stale cancel cannot reach a later arm.
//
// The loop only takes from reqs while admit() reports the MDS has queue room,
// so a saturated rank stops draining its request lane, the lane fills, and
// subsequent requests shed — bounded memory end to end.
type actor struct {
	rt *Runtime
	// smu is the rank's shard lock: every mailbox entry executes under it,
	// and runtime-side inspection of the rank (drain polling, report
	// collection, elastic membership) takes it to observe a consistent
	// MDS. Only this actor holds it on the hot path, so it is effectively
	// uncontended.
	smu *sync.Mutex
	mu  sync.Mutex
	// wake rings a parked loop; parked says whether it needs ringing.
	wake     chan struct{}
	parked   bool
	ctrl     ringQ
	reqs     ringQ
	timers   timerHeap
	spare    []*actorTimer // fired or cancelled timer slots, reused by schedule
	timerSeq uint64
	maxReqs  int
	stopped  bool
	retiring bool
	// admit reports whether the rank's MDS can accept another request. It is
	// only evaluated on the actor goroutine, which is also the only goroutine
	// mutating the MDS queue, so it needs no locking of its own.
	admit func() bool
}

func newActor(rt *Runtime, maxReqs int, smu *sync.Mutex) *actor {
	return &actor{rt: rt, smu: smu, maxReqs: maxReqs, wake: make(chan struct{}, 1),
		admit: func() bool { return true }}
}

// notify rings a parked loop. Caller holds a.mu.
func (a *actor) notify() {
	if a.parked {
		a.parked = false
		select {
		case a.wake <- struct{}{}:
		default:
		}
	}
}

// post enqueues fn on the control lane (see enqueue).
func (a *actor) post(fn func()) { a.enqueue(mail{fn: fn}) }

// enqueue puts m on the control lane. It never blocks and never refuses, so
// it is safe to call from any goroutine, including other actors (it only
// takes the mailbox mutex, never a shard). Entries for a stopped actor are
// dropped when the loop exits; by then the runtime has already drained and
// collected.
func (a *actor) enqueue(m mail) {
	a.mu.Lock()
	a.ctrl.push(m)
	a.notify()
	a.mu.Unlock()
}

// offer enqueues m on the bounded request lane, reporting false when the
// lane is full or the actor has stopped — the caller sheds the request.
func (a *actor) offer(m mail) bool {
	a.mu.Lock()
	if a.stopped || a.retiring || a.reqs.n >= a.maxReqs {
		a.mu.Unlock()
		return false
	}
	a.reqs.push(m)
	a.notify()
	a.mu.Unlock()
	return true
}

// schedule arms a short timer: fn moves onto the control lane once the
// runtime clock reaches at (never earlier). The slot comes from the spare
// list when one is free, and the handle names this arm of it. Safe from any
// goroutine.
func (a *actor) schedule(at sim.Time, fn func()) sim.Event {
	a.mu.Lock()
	var t *actorTimer
	if n := len(a.spare); n > 0 {
		t = a.spare[n-1]
		a.spare[n-1] = nil
		a.spare = a.spare[:n-1]
	} else {
		t = &actorTimer{a: a, gen: 1} // generation 0 is no arm's
	}
	a.timerSeq++
	t.at, t.seq, t.fn = at, a.timerSeq, fn
	gen := t.gen
	if heap.Push(&a.timers, t); t.idx == 0 {
		a.notify() // new earliest deadline: a sleeping loop must re-arm
	}
	a.mu.Unlock()
	return sim.ArmedEvent(at, t, gen)
}

// release retires a fired or cancelled timer slot: bumping the generation
// invalidates the arm's handle before the slot is reused. Caller holds a.mu.
func (a *actor) release(t *actorTimer) {
	t.fn = nil
	t.gen++
	a.spare = append(a.spare, t)
}

// queued reports the work the actor still owes, armed short timers included
// (drain polling). Each is below wheelCutoff, so waiting for them is bounded.
func (a *actor) queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ctrl.n + a.reqs.n + len(a.timers)
}

// stop makes loop() return once current lanes are irrelevant. The runtime
// only calls it after quiescing, so dropping still-enqueued work is safe.
func (a *actor) stop() {
	a.mu.Lock()
	a.stopped = true
	a.notify()
	a.mu.Unlock()
}

// retire makes loop() exit once both lanes are empty and no short timer is
// armed — the graceful variant of stop for a rank leaving an otherwise-running
// cluster: work already mailed or armed (late migration acks, journal
// completions) still executes, new requests are refused, and the goroutine
// then ends.
func (a *actor) retire() {
	a.mu.Lock()
	a.retiring = true
	a.notify()
	a.mu.Unlock()
}

// fireDue moves every due short timer onto the control lane and reports how
// long until the next one (0 when none is armed). Caller holds a.mu.
func (a *actor) fireDue() time.Duration {
	if len(a.timers) == 0 {
		return 0
	}
	now := time.Since(a.rt.startWall)
	for len(a.timers) > 0 {
		if d := a.timers[0].at.Duration() - now; d > 0 {
			return d
		}
		t := heap.Pop(&a.timers).(*actorTimer)
		a.ctrl.push(mail{fn: t.fn})
		a.release(t)
	}
	return 0
}

// loop drains the mailbox: due timers and control work first, then admitted
// requests. Every entry executes under the actor's own shard lock.
func (a *actor) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	sleep := time.NewTimer(time.Hour) // re-armed to the earliest deadline
	sleep.Stop()
	a.mu.Lock()
	for {
		wait := a.fireDue()
		if a.stopped || (a.retiring && a.ctrl.n == 0 && a.reqs.n == 0 && len(a.timers) == 0) {
			a.mu.Unlock()
			return
		}
		var m mail
		switch {
		case a.ctrl.n > 0:
			m = a.ctrl.pop()
		case a.reqs.n > 0 && a.admit():
			m = a.reqs.pop()
		default:
			a.parked = true
			a.mu.Unlock()
			var fire <-chan time.Time // nil, never ready, with no timer armed
			if wait > 0 {
				sleep.Reset(wait)
				fire = sleep.C
			}
			select {
			case <-a.wake:
				if fire != nil && !sleep.Stop() {
					<-fire // already fired: consume it before the next Reset
				}
			case <-fire:
			}
			a.mu.Lock()
			a.parked = false
			continue
		}
		a.mu.Unlock()
		a.smu.Lock()
		if m.fn != nil {
			m.fn()
		} else {
			a.rt.transport.handle(m)
		}
		a.smu.Unlock()
		a.mu.Lock()
	}
}

// actorTimer is one short timer slot on its actor's heap. As a
// sim.ArmedTimer, cancelling an arm before it is due removes it (it never
// runs); once due it has moved to the control lane, the slot has been
// released under a new generation, and cancelling that arm is a no-op.
type actorTimer struct {
	a   *actor
	at  sim.Time
	seq uint64 // arm order: FIFO among equal deadlines
	gen uint64 // current arm; bumped when the slot is released
	fn  func()
	idx int // heap position; -1 while not armed
}

// CancelArm cancels arm gen if it is still the slot's pending arm.
func (t *actorTimer) CancelArm(gen uint64) {
	a := t.a
	a.mu.Lock()
	if t.gen == gen && t.idx >= 0 {
		heap.Remove(&a.timers, t.idx)
		a.release(t)
	}
	a.mu.Unlock()
}

// CancelTimer cancels the slot's current arm. Handles from schedule cancel
// through CancelArm, which names their own arm.
func (t *actorTimer) CancelTimer() {
	t.a.mu.Lock()
	gen := t.gen
	t.a.mu.Unlock()
	t.CancelArm(gen)
}

// timerHeap orders armed timers by (at, seq) for container/heap. All methods
// run under the actor's mailbox mutex.
type timerHeap []*actorTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x any) {
	x.(*actorTimer).idx = len(*h)
	*h = append(*h, x.(*actorTimer))
}
func (h *timerHeap) Pop() any {
	old, t := *h, (*h)[len(*h)-1]
	old[len(old)-1], t.idx = nil, -1
	*h = old[:len(old)-1]
	return t
}

// mail is one mailbox entry: when fn is set, a timer or control closure;
// otherwise an envelope carrying msg from from to ep's handler. Messages
// travel as values, so a delivery allocates nothing.
type mail struct {
	fn   func()
	ep   *endpoint
	from simnet.Addr
	msg  simnet.Message
}

// ringQ is a lazily-allocated power-of-two ring buffer of mailbox entries.
// A ring starts with no buffer at all, so an idle standby's mailbox costs
// only its struct; it grows by doubling under bursts and shrinks back when
// it drains, so mailbox memory tracks each rank's actual depth instead of
// its historical maximum. All methods run under the actor's mailbox mutex.
type ringQ struct {
	buf  []mail
	head int
	n    int
}

func (q *ringQ) push(m mail) {
	if q.n == len(q.buf) {
		q.resize(q.n * 2)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
}

func (q *ringQ) pop() mail {
	m := q.buf[q.head]
	q.buf[q.head] = mail{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	// Right-size after a burst: halving at 1/8 occupancy keeps shrinks
	// amortised O(1) and leaves hysteresis against push/pop flutter.
	if len(q.buf) > 64 && q.n <= len(q.buf)/8 {
		q.resize(len(q.buf) / 2)
	}
	return m
}

// resize moves the live entries into a fresh power-of-two buffer of at least
// the requested size (minimum 8; rings never shrink below that once used).
func (q *ringQ) resize(size int) {
	if size < 8 {
		size = 8
	}
	nb := make([]mail, size)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}
