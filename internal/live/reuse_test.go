package live

import (
	"sync"
	"testing"
	"time"

	"mantle/internal/mds"
	"mantle/internal/simnet"
	"mantle/internal/workload"
)

// Request records in the load generator: each op gets a fresh record, and
// the MDS (or the transport, when it sheds) answers inside it. The generator
// never reuses a record, so a reaped, flushed or late-answered one is simply
// dropped. The tests are named …NoRecordReuse… so CI's repeated race step
// runs them: the record and the reply inside it cross from the issuing
// goroutine to the answering one and back.

// holdingRig is a load generator on a runtime shell whose single rank is a
// goroutine-safe handler; hold receives every request it is sent, and the
// test answers them through answer, inline on the test's goroutine.
type holdingRig struct {
	lg *loadgen
	tr *transport
}

func newHoldingRig(replication bool, hold func(*mds.Request)) *holdingRig {
	return newHoldingRigConfig(Config{Ranks: 1, Replication: replication}, hold)
}

// newHoldingRigConfig is newHoldingRig on a runtime shell configured by cfg,
// whose Ranks must be 1.
func newHoldingRigConfig(cfg Config, hold func(*mds.Request)) *holdingRig {
	rt := &Runtime{cfg: cfg, startWall: time.Now()}
	rt.transport = newTransport(rt, simnet.Config{}, 1)
	rt.mdsAddrs = []simnet.Addr{0}
	rt.transport.Register(0, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) {
		hold(msg.(*mds.Request))
	}))
	return &holdingRig{lg: newLoadgen(rt, LoadConfig{Clients: 2}), tr: rt.transport}
}

// answer replies to r from rank 0 inside the record, as MDS.reply does.
func (g *holdingRig) answer(r *mds.Request, err string) {
	g.tr.Send(0, r.Client, r.Answer(err))
}

var hotRead = workload.Op{Type: mds.OpGetattr, Path: "/hot/f0"}

// TestLoadgenIssueReplyAllocs: an issue→reply cycle through the generator
// allocates one object, the request record; the reply rides inside it, and
// a coalescible read's flight key is a value. The parent's cycle allocated
// 2 (record and reply), and 3 for a coalescible read (plus the key string).
func TestLoadgenIssueReplyAllocs(t *testing.T) {
	for _, replication := range []bool{false, true} {
		for _, maxRanks := range []int{0, 1} {
			var held *mds.Request
			g := newHoldingRigConfig(Config{Ranks: 1, MaxRanks: maxRanks, Replication: replication},
				func(r *mds.Request) { held = r })
			cycle := func() {
				g.lg.issue(hotRead, time.Now())
				g.answer(held, "")
			}
			// Grow the pending maps and, when elastic, the rank's
			// latency ring to its cap.
			for i := 0; i < 2*latWindowCap; i++ {
				cycle()
			}
			allocs := testing.AllocsPerRun(1000, cycle)
			t.Logf("replication=%v maxRanks=%d: generator issue→reply cycle: %.0f allocs", replication, maxRanks, allocs)
			if allocs != 1 {
				t.Fatalf("replication=%v maxRanks=%d: an issue→reply cycle allocates %.0f objects, want 1 (the record)",
					replication, maxRanks, allocs)
			}
			if got, want := g.lg.completed.Load(), uint64(2*latWindowCap+1001); got != want {
				t.Fatalf("replication=%v maxRanks=%d: completed %d of %d", replication, maxRanks, got, want)
			}
		}
	}
}

// TestLoadgenRankWindowsOnlyForElastic: the per-rank latency windows, which
// only the elastic host's Metrics reads, fill from a leader's reply and the
// waiter riding on it, both stamped by the one clock read of that reply,
// when an elastic coordinator is configured (MaxRanks > 0); without one
// they are never allocated.
func TestLoadgenRankWindowsOnlyForElastic(t *testing.T) {
	for _, maxRanks := range []int{0, 1} {
		var held []*mds.Request
		g := newHoldingRigConfig(Config{Ranks: 1, MaxRanks: maxRanks, Replication: true},
			func(r *mds.Request) { held = append(held, r) })
		g.lg.issue(hotRead, time.Now().Add(-time.Millisecond))
		g.lg.issue(hotRead, time.Now().Add(-2*time.Millisecond)) // coalesces onto the first
		if len(held) != 1 {
			t.Fatalf("maxRanks=%d: %d requests on the wire, want 1 (a leader and its waiter)", maxRanks, len(held))
		}
		g.answer(held[0], "")
		if got := g.lg.completed.Load(); got != 2 {
			t.Fatalf("maxRanks=%d: completed %d, want 2", maxRanks, got)
		}
		if maxRanks == 0 {
			if g.lg.rankLat != nil || g.lg.rankLatencyMs(0) != 0 {
				t.Fatalf("no elastic coordinator, yet rank windows %v, rank 0 latency %v ms", g.lg.rankLat, g.lg.rankLatencyMs(0))
			}
			continue
		}
		w := g.lg.rankLat[0]
		if w.n != 2 || !w.buf[0].at.Equal(w.buf[1].at) {
			t.Fatalf("rank 0 window holds %d samples (at %v), want 2 from one clock read", w.n, w.buf[:w.n])
		}
		if ms := g.lg.rankLatencyMs(0); ms < 1.5 {
			t.Fatalf("rank 0 latency %v ms, want >= 1.5 (samples of >= 1 and >= 2 ms)", ms)
		}
	}
}

// TestLoadgenNoRecordReuseShed: the transport sheds inside the record (the
// reply is the record's own), and every shed op resolves once.
func TestLoadgenNoRecordReuseShed(t *testing.T) {
	rt := &Runtime{cfg: Config{Ranks: 1}, startWall: time.Now()}
	tr := newTransport(rt, simnet.Config{}, 1)
	rt.transport, rt.mdsAddrs = tr, []simnet.Addr{0}
	tr.bind(0, newActor(rt, 0, new(sync.Mutex))) // a zero-deep lane sheds every request
	tr.Register(0, discard)

	var got *mds.Reply
	const requester = simnet.Addr(7)
	tr.Register(requester, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) {
		got = msg.(*mds.Reply)
	}))
	r := &mds.Request{ID: 9, Client: requester, Op: mds.OpGetattr, Path: "/hot/f0"}
	tr.Send(requester, 0, r)
	if got == nil || got.ReqID != 9 || !IsOverloaded(got.Err) {
		t.Fatalf("shed reply %+v, want ReqID 9 and %q", got, ErrOverloaded)
	}
	if got != r.Answer(got.Err) {
		t.Fatal("the shed reply does not ride inside its request record")
	}

	lg := newLoadgen(rt, LoadConfig{Clients: 2})
	for i := 0; i < 3; i++ {
		lg.issue(hotRead, time.Now())
	}
	if tr.Sheds.Load() != 4 || lg.shedSeen.Load() != 3 || lg.pendingCount() != 0 {
		t.Fatalf("sheds %d, seen %d, pending %d; want 4, 3, 0",
			tr.Sheds.Load(), lg.shedSeen.Load(), lg.pendingCount())
	}
}

// TestLoadgenNoRecordReuseReapedLateReply: an op reaped as a timeout drops
// its record. The late answer finds no pending entry and completes nothing,
// and the record is never issued again.
func TestLoadgenNoRecordReuseReapedLateReply(t *testing.T) {
	var held []*mds.Request
	g := newHoldingRig(false, func(r *mds.Request) { held = append(held, r) })
	g.lg.issue(hotRead, time.Now())
	late := held[0]
	g.lg.reap(time.Now().Add(g.lg.cfg.OpTimeout + time.Second))
	if g.lg.timeouts.Load() != 1 || g.lg.pendingCount() != 0 {
		t.Fatalf("timeouts %d, pending %d; want 1 and 0", g.lg.timeouts.Load(), g.lg.pendingCount())
	}
	g.answer(late, "")
	if g.lg.completed.Load() != 0 || g.lg.timeouts.Load() != 1 {
		t.Fatalf("the late answer completed %d ops (timeouts %d), want 0 (1)",
			g.lg.completed.Load(), g.lg.timeouts.Load())
	}
	for i := 0; i < 2*pendShards; i++ {
		g.lg.issue(hotRead, time.Now())
		g.answer(held[len(held)-1], "")
	}
	for _, r := range held[1:] {
		if r == late {
			t.Fatal("the abandoned record was issued again")
		}
	}
	if g.lg.completed.Load() != 2*pendShards {
		t.Fatalf("completed %d, want %d", g.lg.completed.Load(), 2*pendShards)
	}
}

// TestLoadgenNoRecordReuseFlushPending: the drain deadline's flush expires
// every pending op, leader, waiter and create alike; answers arriving
// afterwards complete none of them.
func TestLoadgenNoRecordReuseFlushPending(t *testing.T) {
	var held []*mds.Request
	g := newHoldingRig(true, func(r *mds.Request) { held = append(held, r) })
	g.lg.issue(hotRead, time.Now())
	g.answer(held[0], "")
	held = held[:0]
	g.lg.issue(hotRead, time.Now())
	g.lg.issue(hotRead, time.Now()) // coalesced onto the first
	g.lg.issue(workload.Op{Type: mds.OpCreate, Path: "/hot/new"}, time.Now())
	if len(held) != 2 || g.lg.pendingCount() != 3 {
		t.Fatalf("%d on the wire, %d pending; want 2 and 3", len(held), g.lg.pendingCount())
	}
	g.lg.flushPending()
	for _, r := range held {
		g.answer(r, "")
	}
	if g.lg.timeouts.Load() != 3 || g.lg.completed.Load() != 1 || g.lg.pendingCount() != 0 {
		t.Fatalf("timeouts %d, completed %d, pending %d; want 3, 1, 0",
			g.lg.timeouts.Load(), g.lg.completed.Load(), g.lg.pendingCount())
	}
}

// TestLoadgenNoRecordReuseCoalescedFanOut: a coalescing leader's answer,
// read from inside its record, fans out to its waiters under the leader's
// flight key: a shed first, then a success.
func TestLoadgenNoRecordReuseCoalescedFanOut(t *testing.T) {
	var held []*mds.Request
	g := newHoldingRig(true, func(r *mds.Request) { held = append(held, r) })
	for round, err := range []string{ErrOverloaded.Error(), ""} {
		held = held[:0]
		for i := 0; i < 3; i++ {
			g.lg.issue(hotRead, time.Now())
		}
		if len(held) != 1 {
			t.Fatalf("round %d: %d requests on the wire, want the leader alone", round, len(held))
		}
		g.answer(held[0], err)
		if g.lg.pendingCount() != 0 {
			t.Fatalf("round %d: %d ops still pending after the leader's answer", round, g.lg.pendingCount())
		}
	}
	if g.lg.shedSeen.Load() != 3 || g.lg.completed.Load() != 3 || g.lg.coalesced.Load() != 4 {
		t.Fatalf("shed %d, completed %d, coalesced %d; want 3, 3, 4",
			g.lg.shedSeen.Load(), g.lg.completed.Load(), g.lg.coalesced.Load())
	}
}

// TestLoadgenNoRecordReuseConcurrent drives issue, answer and reap from
// several goroutines at once, with and without coalescing, so under -race
// every hand-off of a record between an issuer, the answering side and the
// reaper is checked. Every op resolves exactly once.
func TestLoadgenNoRecordReuseConcurrent(t *testing.T) {
	const issuers, perIssuer, answerers = 4, 2000, 2
	ops := []workload.Op{
		hotRead,
		{Type: mds.OpGetattr, Path: "/hot/f1"},
		{Type: mds.OpCreate, Path: "/hot/new"},
	}
	errs := []string{"", "", ErrOverloaded.Error(), "namespace: entry already exists"}
	for _, replication := range []bool{false, true} {
		// Sized to every request of the run, so the holding handler never
		// blocks an issuer.
		wire := make(chan *mds.Request, issuers*perIssuer)
		g := newHoldingRig(replication, func(r *mds.Request) { wire <- r })
		var answering sync.WaitGroup
		for a := 0; a < answerers; a++ {
			answering.Add(1)
			go func() {
				defer answering.Done()
				for r := range wire {
					if r.Client < clientAddrBase || r.Path == "" {
						t.Errorf("a held record changed under its holder: %+v", *r)
					}
					g.answer(r, errs[r.ID%uint64(len(errs))])
				}
			}()
		}
		// The reaper expires whatever is pending, so some answers land
		// after their op was reaped and must be dropped.
		stopReaping := make(chan struct{})
		reaped := make(chan struct{})
		go func() {
			defer close(reaped)
			for {
				select {
				case <-stopReaping:
					return
				case <-time.After(200 * time.Microsecond):
					g.lg.reap(time.Now().Add(time.Hour))
				}
			}
		}()
		var issuing sync.WaitGroup
		for i := 0; i < issuers; i++ {
			issuing.Add(1)
			go func(i int) {
				defer issuing.Done()
				for k := 0; k < perIssuer; k++ {
					g.lg.issue(ops[(i+k)%len(ops)], time.Now())
				}
			}(i)
		}
		issuing.Wait()
		close(wire)
		answering.Wait()
		close(stopReaping)
		<-reaped
		lg := g.lg
		lg.reap(time.Now().Add(time.Hour)) // waiters of a reaped leader
		resolved := lg.completed.Load() + lg.errors.Load() + lg.shedSeen.Load() + lg.timeouts.Load()
		if resolved != issuers*perIssuer || lg.pendingCount() != 0 {
			t.Fatalf("replication=%v: %d resolved, %d pending, of %d issued",
				replication, resolved, lg.pendingCount(), issuers*perIssuer)
		}
	}
}

// TestIssueLagFolds: pacers' tallies fold into one mean over every arrival
// and the largest single lag.
func TestIssueLagFolds(t *testing.T) {
	var lg loadgen
	if mean, mx, n := lg.issueLag(); mean != 0 || mx != 0 || n != 0 {
		t.Fatalf("no arrivals: mean %v ms, max %v ms over %d", mean, mx, n)
	}
	var a, b lagTally
	a.note(0, 2*time.Millisecond)
	a.note(time.Millisecond, 2*time.Millisecond)
	b.note(5*time.Millisecond, 5*time.Millisecond)
	b.note(5*time.Millisecond, 10*time.Millisecond)
	lg.addLag(&a)
	lg.addLag(&b)
	if mean, mx, n := lg.issueLag(); mean != 2 || mx != 5 || n != 4 {
		t.Fatalf("issue lag mean %v ms, max %v ms over %d, want 2 and 5 over 4", mean, mx, n)
	}
}
