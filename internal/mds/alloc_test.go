package mds

import (
	"strconv"
	"strings"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// Allocation pins for the request path: counts, not timings. Each drives one
// MDS on the event engine and the simulated network in steady state, after a
// warm-up has filled every free list.

// servingRig is one rank plus a client endpoint that counts replies without
// keeping them.
func servingRig(t *testing.T) (*sim.Engine, *simnet.Network, *MDS, simnet.Addr, *int) {
	t.Helper()
	e := sim.NewEngine(1)
	n := simnet.New(e, simnet.Config{Latency: 100 * sim.Microsecond})
	rc := rados.NewCluster(e, rados.Config{OSDs: 4, PGs: 32, Replicas: 2, WriteLatency: 200, ReadLatency: 100})
	cfg := DefaultConfig()
	cfg.SvcJitterPct = 0
	m := New(0, 0, e, n, namespace.New(10*sim.Second), rc.Pool("meta"), cfg, noBal(), []simnet.Addr{0})
	const client = simnet.Addr(9999)
	replies := new(int)
	n.Register(client, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) {
		if r, ok := msg.(*Reply); ok {
			if r.Err != "" {
				t.Errorf("reply %d: %s", r.ReqID, r.Err)
			}
			*replies++
		}
	}))
	return e, n, m, client, replies
}

// TestServedGetattrAllocs: a served getattr allocates nothing: the reply
// rides in the request record, which is reused across runs, so the count is
// the MDS path's own. With a Reply per answer it was 1; with a closure per
// hop it was 7: also the hint slice, the queue's re-grown backing array, the
// service closure and startBusy's wrapper, and two delivery closures.
func TestServedGetattrAllocs(t *testing.T) {
	e, n, m, client, replies := servingRig(t)
	if _, err := m.ns.CreatePath("/a/f", false); err != nil {
		t.Fatal(err)
	}
	req := &Request{Client: client, Op: OpGetattr, Path: "/a/f"}
	serve := func() {
		req.ID++
		n.Send(client, 0, req)
		e.RunUntilIdle()
	}
	serve()
	allocs := testing.AllocsPerRun(1000, serve)
	t.Logf("served getattr: %.0f allocs", allocs)
	if allocs != 0 {
		t.Fatalf("served getattr allocates %.0f objects, want 0", allocs)
	}
	if *replies != 1002 {
		t.Fatalf("%d replies for 1002 requests", *replies)
	}
}

// TestServedCreateAllocs: a served create allocates nothing either: the file
// node comes from the namespace's slab and amortises below one per create,
// and the service interval, journal append, reply and both deliveries
// allocate nothing. Paths are built before the runs. With a Reply per answer
// it was 1; with a closure per hop it was 11: the getattr's 7 plus the
// journal-done closure, the journal's apply and done closures, and the
// pool's scheduled closure.
func TestServedCreateAllocs(t *testing.T) {
	e, n, m, client, replies := servingRig(t)
	if _, err := m.ns.CreatePath("/a", true); err != nil {
		t.Fatal(err)
	}
	const runs = 1000
	paths := make([]string, runs+2)
	for i := range paths {
		paths[i] = "/a/f" + strconv.Itoa(i)
	}
	req := &Request{Client: client, Op: OpCreate}
	serve := func() {
		req.Path = paths[req.ID]
		req.ID++
		n.Send(client, 0, req)
		e.RunUntilIdle()
	}
	serve()
	allocs := testing.AllocsPerRun(runs, serve)
	t.Logf("served create: %.0f allocs", allocs)
	if allocs != 0 {
		t.Fatalf("served create allocates %.0f objects, want 0", allocs)
	}
	if *replies != runs+2 {
		t.Fatalf("%d replies for %d requests", *replies, runs+2)
	}
}

// TestWhenIdleRunsAtIntervalEnd: work handed to whenIdle while the server
// is busy runs when the current service interval ends, ahead of the request
// queued behind it, in the order it arrived: a saturated rank is never idle
// between two requests, so that is the only turn its exports get. Pending
// work costs no allocation once the list has grown, and a Crash or a Retire
// drops it.
func TestWhenIdleRunsAtIntervalEnd(t *testing.T) {
	e, n, m, client, replies := servingRig(t)
	if _, err := m.ns.CreatePath("/a/f", false); err != nil {
		t.Fatal(err)
	}
	var log []string
	m.OnServed = func(_ *MDS, r *Request) { log = append(log, "req"+strconv.FormatUint(r.ID, 10)) }
	for id := uint64(1); id <= 3; id++ {
		n.Send(client, 0, &Request{ID: id, Client: client, Op: OpGetattr, Path: "/a/f"})
	}
	e.Run(e.Now() + 100*sim.Microsecond) // delivered: req1 in service, req2 and req3 queued
	if !m.busy || m.QueueLen() != 2 {
		t.Fatalf("busy=%v queued=%d, want req1 in service and two queued", m.busy, m.QueueLen())
	}
	var at []sim.Time
	m.whenIdle(func(done func()) {
		// Holds the server for 1 ms, as an export's packing does.
		log = append(log, "pack")
		at = append(at, e.Now())
		m.busy = true
		e.Schedule(sim.Millisecond, func() {
			m.busy = false
			log = append(log, "packed")
			done()
		})
	})
	m.whenIdle(func(done func()) {
		log = append(log, "ack")
		at = append(at, e.Now())
		done()
	})
	e.RunUntilIdle()
	want := "req1 pack packed ack req2 req3"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
	if at[1]-at[0] != sim.Millisecond {
		t.Fatalf("the second item ran %v after the first, want when the first let go", at[1]-at[0])
	}
	if *replies != 3 {
		t.Fatalf("%d replies, want 3", *replies)
	}

	// Not busy: the work runs at once.
	ran := 0
	fn := func(done func()) { ran++; done() }
	m.whenIdle(fn)
	if ran != 1 {
		t.Fatal("whenIdle on an idle server did not run at once")
	}
	// Busy: the list grows once, then takes waiters without allocating.
	cycle := func() {
		m.busy = true
		for i := 0; i < 8; i++ {
			m.whenIdle(fn)
		}
		m.busy = false
		m.kick()
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("eight pending waiters made %.0f allocations, want 0", got)
	}
	if ran != 1+8*102 {
		t.Fatalf("ran %d waiters, want %d", ran, 1+8*102)
	}

	// A crash drops what was pending; the recovered daemon never runs it.
	m.busy = true
	m.whenIdle(fn)
	m.Crash()
	m.Recover(nil)
	e.Run(e.Now() + m.ReplayTime())
	m.Stop()
	if m.Crashed() {
		t.Fatal("the daemon did not recover")
	}
	m.kick()
	if ran != 1+8*102 {
		t.Fatal("work pending at a crash ran after recovery")
	}
	m.busy = true
	m.whenIdle(fn)
	m.Retire()
	m.busy = false
	m.kick()
	if ran != 1+8*102 {
		t.Fatal("work pending at a retire ran")
	}
	m.whenIdle(fn)
	if ran != 1+8*102 {
		t.Fatal("a retired daemon took idle work")
	}
}

// TestHeartbeatRoundAllocs: one heartbeat round to seven peers, delivered,
// allocates one object, the message they share. A copy per peer made seven.
func TestHeartbeatRoundAllocs(t *testing.T) {
	h := newHarness(t, 8, noBal, nil)
	m := h.mdss[0]
	hb := Heartbeat{From: 0, Auth: 12.5, All: 14, CPU: 40, Queue: 3}
	round := func() {
		hb.Seq++
		m.broadcastHeartbeat(hb)
		h.engine.RunUntilIdle()
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 1 {
		t.Fatalf("a heartbeat round made %.0f allocations, want 1", got)
	}
	for _, peer := range h.mdss[1:] {
		if got := peer.hbData[0]; got != hb {
			t.Fatalf("rank %d holds %+v, want %+v", peer.rank, got, hb)
		}
	}
	if m.Counters.HBsSent != 7*102 {
		t.Fatalf("HBsSent = %d, want %d", m.Counters.HBsSent, 7*102)
	}
}

// TestServiceRecordReuseAcrossCrash: a rank crashes with a service interval
// and a journal append in flight and recovers inside the interval, so the
// stale interval, the late journal ack and fresh requests all run while
// their records are being recycled. The client-visible reply sequence is
// the one the closure-per-hop code produced.
func TestServiceRecordReuseAcrossCrash(t *testing.T) {
	h := newHarness(t, 1, noBal, func(c *Config) {
		c.RecoverBase = 10 * sim.Microsecond
		c.RecoverPerEntry = 0
	})
	m := h.mdss[0]
	h.do(0, OpMkdir, "/a")
	send := func(at sim.Time, id uint64, op OpType, path string) {
		h.engine.Schedule(at, func() {
			h.net.Send(h.client, 0, &Request{ID: id, Client: h.client, Op: op, Path: path})
		})
	}
	// Arrivals are 100 µs after each send; a create is 290 µs of service
	// and its journal write acks 200 µs after the interval ends.
	send(0, 2, OpCreate, "/a/f1")   // served 100–390, journal acks at 590
	send(0, 3, OpCreate, "/a/f2")   // served 390–680: the interval the crash strands
	send(405, 7, OpCreate, "/a/f7") // arrives at 505, while the rank is down
	send(450, 6, OpCreate, "/a/f1") // arrives at 550, after recovery: exists
	send(520, 4, OpGetattr, "/a/f1")
	h.engine.Schedule(500, func() {
		m.Crash()
		m.Recover(nil) // back at 510
	})
	// Recover restarted the balancer ticker: run past the scenario, well
	// short of the first tick, and stop it so the engine can go idle.
	h.engine.Run(h.engine.Now() + 10*sim.Millisecond)
	m.Stop()
	h.nextID = 7
	h.do(0, OpCreate, "/a/f8")

	type outcome struct {
		id  uint64
		err string
	}
	want := []outcome{
		{1, ""}, {2, ""}, {4, ""},
		{6, "namespace: entry already exists: /a/f1"},
		{3, ""}, {8, ""},
	}
	if len(h.replies) != len(want) {
		t.Fatalf("%d replies, want %d", len(h.replies), len(want))
	}
	for i, r := range h.replies {
		if got := (outcome{r.ReqID, r.Err}); got != want[i] {
			t.Fatalf("reply %d = %+v, want %+v", i, got, want[i])
		}
	}
	if m.Counters.Crashes != 1 || m.Counters.Recoveries != 1 || m.QueueLen() != 0 {
		t.Fatalf("crashes %d recoveries %d queued %d, want 1/1/0",
			m.Counters.Crashes, m.Counters.Recoveries, m.QueueLen())
	}
	// Idle engine: every record is back on the free list, each once.
	seen := map[*svcRec]bool{}
	for _, rec := range m.svcFree {
		if seen[rec] {
			t.Fatal("a service record was released twice")
		}
		seen[rec] = true
	}
}

// TestRebalanceEnvAllocs: a balancer tick builds its environment in the
// daemon's own env and MDSs slice, so a rebalance whose policy never
// migrates allocates nothing, and a later tick sees only the latest
// heartbeats, not what an earlier tick left in the slice. A fresh env per
// tick made two allocations: the env and its MDSs.
func TestRebalanceEnvAllocs(t *testing.T) {
	h := newHarness(t, 8, noBal, nil)
	m := h.mdss[0]
	for r := 0; r < 8; r++ {
		m.hbData[namespace.Rank(r)] = Heartbeat{From: namespace.Rank(r), Auth: float64(r), All: 2 * float64(r), CPU: 10}
	}
	m.rebalance()
	if got := testing.AllocsPerRun(100, m.rebalance); got != 0 {
		t.Fatalf("a rebalance tick made %.0f allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { m.buildEnv() }); got != 0 {
		t.Fatalf("buildEnv made %.0f allocations, want 0", got)
	}
	delete(m.hbData, 3)
	e := m.buildEnv()
	if len(e.MDSs) != 8 || e.MDSs[3] != (balancer.MDSMetrics{}) || e.MDSs[5].Auth != 5 || e.Total != 0 {
		t.Fatalf("refilled env %+v, want rank 3 zero and rank 5's heartbeat", e)
	}
}
