package mds

import (
	"strconv"
	"testing"

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

// TestServedGetattrAllocs: a served getattr allocates only its Reply. The
// Request is reused across runs, so the count is the MDS path's own. With a
// closure per hop it was 7: also the hint slice, the queue's re-grown
// backing array, the service closure and startBusy's wrapper, and two
// delivery closures.
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
	if allocs > 1 {
		t.Fatalf("served getattr allocates %.0f objects, want <= 1 (the Reply)", allocs)
	}
	if *replies != 1002 {
		t.Fatalf("%d replies for 1002 requests", *replies)
	}
}

// TestServedCreateAllocs: a served create allocates only its Reply too: the
// file node comes from the namespace's slab and amortises below one per
// create, and the service interval, journal append and both deliveries
// allocate nothing. Paths are built before the runs. With a closure per hop
// it was 11: the getattr's 7 plus the journal-done closure, the journal's
// apply and done closures, and the pool's scheduled closure.
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
	if allocs > 1 {
		t.Fatalf("served create allocates %.0f objects, want <= 1 (the Reply)", allocs)
	}
	if *replies != runs+2 {
		t.Fatalf("%d replies for %d requests", *replies, runs+2)
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
