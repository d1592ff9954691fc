package simnet

import (
	"testing"

	"mantle/internal/sim"
)

type recorder struct {
	got []Message
	at  []sim.Time
	eng *sim.Engine
}

func (r *recorder) HandleMessage(from Addr, msg Message) {
	r.got = append(r.got, msg)
	r.at = append(r.at, r.eng.Now())
}

func newPair(t *testing.T, cfg Config) (*sim.Engine, *Network, *recorder, *recorder) {
	t.Helper()
	e := sim.NewEngine(1)
	n := New(e, cfg)
	a := &recorder{eng: e}
	b := &recorder{eng: e}
	n.Register(1, a)
	n.Register(2, b)
	return e, n, a, b
}

func TestDeliveryLatency(t *testing.T) {
	e, n, _, b := newPair(t, Config{Latency: 100})
	n.Send(1, 2, "hello")
	e.RunUntilIdle()
	if len(b.got) != 1 || b.got[0] != "hello" {
		t.Fatalf("got %v", b.got)
	}
	if b.at[0] != 100 {
		t.Fatalf("delivered at %v, want 100", b.at[0])
	}
}

func TestJitterWithinBounds(t *testing.T) {
	e, n, _, b := newPair(t, Config{Latency: 100, Jitter: 30})
	for i := 0; i < 200; i++ {
		n.Send(1, 2, i)
	}
	e.RunUntilIdle()
	if len(b.got) != 200 {
		t.Fatalf("delivered %d, want 200", len(b.got))
	}
	for _, at := range b.at {
		if at < 70 || at > 130 {
			t.Fatalf("delivery at %v outside [70,130]", at)
		}
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	e, n, _, _ := newPair(t, Config{Latency: 10})
	n.Send(1, 99, "void")
	e.RunUntilIdle()
	if n.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", n.Dropped)
	}
}

func TestUnregisterDropsInFlight(t *testing.T) {
	e, n, _, b := newPair(t, Config{Latency: 10})
	n.Send(1, 2, "x")
	n.Unregister(2)
	e.RunUntilIdle()
	if len(b.got) != 0 {
		t.Fatal("message delivered to unregistered node")
	}
	if n.Dropped != 1 {
		t.Fatalf("dropped = %d", n.Dropped)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	e, n, a, b := newPair(t, Config{Latency: 10})
	n.Partition(1, 2)
	n.Send(1, 2, "lost")
	n.Send(2, 1, "reverse-ok") // partition is directional
	e.RunUntilIdle()
	if len(b.got) != 0 {
		t.Fatal("partitioned message delivered")
	}
	if len(a.got) != 1 {
		t.Fatal("reverse direction should deliver")
	}
	n.Heal(1, 2)
	n.Send(1, 2, "found")
	e.RunUntilIdle()
	if len(b.got) != 1 || b.got[0] != "found" {
		t.Fatalf("after heal got %v", b.got)
	}
}

func TestHealAll(t *testing.T) {
	e, n, _, b := newPair(t, Config{Latency: 10})
	n.Partition(1, 2)
	n.Partition(2, 1)
	n.HealAll()
	n.Send(1, 2, "x")
	e.RunUntilIdle()
	if len(b.got) != 1 {
		t.Fatal("HealAll did not restore links")
	}
}

func TestBroadcast(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, Config{Latency: 5})
	recs := make([]*recorder, 4)
	addrs := make([]Addr, 0, 3)
	for i := range recs {
		recs[i] = &recorder{eng: e}
		n.Register(Addr(i), recs[i])
		if i > 0 {
			addrs = append(addrs, Addr(i))
		}
	}
	n.Broadcast(0, addrs, "hb")
	e.RunUntilIdle()
	for i := 1; i < 4; i++ {
		if len(recs[i].got) != 1 {
			t.Fatalf("node %d got %d messages", i, len(recs[i].got))
		}
	}
	if len(recs[0].got) != 0 {
		t.Fatal("sender received its own broadcast")
	}
	if n.Sent != 3 || n.Delivered != 3 {
		t.Fatalf("sent=%d delivered=%d", n.Sent, n.Delivered)
	}
}

func TestFIFOPerLinkWithoutJitter(t *testing.T) {
	e, n, _, b := newPair(t, Config{Latency: 10})
	for i := 0; i < 50; i++ {
		n.Send(1, 2, i)
	}
	e.RunUntilIdle()
	for i, m := range b.got {
		if m.(int) != i {
			t.Fatalf("out of order delivery: %v", b.got)
		}
	}
}

func TestDoubleRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := sim.NewEngine(1)
	n := New(e, Config{})
	n.Register(1, HandlerFunc(func(Addr, Message) {}))
	n.Register(1, HandlerFunc(func(Addr, Message) {}))
}

func TestHandlerFunc(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, Config{Latency: 1})
	var got Message
	n.Register(7, HandlerFunc(func(from Addr, msg Message) {
		if from != 3 {
			t.Errorf("from = %d", from)
		}
		got = msg
	}))
	n.Send(3, 7, 42)
	e.RunUntilIdle()
	if got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestDropCausesCountedSeparately(t *testing.T) {
	e, n, _, _ := newPair(t, Config{Latency: 10})
	n.Partition(1, 2)
	n.Send(1, 2, "cut")
	n.Heal(1, 2)
	n.Send(1, 99, "dead")
	e.RunUntilIdle()
	if n.DroppedPartition != 1 || n.DroppedDead != 1 || n.DroppedLoss != 0 {
		t.Fatalf("partition=%d dead=%d loss=%d", n.DroppedPartition, n.DroppedDead, n.DroppedLoss)
	}
	if n.Dropped != n.DroppedPartition+n.DroppedDead+n.DroppedLoss {
		t.Fatalf("total %d != sum of causes", n.Dropped)
	}
}

func TestLinkFaultLoss(t *testing.T) {
	e, n, _, b := newPair(t, Config{Latency: 10})
	n.SetFaultSeed(7)
	n.SetLinkFault(1, 2, LinkFault{LossProb: 0.5})
	const total = 400
	for i := 0; i < total; i++ {
		n.Send(1, 2, i)
	}
	e.RunUntilIdle()
	if n.DroppedLoss == 0 {
		t.Fatal("no losses at p=0.5")
	}
	if int(n.DroppedLoss)+len(b.got) != total {
		t.Fatalf("loss %d + delivered %d != %d", n.DroppedLoss, len(b.got), total)
	}
	if n.DroppedLoss < total/4 || n.DroppedLoss > 3*total/4 {
		t.Fatalf("loss %d wildly off p=0.5 of %d", n.DroppedLoss, total)
	}
	// Clearing restores lossless delivery.
	n.ClearLinkFaults()
	before := len(b.got)
	for i := 0; i < 50; i++ {
		n.Send(1, 2, i)
	}
	e.RunUntilIdle()
	if len(b.got)-before != 50 {
		t.Fatal("losses after ClearLinkFaults")
	}
}

func TestLinkFaultExtraLatency(t *testing.T) {
	e, n, _, b := newPair(t, Config{Latency: 10})
	n.SetLinkFault(1, 2, LinkFault{ExtraLatency: 90})
	n.Send(1, 2, "slow")
	e.RunUntilIdle()
	if len(b.got) != 1 || b.at[0] != 100 {
		t.Fatalf("delivered at %v, want 100", b.at)
	}
	// Only the faulted direction pays.
	a := &recorder{eng: e}
	_ = a
	n.Send(2, 1, "fast")
	e.RunUntilIdle()
	if n.Delivered != 2 {
		t.Fatalf("delivered=%d", n.Delivered)
	}
}

func TestDefaultLinkFaultAppliesEverywhere(t *testing.T) {
	e, n, a, b := newPair(t, Config{Latency: 10})
	n.SetFaultSeed(3)
	n.SetDefaultLinkFault(LinkFault{LossProb: 1})
	n.Send(1, 2, "x")
	n.Send(2, 1, "y")
	e.RunUntilIdle()
	if len(a.got) != 0 || len(b.got) != 0 {
		t.Fatal("default fault did not drop")
	}
	if n.DroppedLoss != 2 {
		t.Fatalf("loss = %d", n.DroppedLoss)
	}
	// A per-link override wins over the default.
	n.SetLinkFault(1, 2, LinkFault{ExtraLatency: 1})
	n.Send(1, 2, "through")
	e.RunUntilIdle()
	if len(b.got) != 1 {
		t.Fatal("per-link override ignored")
	}
}

// TestFaultMachineryPassive proves the fault plumbing consumes no randomness
// and adds no latency when nothing is installed: two identical runs, one on
// a network that never touched the fault API, deliver at identical times.
func TestFaultMachineryPassive(t *testing.T) {
	run := func(touch bool) []sim.Time {
		e := sim.NewEngine(5)
		n := New(e, Config{Latency: 10, Jitter: 5})
		r := &recorder{eng: e}
		n.Register(2, r)
		n.Register(1, HandlerFunc(func(Addr, Message) {}))
		if touch {
			n.SetFaultSeed(99)
			n.SetLinkFault(1, 2, LinkFault{LossProb: 0.5})
			n.ClearLinkFaults()
		}
		for i := 0; i < 100; i++ {
			n.Send(1, 2, i)
		}
		e.RunUntilIdle()
		return r.at
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSendDeliverAllocs: a message in flight costs no heap object once the
// delivery free list and the engine's event pool are warm (a closure per
// send allocated 1). Sends dropped at a partition or at a dead destination
// allocate nothing either.
func TestSendDeliverAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, Config{Latency: 10, Jitter: 3})
	got := 0
	n.Register(1, HandlerFunc(func(Addr, Message) {}))
	n.Register(2, HandlerFunc(func(Addr, Message) { got++ }))
	msg := &struct{ seq int }{}
	for _, c := range []struct {
		name string
		to   Addr
		cut  bool
	}{{"delivered", 2, false}, {"dead destination", 99, false}, {"partitioned", 2, true}} {
		if c.cut {
			n.Partition(1, 2)
		}
		send := func() {
			n.Send(1, c.to, msg)
			e.RunUntilIdle()
		}
		send()
		if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
			t.Errorf("%s: Send+deliver allocates %.0f objects, want 0", c.name, allocs)
		}
		if len(n.free) > 1 {
			t.Errorf("%s: %d idle records after serial sends, want <= 1", c.name, len(n.free))
		}
	}
	if got != 1002 || n.DroppedDead != 1002 || n.DroppedPartition != 1002 {
		t.Fatalf("delivered %d, dead %d, partitioned %d; want 1002 each", got, n.DroppedDead, n.DroppedPartition)
	}
}

// TestDeliveryReuseFromHandler: a handler that sends from inside
// HandleMessage reuses the record its own delivery just released; each
// message still arrives with its own from, to and payload.
func TestDeliveryReuseFromHandler(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, Config{Latency: 10})
	type arrival struct {
		from, to Addr
		msg      Message
	}
	var log []arrival
	n.Register(1, HandlerFunc(func(from Addr, msg Message) {
		log = append(log, arrival{from, 1, msg})
		if msg == "ping" {
			n.Send(1, 2, "pong")
			n.Send(1, 99, "void") // dead destination: recycled at arrival
		}
	}))
	n.Register(2, HandlerFunc(func(from Addr, msg Message) {
		log = append(log, arrival{from, 2, msg})
	}))
	n.Send(3, 1, "ping")
	e.RunUntilIdle()
	want := []arrival{{3, 1, "ping"}, {1, 2, "pong"}}
	if len(log) != len(want) || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("arrivals %v, want %v", log, want)
	}
	if n.DroppedDead != 1 || len(n.free) != 2 {
		t.Fatalf("dead drops %d, idle records %d; want 1 and 2", n.DroppedDead, len(n.free))
	}
	for _, d := range n.free {
		if d.msg != nil {
			t.Fatalf("idle record still holds %v", d.msg)
		}
	}
}
