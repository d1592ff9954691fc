package live

import (
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/faults"
	"mantle/internal/simnet"
)

// discard is a goroutine-safe sink handler for transport unit tests.
var discard = simnet.HandlerFunc(func(simnet.Addr, simnet.Message) {})

// epochOwner reads the epoch that owns an address's registration (white-box).
func epochOwner(t *transport, a simnet.Addr) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ep, ok := t.nodes[a]
	if !ok {
		return 0, false
	}
	return ep.epoch, true
}

func TestEpochRegistrationOwnership(t *testing.T) {
	tr := newTransport(&Runtime{}, simnet.Config{}, 1)
	const addr = simnet.Addr(7)

	tr.registerEpoch(addr, discard, 1)
	if ep, ok := epochOwner(tr, addr); !ok || ep != 1 {
		t.Fatalf("owner after register = %d,%v, want 1,true", ep, ok)
	}
	// A higher epoch forcibly evicts the zombie's registration.
	tr.registerEpoch(addr, discard, 3)
	if ep, _ := epochOwner(tr, addr); ep != 3 {
		t.Fatalf("owner after higher-epoch register = %d, want 3", ep)
	}
	// A lower epoch (the zombie racing back) is refused silently.
	tr.registerEpoch(addr, discard, 2)
	if ep, _ := epochOwner(tr, addr); ep != 3 {
		t.Fatalf("owner after lower-epoch register = %d, want 3", ep)
	}
	// The zombie cannot unregister its replacement...
	tr.unregisterEpoch(addr, 2)
	if !tr.Registered(addr) {
		t.Fatal("stale-epoch unregister removed the replacement")
	}
	// ...but the owner can tear itself down.
	tr.unregisterEpoch(addr, 3)
	if tr.Registered(addr) {
		t.Fatal("owner unregister did not remove the endpoint")
	}
	// Equal-epoch double registration is a runtime bug and must panic.
	tr.registerEpoch(addr, discard, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("equal-epoch re-registration did not panic")
		}
	}()
	tr.registerEpoch(addr, discard, 5)
}

func TestFencedNetDropsStaleSends(t *testing.T) {
	rt := &Runtime{}
	rt.epochs = make([]atomic.Uint64, 2)
	tr := newTransport(rt, simnet.Config{}, 1)
	fn := &fencedNet{t: tr, rank: 1, epoch: 1}

	fn.Send(3, 4, &struct{}{}) // table at 0: not fenced, reaches the transport
	if got := tr.Sent.Load(); got != 1 {
		t.Fatalf("sent = %d, want 1", got)
	}
	rt.epochs[1].Store(2) // the monitor fences epoch 1
	fn.Send(3, 4, &struct{}{})
	if got := tr.DroppedStale.Load(); got != 1 {
		t.Fatalf("dropped-stale = %d, want 1", got)
	}
	if got := tr.Sent.Load(); got != 1 {
		t.Fatalf("sent after fence = %d, want 1 (drop precedes the wire)", got)
	}
}

func TestPartitionDropsAtSend(t *testing.T) {
	tr := newTransport(&Runtime{}, simnet.Config{}, 1)
	tr.Partition(1, 2)
	tr.Send(1, 2, &struct{}{})
	if got := tr.DroppedPart.Load(); got != 1 {
		t.Fatalf("dropped-partition = %d, want 1", got)
	}
	// Directed: the reverse link is untouched.
	tr.Send(2, 1, &struct{}{})
	if got := tr.DroppedPart.Load(); got != 1 {
		t.Fatalf("reverse send dropped: dropped-partition = %d, want 1", got)
	}
	tr.Heal(1, 2)
	tr.Send(1, 2, &struct{}{})
	if got := tr.DroppedPart.Load(); got != 1 {
		t.Fatalf("send after heal dropped: dropped-partition = %d, want 1", got)
	}
}

// TestLiveNoMonitorUnchanged pins the degradation contract: without
// -standbys/-mon-grace there is no monitor, no fencing epochs, and none of
// the self-healing counters move.
func TestLiveNoMonitorUnchanged(t *testing.T) {
	rt, err := New(testConfig(2, 1500, 400*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Monitor() != nil {
		t.Fatal("monitor enabled without standbys or grace")
	}
	if rt.MDS(0).Epoch() != 0 {
		t.Fatal("fencing epoch assigned without a monitor")
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.MonFailures != 0 || rep.MonTakeovers != 0 || rep.SelfFences != 0 ||
		rep.StaleRejects != 0 || rep.DroppedStale != 0 || rep.DroppedPart != 0 {
		t.Fatalf("self-healing counters moved without a monitor: %+v", rep)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
}

// TestLiveMonitorTakeover crashes a loaded rank under the monitor: beacons
// go silent, the rank is declared failed within the grace window, and a
// standby takes over after modelled journal replay. MTTR (declare→serving)
// must fit the grace + replay budget the report advertises.
func TestLiveMonitorTakeover(t *testing.T) {
	const grace = 600 * time.Millisecond
	cfg := testConfig(2, 2000, 2500*time.Millisecond)
	cfg.Standbys = 1
	cfg.MonGrace = grace
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(800 * time.Millisecond)
		rt.CrashRank(1)
	}()
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.MonFailures < 1 {
		t.Fatal("monitor declared no failures")
	}
	if rep.MonTakeovers < 1 || len(rep.Takeovers) < 1 {
		t.Fatalf("no takeover: %d declared, %d takeovers", rep.MonFailures, rep.MonTakeovers)
	}
	for _, to := range rep.Takeovers {
		if budget := grace + to.Replay; to.MTTR > budget {
			t.Fatalf("rank %d MTTR %v exceeds grace+replay budget %v", to.Rank, to.MTTR, budget)
		}
	}
	if rep.Recoveries < 1 {
		t.Fatal("replacement daemon not counted as a recovery")
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
	if rep.WedgedMigrations != 0 {
		t.Fatalf("wedged migrations: %d", rep.WedgedMigrations)
	}
	got := rt.gen.completed.Load() + rt.gen.errors.Load() + rt.gen.shedSeen.Load() + rt.gen.timeouts.Load()
	if got != rep.Issued {
		t.Fatalf("accounting: completed+errors+sheds+timeouts = %d, issued = %d", got, rep.Issued)
	}
}

// TestLiveSplitBrainFenced is the no-split-brain soak (run it under -race):
// a loaded rank is partitioned from its peers and the monitor but NOT from
// clients, so it keeps serving and believes it is healthy. The monitor
// declares it failed and fences it with a new epoch; a standby takes over by
// journal replay; the zombie's writes are rejected at the namespace boundary
// and its sends drop at the transport; on discovering the supersession it
// self-fences and returns its node to the standby pool. Post-heal drain must
// report intact invariants with conserved op accounting.
func TestLiveSplitBrainFenced(t *testing.T) {
	const grace = time.Second
	cfg := testConfig(2, 2400, 4*time.Second)
	cfg.SeedBounds = true // rank 1 owns half the working set from t=0
	cfg.Standbys = 1
	cfg.MonGrace = grace
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.ApplyFaults(isolate(1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.DroppedPart == 0 {
		t.Fatal("partition cut dropped nothing")
	}
	if rep.MonFailures < 1 {
		t.Fatal("partitioned rank never declared failed")
	}
	if rep.MonTakeovers < 1 || len(rep.Takeovers) < 1 {
		t.Fatal("standby never took over the partitioned rank")
	}
	// The zombie was alive and loaded the whole time: fencing must have
	// actually rejected its activity, not just replaced it.
	if rep.SelfFences < 1 {
		t.Fatal("superseded daemon never self-fenced")
	}
	if rep.StaleRejects+rep.DroppedStale == 0 {
		t.Fatal("no stale-epoch activity rejected (writes or sends)")
	}
	// Self-fencing returns the zombie's node to the pool: one consumed, one
	// refunded.
	if rep.StandbysLeft != 1 {
		t.Fatalf("standbys left = %d, want 1 (consume + self-fence refund)", rep.StandbysLeft)
	}
	for _, to := range rep.Takeovers {
		if budget := grace + to.Replay; to.MTTR > budget {
			t.Fatalf("rank %d MTTR %v exceeds grace+replay budget %v", to.Rank, to.MTTR, budget)
		}
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
	if rep.WedgedMigrations != 0 {
		t.Fatalf("wedged migrations: %d", rep.WedgedMigrations)
	}
	got := rt.gen.completed.Load() + rt.gen.errors.Load() + rt.gen.shedSeen.Load() + rt.gen.timeouts.Load()
	if got != rep.Issued {
		t.Fatalf("accounting: completed+errors+sheds+timeouts = %d, issued = %d", got, rep.Issued)
	}
}

// TestLiveFaultPlanMonPartition drives the same scenario through the fault
// plan vocabulary: a symmetric rank↔monitor cut (endpoint faults.Mon) that
// heals mid-run. The monitor must declare the beacon-silent rank failed and
// promote a standby.
func TestLiveFaultPlanMonPartition(t *testing.T) {
	cfg := testConfig(2, 1800, 3*time.Second)
	cfg.Standbys = 1
	cfg.MonGrace = 800 * time.Millisecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{
		Name: "mon-cut",
		Events: []faults.Event{
			{At: 0.5, Kind: faults.KindPartition, From: 1, To: faults.Mon, Symmetric: true, HealAfter: 1.5},
		},
	}
	if err := rt.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.DroppedPart == 0 {
		t.Fatal("monitor cut dropped nothing")
	}
	if rep.MonFailures < 1 || rep.MonTakeovers < 1 {
		t.Fatalf("beacon-silent rank not replaced: %d declared, %d takeovers",
			rep.MonFailures, rep.MonTakeovers)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
}

func TestApplyFaultsValidates(t *testing.T) {
	rt, err := New(testConfig(2, 500, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	bad := faults.Plan{Events: []faults.Event{{At: 0, Kind: faults.KindCrash, Rank: 5}}}
	if err := rt.ApplyFaults(bad); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	// The monitor endpoint is only meaningful on link events.
	badMon := faults.Plan{Events: []faults.Event{{At: 0, Kind: faults.KindCrash, Rank: faults.Mon}}}
	if err := rt.ApplyFaults(badMon); err == nil {
		t.Fatal("monitor endpoint accepted as a crash target")
	}
	if _, err := rt.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// isolate is the plan that cuts rank off from every other rank and the
// monitor, both directions, at the given second for dur seconds, while
// leaving client links intact: the rank keeps receiving requests and
// believes it is serving (the partitioned-but-alive split brain).
func isolate(rank int, at, dur float64) faults.Plan {
	return faults.Plan{Name: "isolate", Events: []faults.Event{
		{At: at, Kind: faults.KindPartition, From: rank, To: faults.Wildcard, Symmetric: true, HealAfter: dur},
		{At: at, Kind: faults.KindPartition, From: rank, To: faults.Mon, Symmetric: true, HealAfter: dur},
	}}
}
