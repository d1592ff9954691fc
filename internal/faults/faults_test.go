package faults_test

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/cluster"
	"mantle/internal/core"
	"mantle/internal/elastic"
	"mantle/internal/faults"
	"mantle/internal/sim"
	"mantle/internal/simnet"
	"mantle/internal/workload"
)

func noBal() cluster.BalancerFactory {
	return cluster.GoBalancers(func() balancer.Balancer { return balancer.NoBalancer{} })
}

func newCluster(t *testing.T, numMDS int, seed int64, factory cluster.BalancerFactory) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig(numMDS, seed)
	cfg.Client.RequestTimeout = 500 * sim.Millisecond
	c, err := cluster.New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := faults.Parse([]byte(`{"events":[{"at":1,"kind":"crash","rankk":1}]}`)); err == nil {
		t.Fatal("typo field accepted")
	}
	p, err := faults.Parse([]byte(`{"seed":7,"events":[{"at":1,"kind":"crash","rank":1}]}`))
	if err != nil || p.Seed != 7 || len(p.Events) != 1 {
		t.Fatalf("parse: %+v, %v", p, err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := faults.Plan{Name: "rt", Seed: 3, Events: []faults.Event{
		{At: 1, Kind: faults.KindCrash, Rank: 1, HealAfter: 2},
		{At: 0.5, Kind: faults.KindLinkLoss, From: faults.Wildcard, To: faults.Wildcard, LossProb: 0.1, Duration: 4},
	}}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := faults.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed plan:\n%+v\n%+v", p, got)
	}
}

func TestValidateCatchesBadPlans(t *testing.T) {
	cases := []struct {
		name string
		ev   faults.Event
		frag string
	}{
		{"unknown kind", faults.Event{At: 1, Kind: "meteor"}, "unknown kind"},
		{"negative time", faults.Event{At: -1, Kind: faults.KindCrash}, "negative time"},
		{"rank range", faults.Event{At: 1, Kind: faults.KindCrash, Rank: 9}, "out of range"},
		{"link range", faults.Event{At: 1, Kind: faults.KindPartition, From: 0, To: 7}, "out of range"},
		{"loss prob", faults.Event{At: 1, Kind: faults.KindLinkLoss, LossProb: 1.5}, "outside [0,1]"},
		{"osd knobs", faults.Event{At: 1, Kind: faults.KindOSDSlow, ErrorProb: 2}, "bad OSD knobs"},
		{"policy mode", faults.Event{At: 1, Kind: faults.KindBadPolicy, Mode: "subtle"}, "unknown bad_policy mode"},
		// Times the clock cannot hold would wrap negative and fire at once.
		{"time overflow", faults.Event{At: 1e300, Kind: faults.KindCrash}, "at is"},
		{"time NaN", faults.Event{At: math.NaN(), Kind: faults.KindCrash}, "at is"},
		{"heal overflow", faults.Event{At: 1, Kind: faults.KindCrash, HealAfter: 1e300}, "heal_after is"},
		{"negative heal", faults.Event{At: 1, Kind: faults.KindPartition, HealAfter: -1}, "heal_after is"},
		{"negative duration", faults.Event{At: 1, Kind: faults.KindOSDSlow, Duration: -1}, "duration is"},
		{"duration +Inf", faults.Event{At: 1, Kind: faults.KindLinkLoss, Duration: math.Inf(1)}, "duration is"},
		{"negative latency", faults.Event{At: 1, Kind: faults.KindLinkLoss, ExtraLatencyMs: -1}, "extra_latency_ms is"},
		{"latency overflow", faults.Event{At: 1, Kind: faults.KindLinkLoss, ExtraLatencyMs: 1e300}, "extra_latency_ms is"},
	}
	for _, c := range cases {
		err := faults.Plan{Events: []faults.Event{c.ev}}.Validate(3)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.frag)
		}
	}
	// The bound itself is a valid time.
	edge := faults.Event{At: 1e9, Kind: faults.KindLinkLoss, Duration: 1e9, ExtraLatencyMs: 1e12}
	if err := (faults.Plan{Events: []faults.Event{edge}}).Validate(3); err != nil {
		t.Errorf("times at the bound rejected: %v", err)
	}
}

func TestCrashHealAfterRecovers(t *testing.T) {
	c := newCluster(t, 2, 11, noBal())
	if err := c.PrePopulate([]string{"/work"}, true); err != nil {
		t.Fatal(err)
	}
	if err := c.PreAssign("/work", 1); err != nil {
		t.Fatal(err)
	}
	c.AddClient(workload.Creates(workload.CreateConfig{Dir: "/work", Files: 10000, Prefix: "f"}))
	plan := faults.Plan{Events: []faults.Event{{At: 1, Kind: faults.KindCrash, Rank: 1, HealAfter: 2}}}
	if err := c.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	res := c.Run(5 * sim.Minute)
	if !res.AllDone {
		t.Fatalf("workload did not survive the scheduled crash: %v", res.ClientOps)
	}
	if c.MDSs[1].Counters.Crashes != 1 || c.MDSs[1].Counters.Recoveries != 1 {
		t.Fatalf("counters: %+v", c.MDSs[1].Counters)
	}
}

func TestPartitionDropsAndHeals(t *testing.T) {
	cfg := cluster.DefaultConfig(2, 13)
	cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
	cfg.Client.RequestTimeout = 500 * sim.Millisecond
	c, err := cluster.New(cfg, noBal())
	if err != nil {
		t.Fatal(err)
	}
	c.AddClient(workload.SeparateDirCreates("", 0, 5000))
	plan := faults.Plan{Events: []faults.Event{
		{At: 1, Kind: faults.KindPartition, From: 0, To: 1, Symmetric: true, HealAfter: 3},
	}}
	if err := c.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	res := c.Run(5 * sim.Minute)
	if !res.AllDone {
		t.Fatal("workload did not finish")
	}
	if c.Net.DroppedPartition == 0 {
		t.Fatal("partition never dropped a message (heartbeats should cross it)")
	}
	if c.Net.DroppedPartition != c.Net.Dropped-c.Net.DroppedDead-c.Net.DroppedLoss {
		t.Fatalf("drop accounting inconsistent: %d total, %d part, %d dead, %d loss",
			c.Net.Dropped, c.Net.DroppedPartition, c.Net.DroppedDead, c.Net.DroppedLoss)
	}
}

func TestLinkLossIsDeterministic(t *testing.T) {
	run := func() (*cluster.Cluster, *cluster.Result) {
		c := newCluster(t, 2, 17, noBal())
		c.AddClient(workload.SeparateDirCreates("", 0, 4000))
		c.AddClient(workload.SeparateDirCreates("", 1, 4000))
		plan := faults.Plan{Seed: 99, Events: []faults.Event{
			{At: 0.5, Kind: faults.KindLinkLoss, From: faults.Wildcard, To: faults.Wildcard, LossProb: 0.02, ExtraLatencyMs: 0.3, Duration: 5},
		}}
		if err := c.ApplyFaults(plan); err != nil {
			t.Fatal(err)
		}
		return c, c.Run(10 * sim.Minute)
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1.Net.DroppedLoss == 0 {
		t.Fatal("loss fault never dropped a message")
	}
	if c1.Net.DroppedLoss != c2.Net.DroppedLoss || r1.TotalOps != r2.TotalOps || r1.Makespan != r2.Makespan {
		t.Fatalf("same plan diverged: loss %d vs %d, ops %d vs %d, makespan %v vs %v",
			c1.Net.DroppedLoss, c2.Net.DroppedLoss, r1.TotalOps, r2.TotalOps, r1.Makespan, r2.Makespan)
	}
	if !r1.AllDone {
		t.Fatal("clients did not ride out the loss window")
	}
}

func TestOSDSlowWindowStretchesRun(t *testing.T) {
	run := func(withFault bool) *cluster.Result {
		c := newCluster(t, 1, 19, noBal())
		c.AddClient(workload.SeparateDirCreates("", 0, 5000))
		if withFault {
			plan := faults.Plan{Seed: 5, Events: []faults.Event{
				{At: 0.2, Kind: faults.KindOSDSlow, SlowFactor: 20, ErrorProb: 0.05, Duration: 3},
			}}
			if err := c.ApplyFaults(plan); err != nil {
				t.Fatal(err)
			}
		}
		return c.Run(10 * sim.Minute)
	}
	slow := run(true)
	fast := run(false)
	if !slow.AllDone || !fast.AllDone {
		t.Fatal("runs did not finish")
	}
	if slow.Makespan <= fast.Makespan {
		t.Fatalf("OSD slowdown had no effect: %v vs %v", slow.Makespan, fast.Makespan)
	}
}

func TestBadPolicyTriggersFallback(t *testing.T) {
	cfg := cluster.DefaultConfig(2, 23)
	cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
	cfg.MDS.RebalanceDelay = 50 * sim.Millisecond
	cfg.Client.RequestTimeout = 500 * sim.Millisecond
	c, err := cluster.New(cfg, cluster.LuaBalancers(core.GreedySpillPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	c.AddClient(workload.SharedDirCreates("/shared", 0, 8000))
	plan := faults.Plan{Events: []faults.Event{{At: 2, Kind: faults.KindBadPolicy, Rank: faults.Wildcard, Mode: "error"}}}
	if err := c.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	res := c.Run(10 * sim.Minute)
	if !res.AllDone {
		t.Fatal("workload did not finish")
	}
	if res.PolicyFallbacks == 0 {
		t.Fatal("broken policy never demoted")
	}
	for _, m := range c.MDSs {
		if name := m.Balancer().Name(); name != "greedy_spill" {
			t.Fatalf("active balancer = %q, want the base version back", name)
		}
	}
}

func TestEmptyPlanChangesNothing(t *testing.T) {
	run := func(apply bool) *cluster.Result {
		c := newCluster(t, 2, 29, noBal())
		c.AddClient(workload.SeparateDirCreates("", 0, 3000))
		if apply {
			if err := c.ApplyFaults(faults.Plan{}); err != nil {
				t.Fatal(err)
			}
		}
		return c.Run(5 * sim.Minute)
	}
	a := run(true)
	b := run(false)
	if a.TotalOps != b.TotalOps || a.Makespan != b.Makespan || a.Duration != b.Duration {
		t.Fatalf("empty plan perturbed the run: ops %d vs %d, makespan %v vs %v",
			a.TotalOps, b.TotalOps, a.Makespan, b.Makespan)
	}
}

func TestElasticFaultEventsDriveMembership(t *testing.T) {
	cfg := cluster.DefaultConfig(1, 31)
	cfg.MaxMDS = 2
	cfg.Client.RequestTimeout = 500 * sim.Millisecond
	c, err := cluster.New(cfg, noBal())
	if err != nil {
		t.Fatal(err)
	}
	ecfg := elastic.DefaultConfig(10 * sim.Second)
	ecfg.MaxRanks = 2
	ecfg.PollInterval = 2 * sim.Second
	ecfg.JoinWarmup = sim.Second
	ecfg.Cooldown = 2 * sim.Second
	if _, err := c.EnableElastic(ecfg, ""); err != nil {
		t.Fatal(err)
	}
	// Long enough that both events fire while the run is still live —
	// the engine stops once the workload drains.
	c.AddClient(workload.SeparateDirCreates("", 0, 20000))
	plan := faults.Plan{Events: []faults.Event{
		{At: 1, Kind: faults.KindGrow},
		// Past the cooldown after the join commits (t=2), so the shrink
		// is accepted rather than refused.
		{At: 6, Kind: faults.KindShrink},
	}}
	if err := c.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	res := c.Run(5 * sim.Minute)
	if !res.AllDone {
		t.Fatal("workload did not finish around the membership churn")
	}
	if res.Elastic.Grows != 1 || res.Elastic.Shrinks != 1 {
		t.Fatalf("grows=%d shrinks=%d, want 1/1 (events %v)",
			res.Elastic.Grows, res.Elastic.Shrinks, res.ElasticEvents)
	}
	if res.PeakRanks != 2 || res.FinalRanks != 1 {
		t.Fatalf("peak=%d final=%d, want 2/1", res.PeakRanks, res.FinalRanks)
	}
	if err := c.NS.CheckInvariants(1, false); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
}

// TestElasticFaultsWithoutCoordinatorAreNoops: grow/shrink events on a
// fixed-size cluster apply cleanly and change nothing — so one chaos plan
// can run against both elastic and non-elastic configurations.
func TestElasticFaultsWithoutCoordinatorAreNoops(t *testing.T) {
	c := newCluster(t, 2, 37, noBal())
	c.AddClient(workload.SeparateDirCreates("", 0, 2000))
	plan := faults.Plan{Events: []faults.Event{
		{At: 1, Kind: faults.KindGrow},
		{At: 2, Kind: faults.KindShrink},
	}}
	if err := c.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	res := c.Run(5 * sim.Minute)
	if !res.AllDone {
		t.Fatal("workload did not finish")
	}
	if got := c.RanksActive(); got != 2 {
		t.Fatalf("membership moved without a coordinator: %d ranks", got)
	}
}

func TestRandomPlanDeterministicAndValid(t *testing.T) {
	a := faults.RandomPlan(42, 3, 30)
	b := faults.RandomPlan(42, 3, 30)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	kinds := map[string]bool{}
	for seed := int64(0); seed < 200; seed++ {
		p := faults.RandomPlan(seed, 3, 30)
		if err := p.Validate(3); err != nil {
			t.Fatalf("seed %d: invalid plan: %v", seed, err)
		}
		if len(p.Events) < 2 {
			t.Fatalf("seed %d: too few events", seed)
		}
		for _, ev := range p.Events {
			kinds[ev.Kind] = true
		}
	}
	for _, k := range []string{faults.KindCrash, faults.KindPartition, faults.KindLinkLoss, faults.KindOSDSlow, faults.KindBadPolicy} {
		if !kinds[k] {
			t.Errorf("200 random plans never produced a %s event", k)
		}
	}
}

func TestRandomElasticPlanExtendsBasePlan(t *testing.T) {
	a := faults.RandomElasticPlan(42, 3, 30)
	b := faults.RandomElasticPlan(42, 3, 30)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	// The promise in the doc comment: existing faults.RandomPlan seeds are
	// unchanged — the elastic events are strictly appended.
	base := faults.RandomPlan(42, 3, 30)
	if len(a.Events) <= len(base.Events) {
		t.Fatalf("no elastic events appended: %d vs %d", len(a.Events), len(base.Events))
	}
	if !reflect.DeepEqual(a.Events[:len(base.Events)], base.Events) {
		t.Fatal("elastic plan perturbed the base plan's events")
	}
	for seed := int64(0); seed < 100; seed++ {
		p := faults.RandomElasticPlan(seed, 3, 30)
		if err := p.Validate(3); err != nil {
			t.Fatalf("seed %d: invalid plan: %v", seed, err)
		}
		nb := len(faults.RandomPlan(seed, 3, 30).Events)
		grows, shrinks := 0, 0
		for _, ev := range p.Events[nb:] {
			switch ev.Kind {
			case faults.KindGrow:
				grows++
			case faults.KindShrink:
				shrinks++
			default:
				t.Fatalf("seed %d: appended a %s event", seed, ev.Kind)
			}
		}
		if grows == 0 || grows != shrinks {
			t.Fatalf("seed %d: %d grows, %d shrinks — want paired and nonzero", seed, grows, shrinks)
		}
		// Each pair is appended grow-then-shrink with the shrink later.
		for i := nb; i < len(p.Events); i += 2 {
			if p.Events[i].Kind != faults.KindGrow || p.Events[i+1].Kind != faults.KindShrink ||
				p.Events[i+1].At <= p.Events[i].At {
				t.Fatalf("seed %d: malformed pair %+v %+v", seed, p.Events[i], p.Events[i+1])
			}
		}
	}
}

// TestWildcardPartitionExpandsLiveMembership: a wildcard partition firing
// after an elastic grow must cut the grown rank's links. The cluster starts
// with a single rank — a static snapshot of the initial membership would
// expand to zero links and the partition would drop nothing.
func TestWildcardPartitionExpandsLiveMembership(t *testing.T) {
	cfg := cluster.DefaultConfig(1, 43)
	cfg.MaxMDS = 2
	cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
	cfg.Client.RequestTimeout = 500 * sim.Millisecond
	c, err := cluster.New(cfg, noBal())
	if err != nil {
		t.Fatal(err)
	}
	ecfg := elastic.DefaultConfig(10 * sim.Second)
	ecfg.MaxRanks = 2
	ecfg.PollInterval = 2 * sim.Second
	ecfg.JoinWarmup = sim.Second
	if _, err := c.EnableElastic(ecfg, ""); err != nil {
		t.Fatal(err)
	}
	c.AddClient(workload.SeparateDirCreates("", 0, 20000))
	plan := faults.Plan{Events: []faults.Event{
		{At: 1, Kind: faults.KindGrow},
		// Fires well after the join commits; both ranks heartbeat across
		// the cut until it heals.
		{At: 6, Kind: faults.KindPartition, From: faults.Wildcard, To: faults.Wildcard, Symmetric: true, HealAfter: 3},
	}}
	if err := c.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	res := c.Run(5 * sim.Minute)
	if !res.AllDone {
		t.Fatal("workload did not finish")
	}
	if res.PeakRanks != 2 {
		t.Fatalf("grow never happened (peak %d)", res.PeakRanks)
	}
	if c.Net.DroppedPartition == 0 {
		t.Fatal("wildcard partition expanded against stale membership: the grown rank's links were never cut")
	}
}

// TestLinkLossClearSurvivesShrink: the Duration-bounded clear of a link_loss
// fault must undo exactly the fire-time links. Re-expanding the reference at
// clear time against live membership — the old behaviour — expands to
// nothing once the rank retires, leaking a permanent fault that afflicts a
// rank later regrown at the same address.
func TestLinkLossClearSurvivesShrink(t *testing.T) {
	c := newCluster(t, 2, 41, noBal())
	plan := faults.Plan{Events: []faults.Event{{Kind: faults.KindLinkLoss, From: 1, To: 0, Symmetric: true, LossProb: 1, Duration: 1}}}
	if err := c.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	c.Engine.Run(0) // the fault fires at t=0
	// Rank 1 leaves the active set before the clear fires (what an elastic
	// retirement does to the membership slice).
	c.MDSs = c.MDSs[:1]
	c.Engine.Run(2 * sim.Second) // the clear fires at t=1
	// Probe the link the fault was set on: loss is drawn at send time, so
	// the destination handler is unregistered first and a healthy link
	// shows up as dropped-dead at delivery instead. With the leak, the
	// LossProb-1 fault eats the probe at send.
	c.Net.Unregister(simnet.Addr(1))
	before := c.Net.DroppedLoss
	c.Net.Send(simnet.Addr(0), simnet.Addr(1), &struct{}{})
	c.Engine.Run(3 * sim.Second)
	if c.Net.DroppedLoss != before {
		t.Fatalf("link fault leaked past its duration: %d drops after the clear", c.Net.DroppedLoss-before)
	}
}

// TestMonEndpointValidation: faults.Mon is a link endpoint, never a rank.
func TestMonEndpointValidation(t *testing.T) {
	ok := faults.Plan{Events: []faults.Event{
		{At: 1, Kind: faults.KindPartition, From: faults.Mon, To: faults.Wildcard, Symmetric: true, HealAfter: 2},
		{At: 1, Kind: faults.KindLinkLoss, From: 0, To: faults.Mon, LossProb: 0.5, Duration: 1},
	}}
	if err := ok.Validate(2); err != nil {
		t.Fatalf("monitor link endpoints rejected: %v", err)
	}
	bad := faults.Plan{Events: []faults.Event{{At: 1, Kind: faults.KindCrash, Rank: faults.Mon}}}
	if err := bad.Validate(2); err == nil {
		t.Fatal("crash accepted the monitor as a rank")
	}
}
