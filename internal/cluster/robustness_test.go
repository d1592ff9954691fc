package cluster_test

// Cluster-level robustness gates, in an external test package so they can
// drive the cluster through internal/faults (which imports cluster).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/cluster"
	"mantle/internal/core"
	"mantle/internal/faults"
	"mantle/internal/mon"
	"mantle/internal/sim"
	"mantle/internal/telemetry"
	"mantle/internal/workload"
)

func policy(t *testing.T, name string) core.Policy {
	t.Helper()
	p, ok := core.Policies()[name]
	if !ok {
		t.Fatalf("no built-in policy %q", name)
	}
	return p
}

// TestFaultFreeRunBitIdentical is the determinism gate for the whole fault
// harness: a run with an empty fault plan applied must serialise to
// byte-identical telemetry artifacts as a run with no plan at all. The fault
// machinery may not schedule an event, seed an RNG, or perturb iteration
// order unless a fault is actually configured.
func TestFaultFreeRunBitIdentical(t *testing.T) {
	run := func(applyEmptyPlan bool) ([]byte, []byte, []byte, *cluster.Result) {
		cfg := cluster.DefaultConfig(3, 21)
		cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
		cfg.MDS.RebalanceDelay = cfg.MDS.HeartbeatInterval / 10
		cfg.ThroughputWindow = cfg.MDS.HeartbeatInterval
		cfg.Client.StartJitter = 2 * sim.Millisecond
		c, err := cluster.New(cfg, cluster.LuaBalancers(policy(t, "greedy_spill")))
		if err != nil {
			t.Fatal(err)
		}
		c.EnableTelemetry(telemetry.Options{Metrics: true, Trace: true, FlightRecorder: true})
		for i := 0; i < 3; i++ {
			c.AddClient(workload.SharedDirCreates("/shared", i, 1200))
		}
		if applyEmptyPlan {
			if err := faults.Apply(c, faults.Plan{}); err != nil {
				t.Fatal(err)
			}
		}
		res := c.Run(5 * sim.Minute)
		if !res.AllDone {
			t.Fatal("run did not finish")
		}
		var flight, metrics, trace bytes.Buffer
		if err := c.Tel.Recorder.WriteJSONL(&flight); err != nil {
			t.Fatal(err)
		}
		if err := c.Tel.Reg.WriteCSV(&metrics); err != nil {
			t.Fatal(err)
		}
		if err := c.Tel.Tracer.WriteJSON(&trace); err != nil {
			t.Fatal(err)
		}
		return flight.Bytes(), metrics.Bytes(), trace.Bytes(), res
	}
	flightP, metricsP, traceP, resP := run(true)
	flightN, metricsN, traceN, resN := run(false)
	if !bytes.Equal(flightP, flightN) {
		t.Error("empty fault plan changed the flight-recorder log")
	}
	if !bytes.Equal(metricsP, metricsN) {
		t.Error("empty fault plan changed the metrics CSV")
	}
	if !bytes.Equal(traceP, traceN) {
		t.Error("empty fault plan changed the trace JSON")
	}
	if resP.TotalOps != resN.TotalOps || resP.Makespan != resN.Makespan {
		t.Errorf("empty fault plan diverged the run: ops %d vs %d, makespan %v vs %v",
			resP.TotalOps, resN.TotalOps, resP.Makespan, resN.Makespan)
	}
	if len(flightP) == 0 {
		t.Fatal("flight recorder captured nothing; workload too small for a heartbeat")
	}
}

// TestBrokenPolicyFallsBackWithinOneHeartbeat injects a deliberately broken
// Lua balancer mid-run (unlinted, as an operator would) and requires the
// versioned stack to reinstate the previous version within one heartbeat,
// visibly in the flight recorder, without the workload noticing.
func TestBrokenPolicyFallsBackWithinOneHeartbeat(t *testing.T) {
	const hb = 500 * sim.Millisecond
	const injectAt = 2 * sim.Second
	for _, mode := range []string{"error", "garbage"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			cfg := cluster.DefaultConfig(2, 31)
			cfg.MDS.HeartbeatInterval = hb
			cfg.MDS.RebalanceDelay = 50 * sim.Millisecond
			c, err := cluster.New(cfg, cluster.LuaBalancers(policy(t, "greedy_spill")))
			if err != nil {
				t.Fatal(err)
			}
			c.EnableTelemetry(telemetry.Options{Metrics: true, FlightRecorder: true})
			for i := 0; i < 2; i++ {
				c.AddClient(workload.SharedDirCreates("/shared", i, 6000))
			}
			c.Engine.Schedule(injectAt, func() {
				if err := c.InjectPolicy(0, core.BrokenPolicy(mode)); err != nil {
					t.Errorf("inject: %v", err)
				}
			})
			res := c.Run(10 * sim.Minute)
			if !res.AllDone {
				t.Fatal("workload did not survive the broken policy")
			}
			if res.PolicyFallbacks == 0 {
				t.Fatal("no fallback recorded")
			}
			// The first rank-0 heartbeat after injection must already have
			// demoted the broken version and logged it.
			var fellBackAt sim.Time = -1
			for _, rec := range c.Tel.Recorder.Records() {
				if rec.Rank == 0 && len(rec.Fallbacks) > 0 {
					fellBackAt = sim.Time(rec.TUS) * sim.Microsecond
					break
				}
			}
			if fellBackAt < 0 {
				t.Fatal("fallback not visible in the flight recorder")
			}
			if fellBackAt < injectAt || fellBackAt > injectAt+hb+cfg.MDS.RebalanceDelay {
				t.Fatalf("fallback at %v, want within one heartbeat of injection at %v", fellBackAt, injectAt)
			}
			if got := c.MDSs[0].Balancer().Name(); got != "greedy_spill" {
				t.Fatalf("active balancer after fallback = %q", got)
			}
		})
	}
}

// TestNonFiniteLoadPolicyFallsBack injects the NaN-mdsload policy file
// unlinted. Its first heartbeat must fail as a policy error and demote it,
// and the flight log must still serialise. A NaN used to poison total, so
// nothing fell back, the rank never migrated, and the flight log failed to
// encode.
func TestNonFiniteLoadPolicyFallsBack(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "core", "testdata", "nan_mdsload.lua"))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := core.ParsePolicyFile("nan_mdsload", string(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig(2, 31)
	cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
	cfg.MDS.RebalanceDelay = 50 * sim.Millisecond
	c, err := cluster.New(cfg, cluster.LuaBalancers(policy(t, "greedy_spill")))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTelemetry(telemetry.Options{Metrics: true, FlightRecorder: true})
	for i := 0; i < 2; i++ {
		c.AddClient(workload.SharedDirCreates("/shared", i, 3000))
	}
	c.Engine.Schedule(2*sim.Second, func() {
		if err := c.InjectPolicy(0, bad); err != nil {
			t.Errorf("inject: %v", err)
		}
	})
	res := c.Run(10 * sim.Minute)
	if !res.AllDone {
		t.Fatal("workload did not finish")
	}
	if res.PolicyFallbacks == 0 || c.MDSs[0].Balancer().Name() != "greedy_spill" {
		t.Fatalf("fallbacks %d, active %s: the NaN version was never demoted", res.PolicyFallbacks, c.MDSs[0].Balancer().Name())
	}
	var buf bytes.Buffer
	if err := c.Tel.Recorder.WriteJSONL(&buf); err != nil {
		t.Fatalf("flight log: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("mds_bal_mdsload returned NaN, want a finite number")) {
		t.Fatal("the flight log does not record the demotion's reason")
	}
}

// TestFailoverReassignsSubtreesWhenNoStandby: a rank dies with the standby
// pool empty; the monitor's OnFail hook must hand its subtrees to the
// survivors so clients (with a retry budget) can still finish.
func TestFailoverReassignsSubtreesWhenNoStandby(t *testing.T) {
	cfg := cluster.DefaultConfig(2, 37)
	cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
	cfg.Client.RequestTimeout = 300 * sim.Millisecond
	cfg.Client.RetryBudget = 50
	cfg.Client.BackoffBase = 20 * sim.Millisecond
	c, err := cluster.New(cfg, cluster.GoBalancers(noBalancer))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableFailover(0, mon.Config{CheckInterval: 250 * sim.Millisecond, Grace: sim.Second})
	if err := c.PrePopulate([]string{"/work"}, true); err != nil {
		t.Fatal(err)
	}
	if err := c.PreAssign("/work", 1); err != nil {
		t.Fatal(err)
	}
	c.AddClient(workload.Creates(workload.CreateConfig{Dir: "/work", Files: 10000, Prefix: "f"}))
	c.Engine.Schedule(sim.Second, func() { c.MDSs[1].Crash() })
	res := c.Run(10 * sim.Minute)
	if !res.AllDone {
		t.Fatalf("workload stuck despite reassignment: ops=%v gaveUp=%v", res.ClientOps, res.ClientGaveUp)
	}
	if res.SubtreeReassigns == 0 {
		t.Fatal("no subtree was reassigned")
	}
	if c.Monitor.Takeovers != 0 {
		t.Fatalf("takeovers = %d with zero standbys", c.Monitor.Takeovers)
	}
	// Rank 0 now owns /work and served the remaining creates.
	d, err := c.NS.Resolve("/work")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NS.EffectiveAuth(d); got != 0 {
		t.Fatalf("auth of /work = %v, want 0", got)
	}
	if d.NumChildren() != 10000 {
		t.Fatalf("children = %d, want 10000", d.NumChildren())
	}
	if err := c.NS.CheckInvariants(2, false); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSoak runs the full fault harness across many (seed, plan)
// combinations — directed plans covering every fault kind plus pseudo-random
// plans, half with monitor failover — and checks the robustness invariants
// after every run: every client terminates (completing or abandoning ops
// cleanly), no migration wedges, no subtree stays frozen, and no inode is
// lost or duplicated.
func TestChaosSoak(t *testing.T) {
	const numMDS = 3
	const filesPerClient = 2000
	directed := []faults.Plan{
		{Name: "crash", Seed: 1, Events: []faults.Event{
			{At: 1, Kind: faults.KindCrash, Rank: 1, HealAfter: 3},
			{At: 2, Kind: faults.KindCrash, Rank: 2, HealAfter: 3},
		}},
		{Name: "partition", Seed: 2, Events: []faults.Event{
			{At: 1, Kind: faults.KindPartition, From: 0, To: 1, Symmetric: true, HealAfter: 4},
			{At: 2, Kind: faults.KindPartition, From: 2, To: faults.Wildcard, HealAfter: 3},
		}},
		{Name: "loss", Seed: 3, Events: []faults.Event{
			{At: 0.5, Kind: faults.KindLinkLoss, From: faults.Wildcard, To: faults.Wildcard,
				LossProb: 0.15, ExtraLatencyMs: 0.5, Duration: 6},
		}},
		{Name: "osd", Seed: 4, Events: []faults.Event{
			{At: 0.5, Kind: faults.KindOSDSlow, SlowFactor: 15, ErrorProb: 0.08, Duration: 5},
		}},
		{Name: "policy", Seed: 5, Events: []faults.Event{
			{At: 1, Kind: faults.KindBadPolicy, Rank: faults.Wildcard, Mode: "error"},
			{At: 3, Kind: faults.KindBadPolicy, Rank: 0, Mode: "garbage"},
		}},
	}
	type combo struct {
		name     string
		seed     int64
		plan     faults.Plan
		failover bool
	}
	var combos []combo
	for i, p := range directed {
		combos = append(combos, combo{name: "directed-" + p.Name, seed: int64(100 + i), plan: p, failover: i%2 == 0})
	}
	for s := int64(0); s < 16; s++ {
		combos = append(combos, combo{
			name:     fmt.Sprintf("random-%d", s),
			seed:     s,
			plan:     faults.RandomPlan(1000+s, numMDS, 15),
			failover: s%2 == 0,
		})
	}
	if len(combos) < 20 {
		t.Fatalf("soak matrix too small: %d combos", len(combos))
	}
	for _, cb := range combos {
		cb := cb
		t.Run(cb.name, func(t *testing.T) {
			t.Parallel()
			cfg := cluster.DefaultConfig(numMDS, cb.seed)
			cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
			cfg.MDS.RebalanceDelay = 50 * sim.Millisecond
			cfg.MDS.ExportTimeout = 2 * sim.Second
			cfg.Client.RequestTimeout = 400 * sim.Millisecond
			cfg.Client.RetryBudget = 30
			cfg.Client.BackoffBase = 20 * sim.Millisecond
			c, err := cluster.New(cfg, cluster.LuaBalancers(policy(t, "greedy_spill")))
			if err != nil {
				t.Fatal(err)
			}
			if cb.failover {
				c.EnableFailover(1, mon.Config{CheckInterval: 250 * sim.Millisecond, Grace: 1500 * sim.Millisecond})
			}
			for i := 0; i < numMDS; i++ {
				c.AddClient(workload.SeparateDirCreates("", i, filesPerClient))
			}
			if err := faults.Apply(c, cb.plan); err != nil {
				t.Fatal(err)
			}
			res := c.Run(30 * sim.Minute)

			// Invariant: every client terminates — ops complete or are
			// abandoned cleanly through the retry budget, never hung.
			if !res.AllDone {
				t.Fatalf("clients hung: ops=%v gaveUp=%v", res.ClientOps, res.ClientGaveUp)
			}
			// Drain: let in-flight export timeouts fire so aborts from
			// faults landing right at the finish line clean up too.
			c.Run(res.Duration + 2*cfg.MDS.ExportTimeout + sim.Second)

			if w := c.WedgedMigrations(); w != 0 {
				t.Fatalf("%d migrations wedged after drain", w)
			}
			// Invariant: nothing frozen, partition consistent, every rank
			// label in range.
			if err := c.NS.CheckInvariants(numMDS, false); err != nil {
				t.Fatal(err)
			}
			// Invariant: no lost or duplicated inodes. Every acknowledged
			// create exists (the dir itself accounts for one completed op),
			// and a dir can never hold more files than its client asked for.
			for i := 0; i < numMDS; i++ {
				d, err := c.NS.Resolve(fmt.Sprintf("/client%d", i))
				if err != nil {
					// The client may have abandoned even the mkdir; then it
					// must have abandoned everything after it too.
					if res.ClientOps[i] != 0 {
						t.Fatalf("client %d completed %d ops but its dir is missing", i, res.ClientOps[i])
					}
					continue
				}
				kids := d.NumChildren()
				if kids < res.ClientOps[i]-1 {
					t.Fatalf("client %d: %d inodes for %d acknowledged ops (lost inodes)", i, kids, res.ClientOps[i])
				}
				if kids > filesPerClient {
					t.Fatalf("client %d: %d inodes for %d creates (duplicated inodes)", i, kids, filesPerClient)
				}
			}
		})
	}
}

func noBalancer() balancer.Balancer { return balancer.NoBalancer{} }
