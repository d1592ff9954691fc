package live

import (
	"flag"
	"testing"
	"time"

	"mantle/internal/balancer"
	"mantle/internal/faults"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// Soak knobs (the d7024e-style parameterised soak): rank count, message drop
// percentage and seed are all overridable so CI smoke jobs and full local
// runs share one test.
var (
	soakRanks = flag.Int("soak.ranks", 1000, "scale soak: emulated MDS rank count (capped at 256 under -race)")
	soakDrop  = flag.Float64("soak.drop", 1, "scale soak: message loss percentage on every link")
	soakSeed  = flag.Int64("soak.seed", 1, "scale soak: runtime and workload seed")
)

// TestLiveScaleSoak drives the full live runtime at soak scale: ≥1000
// emulated ranks by default (256 under -race), aggregated load exchange,
// lossy links, open-loop load, then a full drain. Pass criteria: the run
// completes (no wedged drain, no namespace invariant violation), ops
// actually completed despite the loss, load maps flowed, and heartbeat-plane
// traffic stayed O(ranks) per balancer interval — the bound the aggregated
// exchange exists to enforce.
func TestLiveScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("scale soak is long; skipped under -short")
	}
	ranks := *soakRanks
	dur := 1500 * time.Millisecond
	rate := 2 * float64(ranks)
	if raceEnabled && ranks > 256 {
		ranks = 256
		dur = time.Second
		rate = float64(ranks)
	}

	cfg := DefaultConfig(ranks, *soakSeed)
	cfg.Factory = goFactory(func() balancer.Balancer { return balancer.NewGreedySpill() })
	cfg.MDS.HeartbeatInterval = 250 * sim.Millisecond
	cfg.MDS.RebalanceDelay = 25 * sim.Millisecond
	cfg.HBAggregated = true
	// Liveness declarations stay off: on a saturated soak host a rank
	// pausing for a scheduler quantum is load, not failure.
	cfg.MonGrace = time.Hour
	cfg.DrainTimeout = 60 * time.Second
	cfg.Load = LoadConfig{
		Clients:   64,
		Rate:      rate,
		Duration:  dur,
		Dirs:      4 * ranks,
		Seed:      *soakSeed,
		OpTimeout: 5 * time.Second,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *soakDrop > 0 {
		rt.transport.SetDefaultLinkFault(simnet.LinkFault{LossProb: *soakDrop / 100})
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("soak run (%d ranks, %.1f%% drop): %v", ranks, *soakDrop, err)
	}
	if rep.WedgedMigrations != 0 {
		t.Fatalf("wedged migrations: %d", rep.WedgedMigrations)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariant violation: %s", rep.InvariantViolation)
	}
	if rep.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if rep.LoadMapsRecv == 0 {
		t.Fatal("aggregated mode ran but no load maps were folded")
	}
	// O(ranks) bound: one beacon up and at most one map down per rank per
	// interval is 2·ranks; allow generous slack for interval phase and the
	// monitor's own cadence, but stay far below the ranks² of all-pairs.
	bound := float64(8*ranks + 64)
	if rep.HBPerInterval > bound {
		t.Fatalf("hb traffic %.1f msgs/interval exceeds O(ranks) bound %.0f (ranks=%d)",
			rep.HBPerInterval, bound, ranks)
	}
	t.Logf("soak: %d ranks, %.1f%% drop: %d issued, %d completed, %d timeouts, hb %.1f msgs/interval (bound %.0f), %d load maps",
		ranks, *soakDrop, rep.Issued, rep.Completed, rep.Timeouts, rep.HBPerInterval, bound, rep.LoadMapsRecv)
}

// TestAggregatedPartitionAgesOut is the end-to-end staleness check: a rank
// partitioned away from the monitor keeps serving its clients, but its load
// vector ages out of the disseminated map, so every healthy peer's view
// reverts to never-sent-a-heartbeat zeros — the balancer stops planning
// against a vector nobody can confirm.
func TestAggregatedPartitionAgesOut(t *testing.T) {
	cfg := testConfig(3, 600, 4*time.Second)
	cfg.HBAggregated = true
	cfg.MDS.HeartbeatInterval = 100 * sim.Millisecond
	cfg.MDS.RebalanceDelay = 10 * sim.Millisecond
	cfg.MonGrace = time.Hour // staleness, not failure, must do the aging
	cfg.MonInterval = 100 * time.Millisecond
	cfg.LoadStale = 300 * time.Millisecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var rep *Report
	var runErr error
	go func() {
		defer close(done)
		rep, runErr = rt.Run()
	}()

	// peerSeen reads rank 0's view of rank 2 under rank 0's shard lock.
	peerSeen := func() bool {
		m := rt.MDS(0)
		if m == nil {
			return false
		}
		rt.shards[0].Lock()
		defer rt.shards[0].Unlock()
		_, ok := m.PeerHeartbeat(2)
		return ok
	}
	waitFor := func(deadline time.Duration, want bool, what string) {
		for end := time.Now().Add(deadline); time.Now().Before(end); {
			if peerSeen() == want {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("%s (want seen=%v)", what, want)
	}

	// Healthy phase: rank 2's vector reaches rank 0 through the monitor.
	waitFor(2*time.Second, true, "rank 0 never learned rank 2's load")
	// Cut rank 2 off now; heal_all below undoes it.
	if err := rt.ApplyFaults(isolate(2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	// Stale phase: past LoadStale the monitor drops the vector and the next
	// map version erases it from rank 0's table.
	waitFor(2*time.Second, false, "partitioned rank's stale vector never aged out")
	if err := rt.ApplyFaults(faults.Plan{Events: []faults.Event{{Kind: faults.KindHealAll}}}); err != nil {
		t.Fatal(err)
	}
	// Heal phase: fresh beacons re-populate the map.
	waitFor(2*time.Second, true, "healed rank never re-appeared in the load map")

	<-done
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if rep.LoadMapsRecv == 0 {
		t.Fatal("no load maps folded")
	}
}
