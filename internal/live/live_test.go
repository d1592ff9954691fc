package live

import (
	"testing"
	"time"

	"mantle/internal/balancer"
	"mantle/internal/core"
	"mantle/internal/namespace"
	"mantle/internal/sim"
)

// luaFactory builds each rank's balancer from p, as mantle-serve does.
func luaFactory(p core.Policy) BalancerFactory {
	return func(namespace.Rank) (balancer.Balancer, error) { return core.NewLuaBalancer(p, core.Options{}) }
}

func testConfig(ranks int, rate float64, dur time.Duration) Config {
	cfg := DefaultConfig(ranks, 7)
	cfg.Factory = luaFactory(core.GreedySpillPolicy())
	cfg.MDS.HeartbeatInterval = 200 * sim.Millisecond
	cfg.MDS.RebalanceDelay = 20 * sim.Millisecond
	cfg.MDS.RecoverBase = 50 * sim.Millisecond
	cfg.MDS.RecoverPerEntry = 0
	cfg.MDS.ExportTimeout = 500 * sim.Millisecond
	cfg.DrainTimeout = 15 * time.Second
	// Cold-start ownership: these tests exercise the balancer spreading a
	// rank-0-resident working set, so keep the pre-seeded partition off.
	cfg.SeedBounds = false
	cfg.Load = LoadConfig{
		Clients:   8,
		Rate:      rate,
		Duration:  dur,
		Dirs:      32,
		ZipfS:     1.3,
		OpTimeout: 3 * time.Second,
		Seed:      11,
	}
	return cfg
}

func TestLiveSmoke(t *testing.T) {
	rt, err := New(testConfig(2, 1500, 400*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
	if rep.WedgedMigrations != 0 {
		t.Fatalf("wedged migrations: %d", rep.WedgedMigrations)
	}
	if rep.Latency.N() != rep.Completed {
		t.Fatalf("latency samples %d != completed %d", rep.Latency.N(), rep.Completed)
	}
	if rep.P99 <= 0 {
		t.Fatalf("p99 = %v, want > 0", rep.P99)
	}
	// Every issued arrival is counted once in the issue lag, which no
	// pacer wake can read as negative.
	if _, _, n := rt.gen.issueLag(); n != int64(rep.Issued) {
		t.Fatalf("issue lag counts %d arrivals, %d issued", n, rep.Issued)
	}
	if rep.IssueLagMean < 0 || rep.IssueLagMax < rep.IssueLagMean {
		t.Fatalf("issue lag mean %v ms, max %v ms", rep.IssueLagMean, rep.IssueLagMax)
	}
}

// TestLiveOverloadSheds drives a single tiny-queued rank far past capacity:
// admission control must shed (typed ErrOverloaded back to the generator)
// rather than queue without bound, and accounting must balance exactly —
// every issued op is completed, shed, errored, or timed out.
func TestLiveOverloadSheds(t *testing.T) {
	cfg := testConfig(1, 6000, 400*time.Millisecond)
	cfg.MailboxDepth = 8
	cfg.AdmitQueue = 4
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Sheds == 0 {
		t.Fatal("expected sheds under overload")
	}
	got := rt.gen.completed.Load() + rt.gen.errors.Load() + rt.gen.shedSeen.Load() + rt.gen.timeouts.Load()
	if got != rep.Issued {
		t.Fatalf("accounting: completed+errors+sheds+timeouts = %d, issued = %d", got, rep.Issued)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
}

// TestLiveSoak overlaps sustained zipf load, balancer-triggered migrations,
// and a crash/recovery of a rank, then requires a clean drain with intact
// namespace invariants. This is the concurrency soak the package exists to
// pass under -race.
func TestLiveSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := testConfig(3, 3000, 3*time.Second)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fault injection alongside the run: crash rank 2 mid-load, recover it
	// while load continues.
	go func() {
		time.Sleep(1200 * time.Millisecond)
		rt.CrashRank(2)
		time.Sleep(400 * time.Millisecond)
		rt.RecoverRank(2, nil)
	}()
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if rep.Exports == 0 {
		t.Fatalf("expected at least one balancer-triggered migration (report: %+v)", rep)
	}
	if rep.Crashes != 1 || rep.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", rep.Crashes, rep.Recoveries)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
	if rep.WedgedMigrations != 0 {
		t.Fatalf("wedged migrations: %d", rep.WedgedMigrations)
	}
}

// TestLiveDrainQuiesces checks the shutdown path: after Run returns, every
// mailbox is empty and no actor goroutine is still serving.
func TestLiveDrainQuiesces(t *testing.T) {
	rt, err := New(testConfig(2, 1000, 300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := rt.gen.pendingCount(); n != 0 {
		t.Fatalf("%d ops still pending after drain", n)
	}
	for r, a := range rt.actors {
		a.mu.Lock()
		stopped := a.stopped
		a.mu.Unlock()
		if !stopped {
			t.Fatalf("actor %d not stopped", r)
		}
	}
}

// TestLiveConfigValidation pins constructor error paths.
func TestLiveConfigValidation(t *testing.T) {
	cfg := testConfig(2, 1000, time.Second)
	cfg.Factory = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("nil factory accepted")
	}
	cfg = testConfig(0, 1000, time.Second)
	if _, err := New(cfg); err == nil {
		t.Fatal("zero ranks accepted")
	}
	cfg = testConfig(2, 0, time.Second)
	if _, err := New(cfg); err == nil {
		t.Fatal("zero rate accepted")
	}
}
