package live

import (
	"testing"
	"time"

	"mantle/internal/elastic"
	"mantle/internal/sim"
	"mantle/internal/workload"
)

// fastElastic returns coordinator tuning quick enough for wall-clock tests.
func fastElastic() *elastic.Config {
	return &elastic.Config{
		Interval:      250 * sim.Millisecond,
		Cooldown:      300 * sim.Millisecond,
		SustainGrow:   1,
		SustainShrink: 1,
		PollInterval:  100 * sim.Millisecond,
		DrainTimeout:  10 * sim.Second,
		JoinWarmup:    100 * sim.Millisecond,
	}
}

// tickPhaseHook votes grow for the first few elastic ticks and shrink after
// — a deterministic membership cycle independent of load levels, so the test
// exercises spawn/activate/drain/retire plumbing, not policy thresholds.
const tickPhaseHook = `
local ticks = (RDstate() or 0) + 1
WRstate(ticks)
if ticks <= 3 and active < max_ranks then return 1 end
if ticks > 5 and active > min_ranks then return -1 end
return 0
`

// TestLiveElasticCycle grows the pool under load and shrinks it back,
// requiring clean invariants, zero wedged migrations, and the membership
// trace in the report.
func TestLiveElasticCycle(t *testing.T) {
	cfg := testConfig(1, 2000, 3*time.Second)
	cfg.MaxRanks = 3
	cfg.MinRanks = 1
	cfg.ElasticPolicy = tickPhaseHook
	cfg.Elastic = fastElastic()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.ElasticOps.Grows < 1 || rep.ElasticOps.Shrinks < 1 {
		t.Fatalf("no full membership cycle: %+v (events %v)", rep.ElasticOps, rep.Membership)
	}
	if rep.PeakRanks < 2 {
		t.Fatalf("peak ranks = %d, want >= 2", rep.PeakRanks)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
	if rep.WedgedMigrations != 0 {
		t.Fatalf("wedged migrations: %d", rep.WedgedMigrations)
	}
	if rep.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if rep.ElasticOps.HookErrors != 0 {
		t.Fatalf("hook errors: %d", rep.ElasticOps.HookErrors)
	}
}

// TestLiveCompileFlashCrowd is the acceptance scenario scaled down: a
// compile job whose link phase arrives at 8x the base rate. The built-in
// when_elastic policy must scale the pool out under the flash crowd and
// back in over the idle tail, with invariants intact after drain.
func TestLiveCompileFlashCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock scenario test")
	}
	cfg := testConfig(2, 400, 10*time.Second)
	cfg.MaxRanks = 6
	cfg.MinRanks = 2
	cfg.Elastic = fastElastic()
	cfg.Load.Workload = "compile"
	cfg.Load.Compile = workload.CompileConfig{
		Root: "/build", Seed: 7,
		FilesPerDir: 30, HeaderFiles: 20, LinkPasses: 60,
	}
	cfg.Load.FlashFactor = 8
	// The tail must outlast the loadgen's 5s latency window: shrink votes
	// need the flash-era samples to age out of the per-rank signal first.
	cfg.Load.IdleTail = 7 * time.Second
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.ElasticOps.Grows < 1 {
		t.Fatalf("flash crowd triggered no scale-out: %+v (events %v)", rep.ElasticOps, rep.Membership)
	}
	if rep.ElasticOps.Shrinks < 1 {
		t.Fatalf("idle tail triggered no scale-in: %+v (events %v)", rep.ElasticOps, rep.Membership)
	}
	if rep.PeakRanks < 3 {
		t.Fatalf("peak ranks = %d, want >= 3", rep.PeakRanks)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
	if rep.WedgedMigrations != 0 {
		t.Fatalf("wedged migrations: %d", rep.WedgedMigrations)
	}
	if rep.ElasticOps.HookErrors != 0 {
		t.Fatalf("hook errors: %d", rep.ElasticOps.HookErrors)
	}
}

// TestLiveElasticCrashMidDrain kills the draining rank mid-leave: the
// coordinator must force-reassign its remaining bounds and still converge to
// a consistent, smaller cluster.
func TestLiveElasticCrashMidDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock fault test")
	}
	cfg := testConfig(2, 2000, 3*time.Second)
	cfg.SeedBounds = true // rank 1 holds bounds for the drain to move
	cfg.MaxRanks = 2
	cfg.MinRanks = 1
	// Vote shrink from the start; the only transition is the leave.
	cfg.ElasticPolicy = `if active > min_ranks then return -1 end return 0`
	cfg.Elastic = fastElastic()
	// Slow the drain polling so the crash lands inside the leave window.
	cfg.Elastic.PollInterval = 400 * sim.Millisecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// First shrink vote fires at ~250ms, StartDrain immediately after;
		// crash rank 1 inside the first poll window.
		time.Sleep(400 * time.Millisecond)
		rt.CrashRank(1)
	}()
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.FinalRanks != 1 {
		t.Fatalf("final ranks = %d, want 1 (events %v)", rep.FinalRanks, rep.Membership)
	}
	if rep.ElasticOps.Shrinks != 1 {
		t.Fatalf("shrinks = %d (events %v)", rep.ElasticOps.Shrinks, rep.Membership)
	}
	// A forced leave moves the bounds the crashed rank still held, and the
	// report counts them as the simulator does.
	if rep.ElasticOps.ForcedLeaves > 0 && rep.Reassigns == 0 {
		t.Fatalf("forced leave reassigned nothing: %+v", rep.ElasticOps)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
}
