package live

import (
	"testing"
	"time"

	"mantle/internal/core"
	"mantle/internal/sim"
)

// Tests for the sharded-ownership runtime: per-rank shard locks instead of a
// global state mutex. The oracles are the race detector (two actors serving
// the same bounds would write the same FragState fields concurrently — the
// namespace's single-writer discipline turns any double-ownership window
// into a reported race) and the post-drain invariant check (every node
// reachable, bounds partition exact, counters conserved).

// oscillateHook cycles membership continuously: grow to max_ranks, shrink to
// min_ranks, repeat. Every cycle moves bounds between joining and leaving
// ranks through the journaled handoff, which is the window the handoff race
// test aims at.
const oscillateHook = `
local t = (RDstate() or 0) + 1
WRstate(t)
if t % 8 < 4 then
	if active < max_ranks then return 1 end
else
	if active > min_ranks then return -1 end
end
return 0
`

// TestLiveOwnershipHandoffRace overlaps everything that can move a bound
// between actors at once: elastic join/leave cycles (journaled handoff,
// including drain abort when the cycle flips mid-leave), balancer-triggered
// two-phase migrations, sustained load, and crash/recovery of ranks that may
// no longer exist by the time the fault fires (the membership-edge no-op
// path). Run under -race this fails if any handoff lets two actors observe
// ownership of the same subtree simultaneously.
func TestLiveOwnershipHandoffRace(t *testing.T) {
	if testing.Short() {
		t.Skip("handoff soak")
	}
	cfg := testConfig(2, 2500, 3*time.Second)
	cfg.SeedBounds = true // start with bounds spread so leaves must hand work back
	cfg.MaxRanks = 4
	cfg.MinRanks = 1
	cfg.ElasticPolicy = oscillateHook
	cfg.Elastic = fastElastic()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fault injector: repeatedly crash and recover the top ranks while the
	// oscillator is joining/retiring them. Rank 3 frequently does not exist
	// when the fault fires — CrashRank/RecoverRank must no-op, not panic.
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(330 * time.Millisecond)
		defer tick.Stop()
		victim := 1
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rt.CrashRank(victim)
				time.Sleep(120 * time.Millisecond)
				rt.RecoverRank(victim, nil)
				victim = 1 + (victim % 3) // cycle ranks 1..3
			}
		}
	}()
	rep, err := rt.Run()
	close(stop)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if rep.ElasticOps.Grows < 1 {
		t.Fatalf("oscillator produced no grows: %+v (events %v)", rep.ElasticOps, rep.Membership)
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

// TestLive128RankFaultSoak is the scale proof for sharded ownership: 128
// concurrently-serving ranks under open-loop load with the fault harness and
// the elastic coordinator both active, required to drain clean with intact
// namespace invariants. Before the shard split this configuration convoyed
// every rank behind one mutex; now each rank's hot path takes only its own
// shard and the namespace read lock.
func TestLive128RankFaultSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("128-rank soak")
	}
	const ranks = 128
	cfg := DefaultConfig(ranks, 7)
	cfg.Factory = luaFactory(core.GreedySpillPolicy())
	cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
	cfg.MDS.RebalanceDelay = 50 * sim.Millisecond
	cfg.MDS.RecoverBase = 50 * sim.Millisecond
	cfg.MDS.RecoverPerEntry = 0
	cfg.MDS.ExportTimeout = 1 * sim.Second
	cfg.DrainTimeout = 60 * time.Second
	// The elastic coordinator runs with the built-in policy: a lightly
	// loaded 128-rank pool votes shrink, so bound handoff via retirement
	// happens at scale too (bounded by MinRanks).
	cfg.MaxRanks = ranks + 2
	cfg.MinRanks = ranks - 2
	cfg.Elastic = fastElastic()
	// Modest aggregate rate: the point is concurrency across many ranks on
	// whatever cores exist, not saturating the host.
	cfg.Load = LoadConfig{
		Clients:   64,
		Rate:      3000,
		Duration:  2 * time.Second,
		Dirs:      2 * ranks,
		ZipfS:     1.2,
		OpTimeout: 8 * time.Second,
		Seed:      11,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fault harness: staggered crash/recover across the rank space while
	// load runs.
	go func() {
		for i, r := range []int{5, 60, 127} {
			time.Sleep(time.Duration(300+200*i) * time.Millisecond)
			rt.CrashRank(r)
			time.Sleep(250 * time.Millisecond)
			rt.RecoverRank(r, nil)
		}
	}()
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if rep.Crashes == 0 || rep.Recoveries == 0 {
		t.Fatalf("fault harness idle: crashes=%d recoveries=%d", rep.Crashes, rep.Recoveries)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
	if rep.WedgedMigrations != 0 {
		t.Fatalf("wedged migrations: %d", rep.WedgedMigrations)
	}
	if rep.FinalRanks < cfg.MinRanks || rep.FinalRanks > cfg.MaxRanks {
		t.Fatalf("final ranks %d outside [%d, %d]", rep.FinalRanks, cfg.MinRanks, cfg.MaxRanks)
	}
}
