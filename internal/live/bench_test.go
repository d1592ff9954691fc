package live

import (
	"fmt"
	"testing"
	"time"

	"mantle/internal/core"
	"mantle/internal/sim"
)

// BenchmarkLiveServe runs the serving runtime end to end on a fixed
// open-loop load and reports completed ops per iteration as simops/op. Wall
// time per iteration is the load window plus the drain, so it measures the
// cost model's sleeps as much as the runtime; the benchmark's live workloads
// (benchmark/README.md) are the timed signal.
//
// NRank: a 200 ms zipf burst at 1000 op/s and 4 clients per rank, one
// working-set directory shard per client, so the family shows how fan-in
// costs — transport, router, actor wakeups — scale from 2 to 1000 ranks.
//
// HotDirBare/HotDirRep: 4 ranks, 90 % of a 6 000 op/s getattr stream aimed
// at one directory, several times one rank's capacity. Bare, the auth sheds
// most of the hot stream; with replication the when_replicate hook grants
// read replicas and the two-choice router spreads the hot reads, so the gap
// in simops/op and p99_ms is the signal.
func BenchmarkLiveServe(b *testing.B) {
	for _, ranks := range []int{2, 8, 32, 128, 512, 1000} {
		b.Run(fmt.Sprintf("%dRank", ranks), func(b *testing.B) { benchLiveServeNRank(b, ranks) })
	}
	b.Run("HotDirBare", func(b *testing.B) { benchLiveServeHotDir(b, false) })
	b.Run("HotDirRep", func(b *testing.B) { benchLiveServeHotDir(b, true) })
}

func benchLiveServeNRank(b *testing.B, ranks int) {
	var total uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(ranks, int64(i+1))
		cfg.Factory = luaFactory(core.GreedySpillPolicy())
		cfg.MDS.HeartbeatInterval = 200 * sim.Millisecond
		cfg.MDS.RebalanceDelay = 20 * sim.Millisecond
		if ranks >= 512 {
			// Past a few hundred ranks the all-pairs exchange alone is
			// O(ranks²) messages per interval, more than the client
			// workload: run the aggregated monitor exchange, and turn
			// failure declaration off, because a saturated host pausing a
			// rank for a scheduler quantum is not a failure.
			cfg.HBAggregated = true
			cfg.MonGrace = time.Hour
		}
		cfg.Load = LoadConfig{
			Clients:  4 * ranks,
			Rate:     1000 * float64(ranks),
			Duration: 200 * time.Millisecond,
			Dirs:     16 * ranks,
			Seed:     int64(i + 1),
			// The backlog left after the arrival window is proportional
			// to offered load, so the reap bound scales with the rank
			// count: reaping early would understate throughput.
			OpTimeout: 8*time.Second + time.Duration(ranks)*20*time.Millisecond,
		}
		cfg.DrainTimeout = 20*time.Second + time.Duration(ranks)*80*time.Millisecond
		total += runLiveBench(b, cfg).Completed
	}
	b.ReportMetric(float64(total)/float64(b.N), "simops/op")
}

func benchLiveServeHotDir(b *testing.B, replication bool) {
	var total uint64
	var p99 float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(4, int64(i+1))
		cfg.Factory = luaFactory(core.GreedySpillPolicy())
		cfg.MDS.HeartbeatInterval = 50 * sim.Millisecond
		cfg.MDS.RebalanceDelay = 20 * sim.Millisecond
		if replication {
			cfg.Replication = true
			// A short window needs an eager policy; the default script's
			// heat thresholds are tuned for longer epochs.
			cfg.ReplicaPolicy = "\nif replicas < max_replicas and rd > wr then return 1 end\nreturn 0"
		}
		cfg.Load = LoadConfig{
			Clients:   16,
			Rate:      6000,
			Duration:  2 * time.Second,
			Dirs:      64,
			Seed:      int64(i + 1),
			HotDir:    true,
			HotFrac:   0.9,
			HotFiles:  256,
			OpTimeout: 8 * time.Second,
		}
		cfg.DrainTimeout = 20 * time.Second
		rep := runLiveBench(b, cfg)
		total += rep.Completed
		p99 += rep.P99
	}
	b.ReportMetric(float64(total)/float64(b.N), "simops/op")
	b.ReportMetric(p99/float64(b.N), "p99_ms")
}

func runLiveBench(b *testing.B, cfg Config) *Report {
	rt, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		b.Fatal(err)
	}
	return rep
}
