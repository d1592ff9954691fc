package main

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"mantle/internal/balancer"
	"mantle/internal/cluster"
	"mantle/internal/core"
	"mantle/internal/live"
	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/telemetry"
	"mantle/internal/workload"
)

// sizes holds every size a workload depends on, so the smoke test can run
// the same code at a fraction of the measured scale. full() is what
// BENCHMARK.json measures.
type sizes struct {
	compileFiles   int           // sim-compile FilesPerDir (HeaderFiles is half)
	tickRanks      int           // sim-tick-64 rank count
	tickTreeDirs   int           // sim-tick-64 pre-populated directories ...
	tickTreeFiles  int           // ... of this many files each
	tickFiles      int           // sim-tick-64 FilesPerDir of its compile clients
	tickVirtual    sim.Time      // sim-tick-64 virtual run length
	liveDirs       int           // zipf working set of both live workloads
	liveWindow     time.Duration // arrival window of a measured live repetition
	createRate     float64       // live-create offered rate, ops/s
	hotReadRate    float64       // live-hot-read offered rate, ops/s
	ladderOps      int           // ops of the seeded stream the ladder replays
	ladderTreeSize int           // nodes behind namespace.authload_us_64
	idleWindow     time.Duration // live.idle_cpu_ms_per_s observation window
	ladderRound    time.Duration // how long one timed round of a ladder step lasts
	idleTicks      int           // virtual seconds behind mds.tick_us_64 and mds.tick_us_8
}

func full() sizes {
	return sizes{
		compileFiles:   4000,
		tickRanks:      64,
		tickTreeDirs:   20,
		tickTreeFiles:  10_000,
		tickFiles:      600,
		tickVirtual:    30 * sim.Second,
		liveDirs:       16384,
		liveWindow:     5 * time.Second,
		createRate:     30_000,
		hotReadRate:    100_000,
		ladderOps:      50_000,
		ladderTreeSize: 200_000,
		idleWindow:     3 * time.Second,
		ladderRound:    30 * time.Millisecond,
		idleTicks:      10,
	}
}

// sloLimit is the latency limit behind slo_ok_frac on the live workloads,
// counted from each op's scheduled arrival. On a shared two-core host the
// collector and the host's own scheduling put p99 at 30-60 ms whatever the
// program does, so a tighter limit would sit on that tail and measure the
// host.
const sloLimit = 100 * time.Millisecond

// simSeed seeds the simulator's own noise model (service jitter, load and
// CPU measurement noise). It is part of the program's configuration, not of
// its input: -seed drives what the clients ask for, and every seed is then
// served by the same simulated hardware.
const simSeed = 1

// workloadDef is one benchmark workload: a fixed unit of work that build
// constructs from scratch (what setup_s times) and the returned function
// runs once and checks.
type workloadDef struct {
	name  string
	why   string
	build func(seed int64, sz sizes) (func() (*repResult, error), error)
	// stream is the start of the op stream the workload feeds the program,
	// for the layer ladder to replay.
	stream func(seed int64, sz sizes) []workload.Op
}

// warm shrinks a workload to a warm-up: the same code paths at a quarter of
// the length, so the Go heap, the page cache of the binary and the timer
// wheels have been used once before anything is measured.
func (sz sizes) warm() sizes {
	sz.compileFiles /= 4
	sz.tickVirtual /= 4
	sz.liveWindow /= 4
	return sz
}

var workloads = []workloadDef{
	{
		name:  "sim-compile",
		why:   "the paper's Fig. 9 compile job on 3 sim ranks: the single-threaded data plane (mds, simnet, rados, namespace), balancer under 1 % of the time",
		build: buildSimCompile,
		stream: func(seed int64, sz sizes) []workload.Op {
			return compileStream(sz.compileFiles, seed, sz.ladderOps)
		},
	},
	{
		name:  "sim-tick-64",
		why:   "64 sim ranks ticking every virtual second over a 200 k-file tree: the control plane (rebalance, Lua env binding) is two thirds of the time",
		build: buildSimTick,
		stream: func(seed int64, sz sizes) []workload.Op {
			return compileStream(sz.tickFiles, seed, sz.ladderOps)
		},
	},
	liveWorkload("live-create",
		"open-loop 30 k ops/s, 90 % creates, 8 live ranks, cost model at its floor: timers, actor mailboxes, shard locks, View.Create and the journal",
		liveCreateConfig),
	liveWorkload("live-hot-read",
		"open-loop 100 k ops/s, 90 % reads of one hot directory, 4 live ranks with read replicas: replica routing, two-choice and singleflight, no journal",
		liveHotReadConfig),
}

func liveWorkload(name, why string, cfg func(seed int64, sz sizes) live.Config) workloadDef {
	return workloadDef{
		name: name,
		why:  why,
		build: func(seed int64, sz sizes) (func() (*repResult, error), error) {
			return buildLive(cfg(seed, sz))
		},
		stream: func(seed int64, sz sizes) []workload.Op {
			return zipfStream(cfg(seed, sz).Load, sz.ladderOps)
		},
	}
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// repResult is what one repetition measured. keep holds the cluster or
// runtime so heap_live_mb sees it; the caller drops it before the next
// repetition is built.
type repResult struct {
	wall time.Duration // wall clock of Cluster.Run / Runtime.Run
	cpu  time.Duration // process user+system CPU across the same call

	attempted uint64 // ops handed to the program
	ok        uint64 // ops that succeeded

	mem  memDelta
	sim  *cluster.Result
	live *live.Report
	keep any
}

// memDelta is the allocator's and collector's work across a repetition's Run.
type memDelta struct {
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcCPUFrac float64 // GC CPU over process CPU, both across Run
}

// measure runs fn between two readings of the process clocks and the
// allocator counters.
func measure(fn func()) *repResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0 := gcCPUSeconds()
	c0 := processCPU()
	t0 := time.Now()
	fn()
	r := &repResult{wall: time.Since(t0), cpu: processCPU() - c0}
	runtime.ReadMemStats(&m1)
	r.mem = memDelta{
		mallocs:   m1.Mallocs - m0.Mallocs,
		bytes:     m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:  m1.NumGC - m0.NumGC,
		gcCPUFrac: (gcCPUSeconds() - g0) / r.cpu.Seconds(),
	}
	return r
}

// gcCPUSeconds is the runtime's estimate of CPU spent in the collector so
// far. The runtime refreshes it at the end of each GC cycle.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// processCPU is user+system CPU time of the whole process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// compileClient is one Fig. 9 client: its own tree, its own header pattern.
func compileClient(i, files int, seed int64) workload.Generator {
	return workload.Compile(workload.CompileConfig{
		Root:        fmt.Sprintf("/src%d", i),
		FilesPerDir: files,
		HeaderFiles: files / 2,
		Seed:        seed + int64(i),
	})
}

// runSim runs a built cluster for at most maxDur of virtual time. Completed
// requests succeeded; Errors (which include give-ups) did not.
func runSim(c *cluster.Cluster, maxDur sim.Time) *repResult {
	var res *cluster.Result
	r := measure(func() { res = c.Run(maxDur) })
	failed := 0
	for _, e := range res.ClientErrors {
		failed += e
	}
	r.attempted, r.ok = uint64(res.TotalOps+failed), uint64(res.TotalOps)
	r.sim, r.keep = res, c
	return r
}

// buildSimCompile is Fig. 9: five compile clients in separate trees on three
// ranks under the Adaptable policy, run to completion.
func buildSimCompile(seed int64, sz sizes) (func() (*repResult, error), error) {
	c, err := cluster.New(cluster.DefaultConfig(3, simSeed), cluster.LuaBalancers(core.AdaptablePolicy()))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 5; i++ {
		c.AddClient(compileClient(i, sz.compileFiles, seed))
	}
	return func() (*repResult, error) {
		r := runSim(c, 24*60*sim.Minute)
		if !r.sim.AllDone {
			return nil, fmt.Errorf("clients did not finish (%d ops retired)", r.sim.TotalOps)
		}
		return r, nil
	}, nil
}

// buildSimTick is the control plane: many ranks, a short heartbeat, a large
// pre-populated tree for every tick to walk, and just enough client load
// for the policy to have something to decide.
func buildSimTick(seed int64, sz sizes) (func() (*repResult, error), error) {
	cfg := cluster.DefaultConfig(sz.tickRanks, simSeed)
	cfg.MDS.HeartbeatInterval = 1 * sim.Second
	cfg.MDS.RebalanceDelay = 100 * sim.Millisecond
	c, err := cluster.New(cfg, cluster.LuaBalancers(core.AdaptablePolicy()))
	if err != nil {
		return nil, err
	}
	for d := 0; d < sz.tickTreeDirs; d++ {
		if err := c.PrePopulateTree(fmt.Sprintf("/pre/d%02d", d), "f", sz.tickTreeFiles); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 16; i++ {
		c.AddClient(compileClient(i, sz.tickFiles, seed))
	}
	return func() (*repResult, error) { return runSim(c, sz.tickVirtual), nil }, nil
}

// floorModel sets the modelled costs of a live config to their floor, so a
// repetition's wall clock and CPU are the program's (timers, actor
// hand-offs, locks, namespace, journal, router) and not sleeps that no code
// change can move. Service times stay at 1 µs because a zero service time
// is not a configuration the MDS is run with; every *Svc field of
// mds.Config is set by name pattern so that a field added later is covered.
func floorModel(cfg *live.Config) {
	v := reflect.ValueOf(&cfg.MDS).Elem()
	for i := 0; i < v.NumField(); i++ {
		if strings.HasSuffix(v.Type().Field(i).Name, "Svc") {
			v.Field(i).SetInt(int64(sim.Microsecond))
		}
	}
	cfg.MDS.ReaddirPerEntryNs = 0
	cfg.MDS.SvcJitterPct = 0
	cfg.MDS.SharedDirPenaltyUS = 0
	cfg.MDS.CrossBoundPenaltyUS = 0
	cfg.MDS.CacheCapacity = 0
	cfg.Net.Latency, cfg.Net.Jitter = 0, 0
	cfg.Rados.WriteLatency, cfg.Rados.ReadLatency, cfg.Rados.Jitter = 0, 0, 0
	cfg.Rados.BytePerUS = 0
	// Never reached in a valid run: admission control must not be what is
	// measured.
	cfg.MailboxDepth = 4096
	cfg.AdmitQueue = 4096
}

// liveConfig is what the two live workloads share: the model at its floor,
// one generator goroutine, and timeouts long enough that a slow host shows
// as a late completion (and fails the validity guard) instead of as a
// timeout.
func liveConfig(ranks int, seed int64, sz sizes, p core.Policy) live.Config {
	cfg := live.DefaultConfig(ranks, seed)
	floorModel(&cfg)
	cfg.Factory = func(namespace.Rank) (balancer.Balancer, error) {
		return core.NewLuaBalancer(p, core.Options{})
	}
	cfg.DrainTimeout = 60 * time.Second
	cfg.Load = live.LoadConfig{
		Clients:   16,
		Duration:  sz.liveWindow,
		Dirs:      sz.liveDirs,
		Seed:      seed,
		Workers:   1,
		OpTimeout: 60 * time.Second,
	}
	return cfg
}

// buildLive constructs the runtime; the returned function runs it and
// applies the validity guards, so that a host too slow for the fixed rate
// yields an error and not a number.
func buildLive(cfg live.Config) (func() (*repResult, error), error) {
	rt, err := live.New(cfg)
	if err != nil {
		return nil, err
	}
	return func() (*repResult, error) {
		var rep *live.Report
		var err error
		r := measure(func() { rep, err = rt.Run() })
		if err != nil {
			return nil, err
		}
		if rep.InvariantViolation != "" {
			return nil, fmt.Errorf("invariant violation: %s", rep.InvariantViolation)
		}
		if rep.ReplicaWriteConflicts != 0 {
			return nil, fmt.Errorf("%d replica write conflicts", rep.ReplicaWriteConflicts)
		}
		offered := cfg.Load.Rate * cfg.Load.Duration.Seconds()
		if float64(rep.Completed) < 0.99*offered {
			return nil, fmt.Errorf("completed %d of %.0f offered ops: this host is too slow for the fixed rate of %.0f ops/s",
				rep.Completed, offered, cfg.Load.Rate)
		}
		if drain := r.wall - cfg.Load.Duration; drain > maxDrain {
			return nil, fmt.Errorf("%v of backlog left at the end of the arrival window: this host is too slow for the fixed rate of %.0f ops/s",
				drain.Round(time.Millisecond), cfg.Load.Rate)
		}
		r.attempted, r.ok = rep.Issued, rep.Completed
		r.live, r.keep = rep, rt
		return r, nil
	}, nil
}

// maxDrain is how long Run may take beyond the arrival window. An idle
// drain is a few poll intervals; a backlog adds its own service time.
const maxDrain = 500 * time.Millisecond

// liveCreateConfig drives writes through the serving runtime.
func liveCreateConfig(seed int64, sz sizes) live.Config {
	cfg := liveConfig(8, seed, sz, core.GreedySpillPolicy())
	cfg.Load.Rate = sz.createRate
	cfg.Load.WriteRatio = 0.9
	return cfg
}

// liveHotReadConfig aims nine ops in ten at getattrs of one directory, with
// read replication on and a policy eager enough to grant inside the window
// (the same script internal/perf's LiveServeHotDirRep uses).
func liveHotReadConfig(seed int64, sz sizes) live.Config {
	cfg := liveConfig(4, seed, sz, core.GreedySpillPolicy())
	cfg.MDS.HeartbeatInterval = 200 * sim.Millisecond
	cfg.Replication = true
	cfg.ReplicaPolicy = "\nif replicas < max_replicas and rd > wr then return 1 end\nreturn 0"
	cfg.Load.Rate = sz.hotReadRate
	cfg.Load.WriteRatio = 0.1
	cfg.Load.HotDir = true
	cfg.Load.HotFrac = 0.9
	cfg.Load.HotFiles = 256
	return cfg
}

// fracWithin is the share of a histogram's observations at or below limit,
// by bisection on Percentile (the histogram exposes no bucket counts).
func fracWithin(h *telemetry.Histogram, limitUS float64) float64 {
	if h.N() == 0 {
		return 0
	}
	if h.Max() <= limitUS {
		return 1
	}
	lo, hi := 0.0, 100.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if h.Percentile(mid) <= limitUS {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo / 100
}
