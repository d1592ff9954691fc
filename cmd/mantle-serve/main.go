// Command mantle-serve runs the live serving runtime: a concurrent MDS
// cluster (one actor goroutine per rank) under open-loop load on the wall
// clock, with the same Lua-programmable balancing the simulator exercises.
// It prints a latency/throughput/balancing summary and can enforce a p99
// SLO via exit code.
//
// Exit codes: 0 ok; 1 SLO violated; 2 usage/config error; 3 wedged drain or
// namespace invariant violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mantle/internal/balancer"
	"mantle/internal/core"
	"mantle/internal/elastic"
	"mantle/internal/faults"
	"mantle/internal/live"
	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/workload"
)

func main() {
	ranks := flag.Int("ranks", 3, "number of MDS ranks")
	clients := flag.Int("clients", 16, "client identities load is spread across")
	rate := flag.Float64("rate", 5000, "aggregate open-loop arrival rate (ops/s)")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	policy := flag.String("policy", "greedy_spill", "balancer policy: builtin name or path to a .lua file")
	sloP99 := flag.Float64("slo-p99", 0, "p99 latency SLO in milliseconds (0 = no SLO)")
	seed := flag.Int64("seed", 1, "RNG seed")
	wl := flag.String("workload", "zipf", "workload: zipf | compile")
	dirs := flag.Int("dirs", 64, "zipf working-set directories")
	zipfS := flag.Float64("zipf-s", 1.1, "zipf skew (>1)")
	writeRatio := flag.Float64("write-ratio", 0.8, "fraction of ops that are creates (zipf)")
	hb := flag.Duration("hb-interval", time.Second, "heartbeat/balance interval")
	queue := flag.Int("queue", 256, "per-rank request mailbox depth (shed past it)")
	admit := flag.Int("admit", 128, "MDS queue admission bound")
	netLat := flag.Duration("net-latency", 150*time.Microsecond, "one-way message latency")
	netJit := flag.Duration("net-jitter", 30*time.Microsecond, "message latency jitter (+/-)")
	opTimeout := flag.Duration("op-timeout", 5*time.Second, "abandon an unanswered op after this long")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "shutdown quiesce bound")
	minRanks := flag.Int("min-ranks", 0, "elastic: never shrink below this many ranks (0 = elasticity off)")
	maxRanks := flag.Int("max-ranks", 0, "elastic: never grow past this many ranks (0 = elasticity off)")
	elasticPolicy := flag.String("elastic-policy", "", "when_elastic hook: path to a .lua policy file (default: the -policy file's when_elastic section, else the built-in thresholds)")
	flash := flag.Float64("flash", 1, "rate multiplier during the compile link phase (the flash crowd)")
	linkPasses := flag.Int("link-passes", 0, "compile workload: readdir sweeps in the link phase (0 = default 3)")
	idleTail := flag.Duration("idle-tail", 0, "hold the cluster at zero load this long after the stream ends (lets scale-in complete)")
	seedBounds := flag.Bool("seed-bounds", true, "pre-partition the zipf working set across the initial ranks (warm client mdsmap); false starts everything on rank 0")
	mutexProfile := flag.String("mutexprofile", "", "write a lock-contention profile to this file after the run")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file after the run")
	standbys := flag.Int("standbys", 0, "warm standby pool: a monitor-declared-failed rank is replaced after journal replay (enables the monitor)")
	monGrace := flag.Duration("mon-grace", 0, "declare a rank failed after this much beacon silence (0 with -standbys derives 4x heartbeat; >0 alone enables the monitor without takeover)")
	hbMode := flag.String("hb-mode", "allpairs", "load exchange: allpairs (every rank heartbeats every peer, O(ranks^2) msgs/interval) | aggregated (ranks report to the monitor, which disseminates a load map, O(ranks); enables the monitor)")
	loadStale := flag.Duration("load-stale", 0, "aggregated mode: age a silent rank's vector out of the load map after this long (0 = the monitor grace)")
	workers := flag.Int("workers", 0, "load-generator dispatcher goroutines (zipf workload; 0 = GOMAXPROCS capped at 8)")
	replication := flag.Bool("replication", false, "enable hot-dirfrag read replication (when_replicate hook) plus client-side replica routing and lookup coalescing")
	replicaMax := flag.Int("replica-max", 2, "max replicas per directory")
	replicaPolicy := flag.String("replica-policy", "", "when_replicate hook: path to a .lua policy file (default: the -policy file's when_replicate section, else the built-in heat thresholds)")
	hotDir := flag.Bool("hotdir", false, "zipf workload: concentrate -hot-frac of ops on one shared hot directory")
	hotFrac := flag.Float64("hot-frac", 0.9, "fraction of ops aimed at the hot directory (with -hotdir)")
	hotFiles := flag.Int("hot-files", 256, "files in the hot directory (with -hotdir)")
	faultsFile := flag.String("faults", "", "JSON fault plan file injected against the live runtime (same schema as mantle-sim -faults; endpoint -2 = the monitor)")
	flag.Parse()

	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(100_000) // sample blocking events >= 100µs
	}

	p, err := pickPolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if rep := core.Validate(p); !rep.OK() {
		fmt.Fprintf(os.Stderr, "refusing to inject unsafe policy:\n%s", rep)
		os.Exit(2)
	}

	cfg := live.DefaultConfig(*ranks, *seed)
	cfg.Factory = func(namespace.Rank) (balancer.Balancer, error) {
		return core.NewLuaBalancer(p, core.Options{})
	}
	if *hb > 0 {
		cfg.MDS.HeartbeatInterval = sim.Time(hb.Microseconds())
		cfg.MDS.RebalanceDelay = cfg.MDS.HeartbeatInterval / 10
	}
	cfg.MailboxDepth = *queue
	cfg.AdmitQueue = *admit
	cfg.SeedBounds = *seedBounds
	cfg.Net.Latency = sim.Time(netLat.Microseconds())
	cfg.Net.Jitter = sim.Time(netJit.Microseconds())
	cfg.DrainTimeout = *drainTimeout
	cfg.Standbys = *standbys
	cfg.MonGrace = *monGrace
	switch *hbMode {
	case "allpairs":
	case "aggregated":
		cfg.HBAggregated = true
		cfg.LoadStale = *loadStale
	default:
		fmt.Fprintf(os.Stderr, "unknown -hb-mode %q (allpairs | aggregated)\n", *hbMode)
		os.Exit(2)
	}
	cfg.Load = live.LoadConfig{
		Clients:     *clients,
		Rate:        *rate,
		Duration:    *duration,
		Workload:    *wl,
		Dirs:        *dirs,
		ZipfS:       *zipfS,
		WriteRatio:  *writeRatio,
		OpTimeout:   *opTimeout,
		Seed:        *seed,
		FlashFactor: *flash,
		IdleTail:    *idleTail,
		Workers:     *workers,
		HotDir:      *hotDir,
		HotFrac:     *hotFrac,
		HotFiles:    *hotFiles,
	}
	if *replication {
		cfg.Replication = true
		cfg.ReplicaMax = *replicaMax
		cfg.ReplicaPolicy = p.WhenReplicate // "" falls back to the built-in hook
		if *replicaPolicy != "" {
			rp, err := pickPolicy(*replicaPolicy)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if rp.WhenReplicate == "" {
				fmt.Fprintf(os.Stderr, "%s has no when_replicate section\n", *replicaPolicy)
				os.Exit(2)
			}
			cfg.ReplicaPolicy = rp.WhenReplicate
		}
	}
	if *wl == "compile" {
		cfg.Load.Compile = workload.CompileConfig{Root: "/build", Seed: *seed, LinkPasses: *linkPasses}
	}
	if *maxRanks > 0 {
		if *maxRanks < *ranks {
			fmt.Fprintf(os.Stderr, "-max-ranks %d below -ranks %d\n", *maxRanks, *ranks)
			os.Exit(2)
		}
		cfg.MaxRanks = *maxRanks
		cfg.MinRanks = *minRanks
		cfg.ElasticPolicy = p.WhenElastic // "" falls back to the built-in hook
		if *elasticPolicy != "" {
			ep, err := pickPolicy(*elasticPolicy)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if ep.WhenElastic == "" {
				fmt.Fprintf(os.Stderr, "%s has no when_elastic section\n", *elasticPolicy)
				os.Exit(2)
			}
			cfg.ElasticPolicy = ep.WhenElastic
		}
	}

	rt, err := live.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if co := rt.Coordinator(); co != nil {
		co.OnEvent = func(e elastic.Event) {
			fmt.Printf("elastic: %s\n", e)
		}
		fmt.Printf("mantle-serve: elastic %d..%d ranks\n", cfg.MinRanks, cfg.MaxRanks)
	}
	if *standbys > 0 || *monGrace > 0 || cfg.HBAggregated {
		fmt.Printf("mantle-serve: monitor on (%d standbys, grace %v, hb-mode %s)\n", *standbys, *monGrace, *hbMode)
	}
	if *faultsFile != "" {
		plan, err := faults.Load(*faultsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := rt.ApplyFaults(plan); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("mantle-serve: fault plan %q (%d events)\n", plan.Name, len(plan.Events))
	}
	if cfg.Replication {
		src := "built-in"
		if cfg.ReplicaPolicy != "" {
			src = "when_replicate"
		}
		fmt.Printf("mantle-serve: replication on (max %d replicas/dir, %s hook)\n", cfg.ReplicaMax, src)
	}
	wlDesc := *wl
	if *hotDir {
		wlDesc = fmt.Sprintf("%s, hotdir %.0f%%/%d files", *wl, *hotFrac*100, *hotFiles)
	}
	fmt.Printf("mantle-serve: %d ranks, policy %s, %v @ %.0f op/s (%s workload)\n",
		*ranks, p.Name, *duration, *rate, wlDesc)
	rep, runErr := rt.Run()
	if rep != nil {
		rep.Write(os.Stdout)
	}
	writeProfile("mutex", *mutexProfile)
	writeProfile("block", *blockProfile)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(3)
	}
	if *sloP99 > 0 {
		if rep.P99 > *sloP99 {
			fmt.Printf("SLO: p99 %.3fms > %.3fms — VIOLATED\n", rep.P99, *sloP99)
			os.Exit(1)
		}
		fmt.Printf("SLO: p99 %.3fms <= %.3fms — ok\n", rep.P99, *sloP99)
	}
}

// writeProfile dumps a named runtime profile ("mutex", "block") to path.
func writeProfile(kind, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s profile: %v\n", kind, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(kind).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "%s profile: %v\n", kind, err)
	}
}

// pickPolicy resolves a builtin policy name or a .lua file path.
func pickPolicy(nameOrPath string) (core.Policy, error) {
	if strings.ContainsAny(nameOrPath, "/.") {
		data, err := os.ReadFile(nameOrPath)
		if err != nil {
			return core.Policy{}, err
		}
		base := strings.TrimSuffix(filepath.Base(nameOrPath), filepath.Ext(nameOrPath))
		return core.ParsePolicyFile(base, string(data))
	}
	p, ok := core.Policies()[nameOrPath]
	if !ok {
		return core.Policy{}, fmt.Errorf("unknown policy %q (have: %s)", nameOrPath, strings.Join(core.PolicyNames(), ", "))
	}
	return p, nil
}
