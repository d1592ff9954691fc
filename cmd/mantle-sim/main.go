// Command mantle-sim runs one simulated CephFS metadata cluster with a
// chosen balancing policy and workload, printing per-MDS throughput and a
// run summary. It is the interactive counterpart to mantle-bench: change the
// policy (built-in name or an injected Lua file) and watch the behaviour.
//
// Usage:
//
//	mantle-sim -mds 4 -clients 4 -workload shared -files 20000 -balancer greedy_spill
//	mantle-sim -mds 3 -clients 5 -workload compile -policy-file my_balancer.lua
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"mantle/internal/cluster"
	"mantle/internal/core"
	"mantle/internal/faults"
	"mantle/internal/mon"
	"mantle/internal/sim"
	"mantle/internal/telemetry"
	"mantle/internal/workload"
)

func main() {
	var (
		numMDS     = flag.Int("mds", 3, "number of metadata servers")
		clients    = flag.Int("clients", 4, "number of closed-loop clients")
		files      = flag.Int("files", 20000, "files per client (create workloads) or files per directory (compile)")
		wl         = flag.String("workload", "separate", "workload: separate | shared | compile | trace")
		traceFile  = flag.String("trace", "", "trace file to replay (workload=trace; each client replays a copy)")
		balName    = flag.String("balancer", "cephfs_original", "built-in policy: "+strings.Join(core.PolicyNames(), ", "))
		policy     = flag.String("policy-file", "", "inject a Lua policy file instead of a built-in (see docs for the section format)")
		seed       = flag.Int64("seed", 1, "random seed")
		duration   = flag.Duration("max-time", 0, "virtual time budget (0 = 1h)")
		hb         = flag.Duration("hb-interval", 0, "heartbeat/balancer interval (0 = 10s)")
		splitSize  = flag.Int("split-size", 0, "dirfrag split threshold (0 = 50000)")
		standbys   = flag.Int("standbys", 0, "standby MDS daemons (enables the monitor)")
		faultsFile = flag.String("faults", "", "JSON fault plan to inject (see docs/ROBUSTNESS.md for the schema)")
		crashRank  = flag.Int("crash-rank", -1, "rank to crash at -crash-at (requires -standbys or manual recovery)")
		crashAt    = flag.Duration("crash-at", 0, "virtual time of the injected crash")
		csvPrefix  = flag.String("csv", "", "write <prefix>_throughput.csv and <prefix>_clients.csv")
		telPrefix  = flag.String("telemetry", "", "enable telemetry; write <prefix>_metrics.{csv,jsonl}, <prefix>_trace.json, <prefix>_flight.jsonl")
		traceNet   = flag.Bool("trace-net", false, "include per-message network events in the trace (large; requires -telemetry)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		profileStop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	memProfilePath = *memProfile
	defer exitProfiles()

	p, err := pickPolicy(*balName, *policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	// Lint the policy before injecting it, as §4.4 prescribes.
	if rep := core.Validate(p); !rep.OK() {
		fmt.Fprintf(os.Stderr, "refusing to inject unsafe policy:\n%s", rep)
		exit(2)
	}

	cfg := cluster.DefaultConfig(*numMDS, *seed)
	if *hb > 0 {
		cfg.MDS.HeartbeatInterval = sim.Time(hb.Microseconds())
		cfg.MDS.RebalanceDelay = cfg.MDS.HeartbeatInterval / 10
	}
	if *splitSize > 0 {
		cfg.MDS.SplitSize = *splitSize
	}
	cfg.ThroughputWindow = cfg.MDS.HeartbeatInterval

	c, err := cluster.New(cfg, cluster.LuaBalancers(p))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	if *telPrefix != "" {
		c.EnableTelemetry(telemetry.Options{
			Metrics:        true,
			Trace:          true,
			TraceNet:       *traceNet,
			FlightRecorder: true,
		})
	}
	for i := 0; i < *clients; i++ {
		switch *wl {
		case "separate":
			c.AddClient(workload.SeparateDirCreates("", i, *files))
		case "shared":
			c.AddClient(workload.SharedDirCreates("/shared", i, *files))
		case "compile":
			c.AddClient(workload.Compile(workload.CompileConfig{
				Root:        fmt.Sprintf("/src%d", i),
				FilesPerDir: *files,
				HeaderFiles: *files / 2,
				Seed:        *seed + int64(i),
			}))
		case "trace":
			f, err := os.Open(*traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(2)
			}
			gen, err := workload.ParseTrace(f)
			f.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(2)
			}
			c.AddClient(gen)
		default:
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
			exit(2)
		}
	}

	if *standbys > 0 {
		mcfg := mon.DefaultConfig()
		mcfg.CheckInterval = cfg.MDS.HeartbeatInterval / 2
		mcfg.Grace = 3 * cfg.MDS.HeartbeatInterval
		c.EnableFailover(*standbys, mcfg)
	}
	if *faultsFile != "" {
		plan, err := faults.Load(*faultsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		if err := c.ApplyFaults(plan); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		name := plan.Name
		if name == "" {
			name = *faultsFile
		}
		fmt.Printf("fault plan %s: %d event(s), seed %d\n", name, len(plan.Events), plan.Seed)
	}
	if *crashRank >= 0 && *crashRank < *numMDS && *crashAt > 0 {
		doomed := c.MDSs[*crashRank]
		c.Engine.Schedule(sim.Time(crashAt.Microseconds()), func() {
			fmt.Printf("[t=%.1fs] crashing mds.%d\n", c.Engine.Now().Seconds(), doomed.Rank())
			doomed.Crash()
		})
	}

	budget := sim.Time(duration.Microseconds())
	if budget <= 0 {
		budget = sim.Minute * 60
	}
	res := c.Run(budget)

	fmt.Printf("policy %s on %d MDS, %d clients, %s workload (seed %d)\n",
		p.Name, *numMDS, *clients, *wl, *seed)
	fmt.Printf("finished: %v  makespan: %.2fs  total ops: %d (%.0f req/s aggregate)\n",
		res.AllDone, res.Makespan.Seconds(), res.TotalOps, res.AggregateThroughput())
	fmt.Printf("mean latency: %.3f ms\n", res.MeanLatencyMs())
	fmt.Printf("forwards: %d  exports: %d (%d inodes)  splits: %d  session flushes: %d  policy errors: %d\n",
		res.TotalForwards, res.TotalExports, res.TotalInodes, res.TotalSplits, res.TotalFlushes, res.PolicyErrors)
	if res.PolicyFallbacks+res.ExportAborts+res.ImportAborts+res.SubtreeReassigns != 0 || res.TotalGaveUp != 0 {
		fmt.Printf("robustness: %d policy fallback(s)  %d export abort(s)  %d import abort(s)  %d reassignment(s)  %d op(s) abandoned\n",
			res.PolicyFallbacks, res.ExportAborts, res.ImportAborts, res.SubtreeReassigns, res.TotalGaveUp)
	}
	if c.Monitor != nil {
		fmt.Printf("monitor: %d failure(s), %d takeover(s), down now: %v\n",
			c.Monitor.Failures, c.Monitor.Takeovers, c.Monitor.FailedRanks())
	}
	fmt.Println("per-MDS:")
	for r, cnt := range res.MDSCounters {
		fmt.Printf("  mds.%d served %8d  hits %8d  forwards %6d  exports %3d  imports %3d  sessions %d\n",
			r, cnt.Served, cnt.Hits, cnt.Forwards, cnt.Exports, cnt.Imports, res.MDSSessions[r])
	}
	fmt.Println("per-MDS throughput over time (req/s per window):")
	for r, s := range res.Throughput {
		fmt.Printf("  mds.%d:", r)
		for _, pt := range s.Points {
			fmt.Printf(" %5.0f", pt.V)
		}
		fmt.Println()
	}
	if *csvPrefix != "" {
		for _, out := range []struct {
			name  string
			write func(*os.File) error
		}{
			{*csvPrefix + "_throughput.csv", func(f *os.File) error { return res.WriteThroughputCSV(f) }},
			{*csvPrefix + "_clients.csv", func(f *os.File) error { return res.WriteClientCSV(f) }},
		} {
			name, write := out.name, out.write
			f, err := os.Create(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			if err := write(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			f.Close()
			fmt.Println("wrote", name)
		}
	}
	if *telPrefix != "" {
		if err := writeTelemetry(c, *telPrefix); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}
	// Health gates: wedged migrations are a bug in the cluster (exit 3);
	// unmet client ops — hung or abandoned — are a failed run (exit 1).
	if wedged := c.WedgedMigrations(); wedged > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d migration(s) wedged in flight at shutdown\n", wedged)
		exit(3)
	}
	if !res.AllDone || res.TotalGaveUp > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: unmet ops (all done: %v, %d abandoned after retry budget)\n",
			res.AllDone, res.TotalGaveUp)
		exit(1)
	}
}

// Profile plumbing. os.Exit skips deferred calls, so every exit after the
// profilers start goes through exit(), which flushes them first.
var (
	memProfilePath string
	profileStop    func()
)

func exitProfiles() {
	if profileStop != nil {
		profileStop()
		profileStop = nil
	}
	if memProfilePath != "" {
		path := memProfilePath
		memProfilePath = ""
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		f.Close()
	}
}

func exit(code int) {
	exitProfiles()
	os.Exit(code)
}

// writeTelemetry exports every enabled telemetry artefact under the prefix.
func writeTelemetry(c *cluster.Cluster, prefix string) error {
	t := c.Tel
	type artefact struct {
		suffix string
		write  func(*os.File) error
	}
	var arts []artefact
	if t.Reg != nil {
		arts = append(arts,
			artefact{"_metrics.csv", func(f *os.File) error { return t.Reg.WriteCSV(f) }},
			artefact{"_metrics.jsonl", func(f *os.File) error { return t.Reg.WriteJSONL(f) }})
	}
	if t.Tracer != nil {
		arts = append(arts, artefact{"_trace.json", func(f *os.File) error { return t.Tracer.WriteJSON(f) }})
	}
	if t.Recorder != nil {
		arts = append(arts, artefact{"_flight.jsonl", func(f *os.File) error { return t.Recorder.WriteJSONL(f) }})
	}
	for _, a := range arts {
		f, err := os.Create(prefix + a.suffix)
		if err != nil {
			return err
		}
		if err := a.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", prefix+a.suffix)
	}
	return nil
}

func pickPolicy(name, file string) (core.Policy, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return core.Policy{}, err
		}
		base := strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
		return core.ParsePolicyFile(base, string(data))
	}
	p, ok := core.Policies()[name]
	if !ok {
		return core.Policy{}, fmt.Errorf("unknown balancer %q (have: %s)", name, strings.Join(core.PolicyNames(), ", "))
	}
	return p, nil
}
