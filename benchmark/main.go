// Command benchmark is the repository's one benchmark: four workloads, each
// a fixed unit of work repeated in one process, measured end to end with
// tracing off (-trace 0) or layer by layer (-trace 1). BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory says why each is there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mantle/internal/stats"
)

// metric is one measured value on its way to the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, as the driver reads it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (empty: every workload, each in a fresh process)")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 30, "measurement budget: repetitions are added while they fit")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a Chrome trace")
		traceOut = flag.String("trace-out", "", "Chrome trace file of a -trace 1 run (default .bench_build/trace-<workload>.json)")
		aa       = flag.Bool("aa", false, "run the whole set twice and compare the two against the bounds")
		profile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	switch {
	case *aa:
		if err := runAA(*seed, *seconds); err != nil {
			fail(err)
		}
	case *name == "":
		for _, w := range workloads {
			if _, err := runChild(w.name, *seed, *seconds, *trace, os.Stdout); err != nil {
				fail(err)
			}
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		printHeader(w, *seed, *seconds, *trace)
		if *profile != "" {
			f, err := os.Create(*profile)
			if err != nil {
				fail(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fail(err)
			}
			defer func() {
				pprof.StopCPUProfile()
				if err := f.Close(); err != nil {
					fail(err)
				}
			}()
		}
		var res *result
		var err error
		if *trace == 1 {
			out := *traceOut
			if out == "" {
				out = ".bench_build/trace-" + w.name + ".json"
			}
			res, err = runTraced(w, *seed, full(), out)
		} else {
			res, err = runEndToEnd(w, *seed, time.Duration(*seconds)*time.Second, full())
		}
		if err != nil {
			fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(line))
	}
}

// fail reports an invalid run: no numbers, non-zero exit.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func printHeader(w *workloadDef, seed int64, seconds, trace int) {
	fmt.Printf("workload %s  seed %d  seconds %d  trace %d\n", w.name, seed, seconds, trace)
	fmt.Printf("nproc %d  GOMAXPROCS %d  %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("why: %s\n", w.why)
}

// One warm-up, then measured repetitions while the next one still fits the
// -seconds budget, never fewer than minReps. Set-up is cheap next to a
// repetition and a few tens of milliseconds do not repeat, so it is sampled
// at least minSetups times, and up to maxSetups while that costs less than
// extraSetupTime.
const (
	minReps        = 3
	minSetups      = 7
	maxSetups      = 25
	extraSetupTime = time.Second
)

// endToEnd lists the end-to-end metrics in print order; BENCHMARK.json
// carries the same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"wait_ms", "ms"},
	{"slo_ok_frac", "fraction"},
	{"heap_live_mb", "MB"},
}

// oneRep builds a workload from scratch and runs it once. The previous
// repetition's cluster is unreachable by now; collecting it first gives
// every repetition the same heap to start from.
func oneRep(w *workloadDef, seed int64, sz sizes) (r *repResult, setup time.Duration, err error) {
	runtime.GC()
	t0 := time.Now()
	run, err := w.build(seed, sz)
	if err != nil {
		return nil, 0, err
	}
	setup = time.Since(t0)
	r, err = run()
	return r, setup, err
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(w *workloadDef, seed int64, budget time.Duration, sz sizes) (*result, error) {
	if _, _, err := oneRep(w, seed, sz.warm()); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	fmt.Printf("%-4s %9s %9s %9s %9s %14s %9s %13s\n",
		"rep", "setup_s", "wall_s", "cpu_s", "ops", "cpu_us_per_op", "wait_ms", "heap_live_mb")

	vals := map[string]*stats.Sample{}
	for _, m := range endToEnd {
		vals[m.name] = &stats.Sample{}
	}
	var attempted, ok, good uint64
	var first simOutcome
	start := time.Now()
	reps := 0
	for ; reps < minReps || time.Since(start)*time.Duration(reps+1)/time.Duration(reps) <= budget; reps++ {
		r, setup, err := oneRep(w, seed, sz)
		if err == nil {
			err = first.check(r)
		}
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", reps+1, err)
		}
		heap := heapLiveMB()
		r.keep = nil

		attempted += r.attempted
		ok += r.ok
		good += r.good()
		vals["setup_s"].Add(setup.Seconds())
		vals["cpu_us_per_op"].Add(r.cpuPerOp())
		vals["wait_ms"].Add(r.waitMS())
		vals["heap_live_mb"].Add(heap)
		fmt.Printf("%-4d %9.4f %9.4f %9.4f %9d %14.4f %9.4f %13.3f\n",
			reps+1, setup.Seconds(), r.wall.Seconds(), r.cpu.Seconds(), r.ok, r.cpuPerOp(), r.waitMS(), heap)
	}
	fmt.Print("set-up alone:")
	extra := time.Now()
	for n := reps; n < minSetups || (n < maxSetups && time.Since(extra) < extraSetupTime); n++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := w.build(seed, sz); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", n+1, err)
		}
		s := time.Since(t0).Seconds()
		vals["setup_s"].Add(s)
		fmt.Printf(" %.4f", s)
	}
	fmt.Println()

	res := &result{Correct: true, Attempted: attempted, Failed: attempted - ok, Metrics: map[string]metric{}}
	fmt.Printf("%-14s %12s %-9s %12s %12s %3s\n", "metric", "median", "unit", "min", "iqr", "n")
	for _, m := range endToEnd {
		var v float64
		if m.name == "slo_ok_frac" {
			v = float64(good) / float64(attempted)
			fmt.Printf("%-14s %12.6f %-9s  (pooled over %d ops)\n", m.name, v, m.unit, attempted)
		} else {
			x := vals[m.name]
			v = x.Percentile(50)
			fmt.Printf("%-14s %12.4f %-9s %12.4f %12.4f %3d\n",
				m.name, v, m.unit, x.Percentile(0), x.Percentile(75)-x.Percentile(25), x.N())
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s is not finite", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// simOutcome holds every sim repetition to the first one's outcome: same
// seed, same inputs, so any difference is lost determinism. It keeps two
// counts and not the Result, which would keep the first cluster reachable.
type simOutcome struct {
	set          bool
	ops, exports uint64
}

func (o *simOutcome) check(r *repResult) error {
	if r.sim == nil {
		return nil
	}
	ops, exports := uint64(r.sim.TotalOps), r.sim.TotalExports
	if !o.set {
		*o = simOutcome{true, ops, exports}
	}
	if ops != o.ops || exports != o.exports {
		return fmt.Errorf("not deterministic: %d ops / %d exports, first repetition had %d / %d",
			ops, exports, o.ops, o.exports)
	}
	return nil
}

// heapLiveMB is the heap still reachable after a full collection. The second
// GC frees what finalizers and sync.Pool victims of the first released.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func (r *repResult) cpuPerOp() float64 {
	return float64(r.cpu) / float64(time.Microsecond) / float64(r.ok)
}

// waitMS is what the workload's user waits for. A live client waits for its
// op: the median latency from scheduled arrival. Whoever runs a simulation
// waits for the run: wall milliseconds per thousand simulated ops.
func (r *repResult) waitMS() float64 {
	if r.live != nil {
		return r.live.P50
	}
	return float64(r.wall) / float64(time.Millisecond) / (float64(r.ok) / 1000)
}

// good counts the ops that met the workload's service objective: success
// within sloLimit of scheduled arrival on live workloads, success on sim
// workloads, whose latencies are virtual time.
func (r *repResult) good() uint64 {
	if r.live != nil {
		return uint64(math.Round(fracWithin(r.live.Latency, float64(sloLimit/time.Microsecond)) * float64(r.live.Latency.N())))
	}
	return r.ok
}
