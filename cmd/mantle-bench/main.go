// Command mantle-bench regenerates the paper's tables and figures on the
// simulated cluster and prints paper-vs-measured shape checks. Performance is
// measured by the benchmark, `bash benchmark/run.sh` (benchmark/README.md).
//
// Usage:
//
//	mantle-bench -run fig7 -scale 0.25 -seed 3
//	mantle-bench -run all -parallel 8
//	mantle-bench -run all -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mantle/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment id to run (or 'all'); one of: "+strings.Join(experiments.IDs(), ", "))
	seed := flag.Int64("seed", 1, "random seed")
	scale := flag.Float64("scale", 0.1, "workload scale relative to the paper (1.0 = 100k creates/client)")
	parallel := flag.Int("parallel", 1, "run 'all' experiments on N worker goroutines (output stays byte-identical to sequential)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	memProfilePath = *memProfile
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
		cpuProfileStop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer cpuProfileStop()
	}
	defer writeMemProfile(memProfilePath)

	opts := experiments.Options{Seed: *seed, Scale: *scale, Out: os.Stdout}
	var reports []*experiments.Report
	var err error
	if *run == "all" {
		reports, err = experiments.RunAllParallel(opts, *parallel)
	} else {
		var rep *experiments.Report
		rep, err = experiments.Run(*run, opts)
		reports = []*experiments.Report{rep}
	}
	if errors.Is(err, experiments.ErrBadScale) {
		err = fmt.Errorf("mantle-bench: invalid -scale %g: must be > 0", *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	fail := 0
	for _, rep := range reports {
		if !rep.Pass() {
			fail++
		}
	}
	if fail > 0 {
		fmt.Printf("\n%d experiment(s) had failing shape checks\n", fail)
		exit(1)
	}
	fmt.Println("\nall shape checks passed")
}

// exit flushes the profiles (deferred writers don't run through os.Exit)
// before terminating with the given code.
func exit(code int) {
	if cpuProfileStop != nil {
		cpuProfileStop()
		cpuProfileStop = nil
	}
	writeMemProfile(memProfilePath)
	os.Exit(code)
}

// memProfilePath and cpuProfileStop hold profiling state for the early-exit
// path.
var (
	memProfilePath string
	cpuProfileStop func()
)

func writeMemProfile(path string) {
	if path == "" {
		return
	}
	memProfilePath = ""
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
