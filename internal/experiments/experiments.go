// Package experiments regenerates every table and figure from the paper's
// evaluation on the simulated cluster. Each experiment is a function from
// Options to a Report: rendered series/tables plus a set of shape checks
// ("who wins, by roughly what factor, where crossovers fall") that encode
// the paper's qualitative claims. EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"mantle/internal/cluster"
	"mantle/internal/sim"
	"mantle/internal/stats"
)

// Options control experiment size and determinism.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Scale multiplies workload sizes; 1.0 reproduces the paper's sizes
	// (100 000 creates per client). Benchmarks use smaller scales.
	Scale float64
	// Out, when non-nil, receives the rendered report as it is built.
	Out io.Writer
}

// DefaultOptions returns a medium-size deterministic configuration.
func DefaultOptions() Options { return Options{Seed: 1, Scale: 0.1} }

// ErrBadScale is returned by Run and RunAllParallel for a Scale that is not
// a positive number (zero, negative or NaN).
var ErrBadScale = errors.New("experiments: scale must be > 0")

func (o Options) check() error {
	if !(o.Scale > 0) {
		return fmt.Errorf("%w, got %g", ErrBadScale, o.Scale)
	}
	return nil
}

func (o Options) files(paper int) int {
	n := int(float64(paper) * o.Scale)
	if n < 500 {
		n = 500
	}
	return n
}

// Check is one shape assertion against the paper's qualitative claim.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is the rendered result of one experiment.
type Report struct {
	ID     string
	Title  string
	Checks []Check
	out    io.Writer
	b      strings.Builder
}

func newReport(id, title string, o Options) *Report {
	r := &Report{ID: id, Title: title, out: o.Out}
	r.Printf("== %s: %s (seed=%d scale=%g)\n", id, title, o.Seed, o.Scale)
	return r
}

// Printf appends formatted text to the report (and Out if set).
func (r *Report) Printf(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	r.b.WriteString(s)
	if r.out != nil {
		io.WriteString(r.out, s)
	}
}

// Check records a shape assertion.
func (r *Report) Check(name string, pass bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: detail})
	status := "PASS"
	if !pass {
		status = "FAIL"
	}
	r.Printf("  [%s] %s: %s\n", status, name, detail)
}

// Pass reports whether every check passed.
func (r *Report) Pass() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// String returns the full rendered report.
func (r *Report) String() string { return r.b.String() }

// Func is an experiment entry point.
type Func func(Options) *Report

// registry maps experiment ids to implementations.
var registry = map[string]Func{
	"fig1":     Fig1Heatmap,
	"fig3":     Fig3Locality,
	"fig4":     Fig4Reproducibility,
	"fig5":     Fig5ClientScaling,
	"fig7":     Fig7SharedDir,
	"fig8":     Fig8Speedup,
	"fig9":     Fig9Compile,
	"fig10":    Fig10FlashCrowd,
	"sessions": SessionCounts,
	"ablation": Ablations,
	"scale":    ScaleStudy,
}

// IDs lists experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, o Options) (*Report, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	if err := o.check(); err != nil {
		return nil, err
	}
	return f(o), nil
}

// RunAll executes every experiment in id order. Every id in IDs() is
// registered by construction, so a lookup failure is a programming error —
// it panics with the id rather than silently appending a nil report.
func RunAll(o Options) []*Report {
	var out []*Report
	for _, id := range IDs() {
		r, err := Run(id, o)
		if err != nil {
			panic(fmt.Sprintf("experiments: RunAll(%q): %v", id, err))
		}
		out = append(out, r)
	}
	return out
}

// RunAllParallel executes every experiment on a pool of worker goroutines,
// one deterministic engine per experiment. Reports are assembled — and, when
// o.Out is set, written — in id order, so the output is byte-identical to
// sequential RunAll with the same Options. workers <= 1 degrades to the
// sequential path.
func RunAllParallel(o Options, workers int) ([]*Report, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	ids := IDs()
	if workers <= 1 {
		return RunAll(o), nil
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	// Workers render into each Report's private buffer; the shared writer
	// only sees completed reports, in order, after the barrier.
	sub := o
	sub.Out = nil
	reports := make([]*Report, len(ids))
	errs := make([]error, len(ids))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i], errs[i] = Run(ids[i], sub)
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: RunAllParallel(%q): %w", ids[i], err)
		}
	}
	if o.Out != nil {
		for _, r := range reports {
			if _, err := io.WriteString(o.Out, r.String()); err != nil {
				return reports, err
			}
		}
	}
	return reports, nil
}

// ---- shared rendering helpers ----

// renderStacked draws per-MDS throughput series as rows of a compact chart.
func renderStacked(r *Report, title string, series []*stats.Series) {
	r.Printf("  %s\n", title)
	const ramp = " .:-=+*#%@"
	max := 0.0
	n := 0
	for _, s := range series {
		if s.Max() > max {
			max = s.Max()
		}
		if s.Len() > n {
			n = s.Len()
		}
	}
	if n > 72 {
		n = 72
	}
	for i, s := range series {
		row := make([]byte, n)
		for j := 0; j < n; j++ {
			v := 0.0
			if j < s.Len() {
				v = s.Points[j].V
			}
			idx := 0
			if max > 0 {
				idx = int(v / max * float64(len(ramp)-1))
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			row[j] = ramp[idx]
		}
		r.Printf("    MDS%-2d |%s| peak %.0f req/s\n", i, row, s.Max())
	}
}

// pctDelta renders a relative difference as a signed percentage.
func pctDelta(baseline, v sim.Time) float64 {
	if v <= 0 || baseline <= 0 {
		return 0
	}
	// Positive = speedup (config finished faster than baseline).
	return (float64(baseline)/float64(v) - 1) * 100
}

// buildCluster constructs a cluster with common experiment tuning. The
// balancer tick (10 s in CephFS, against jobs of 5-10 minutes) is scaled
// with the workload so a scaled-down run sees the same number of balancing
// opportunities as the paper's full-size jobs.
func buildCluster(o Options, numMDS int, seed int64, factory cluster.BalancerFactory, tune func(*cluster.Config)) *cluster.Cluster {
	cfg := cluster.DefaultConfig(numMDS, seed)
	hb := sim.Time(float64(10*sim.Second) * o.Scale)
	if hb < 500*sim.Millisecond {
		hb = 500 * sim.Millisecond
	}
	if hb > 10*sim.Second {
		hb = 10 * sim.Second
	}
	cfg.MDS.HeartbeatInterval = hb
	cfg.MDS.RebalanceDelay = hb / 10
	cfg.ThroughputWindow = hb
	if tune != nil {
		tune(&cfg)
	}
	c, err := cluster.New(cfg, factory)
	if err != nil {
		panic(fmt.Sprintf("experiments: cluster build failed: %v", err))
	}
	return c
}

// fmtClientTimes renders per-client completion times.
func fmtClientTimes(times []sim.Time) string {
	parts := make([]string, len(times))
	for i, t := range times {
		parts[i] = fmt.Sprintf("%.1fs", t.Seconds())
	}
	return strings.Join(parts, " ")
}
