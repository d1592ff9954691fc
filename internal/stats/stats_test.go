package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mantle/internal/sim"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDecayCounterHalves(t *testing.T) {
	const hl = 10 * sim.Second
	var c DecayCounter
	c.Hit(0, 100, hl)
	if got := c.Get(10*sim.Second, hl); !almostEqual(got, 50, 1e-9) {
		t.Fatalf("after one half-life got %v, want 50", got)
	}
	if got := c.Get(30*sim.Second, hl); !almostEqual(got, 12.5, 1e-9) {
		t.Fatalf("after three half-lives got %v, want 12.5", got)
	}
}

func TestDecayCounterAccumulates(t *testing.T) {
	const hl = 10 * sim.Second
	var c DecayCounter
	c.Hit(0, 8, hl)
	c.Hit(10*sim.Second, 6, hl) // 8 decayed to 4, plus 6 = 10
	if got := c.Get(10*sim.Second, hl); !almostEqual(got, 10, 1e-9) {
		t.Fatalf("got %v, want 10", got)
	}
}

// TestDecayCounterLateHit: a hit older than the counter's last update
// weighs what it would weigh had it been counted in time order, and does
// not move the counter's clock back.
func TestDecayCounterLateHit(t *testing.T) {
	const hl = sim.Second
	var inOrder, late DecayCounter
	inOrder.Hit(1*sim.Second, 1, hl)
	inOrder.Hit(3*sim.Second, 1, hl)
	late.Hit(3*sim.Second, 1, hl)
	late.Hit(1*sim.Second, 1, hl)
	if got, want := late.Get(3*sim.Second, hl), inOrder.Get(3*sim.Second, hl); got != 1.25 || want != 1.25 {
		t.Fatalf("late hit: %v, in order: %v, want 1.25 both", got, want)
	}
	if got := late.Get(4*sim.Second, hl); got != 0.625 {
		t.Fatalf("one half-life later: %v, want 0.625", got)
	}
	var flat DecayCounter // no half-life: a late hit counts in full
	flat.Hit(3*sim.Second, 1, 0)
	flat.Hit(1*sim.Second, 1, 0)
	if got := flat.Get(3*sim.Second, 0); got != 2 {
		t.Fatalf("no-decay late hit: %v, want 2", got)
	}
}

func TestDecayCounterNoDecay(t *testing.T) {
	var c DecayCounter
	c.Hit(0, 5, 0)
	c.Hit(100*sim.Second, 5, 0)
	if got := c.Get(1000*sim.Second, 0); got != 10 {
		t.Fatalf("no-decay counter got %v, want 10", got)
	}
}

func TestDecayCounterReset(t *testing.T) {
	var c DecayCounter
	c.Hit(0, 42, sim.Second)
	c.Reset(sim.Second)
	if c.Get(sim.Second, sim.Second) != 0 {
		t.Fatal("reset did not zero counter")
	}
}

func TestDecayCounterUnderflowToZero(t *testing.T) {
	var c DecayCounter
	c.Hit(0, 1, sim.Millisecond)
	if got := c.Get(10*sim.Second, sim.Millisecond); got != 0 {
		t.Fatalf("tiny residue should clamp to zero, got %v", got)
	}
}

// Property: decay is monotone nonincreasing without hits, and never negative.
func TestDecayMonotoneProperty(t *testing.T) {
	const hl = 5 * sim.Second
	f := func(initial uint32, steps []uint16) bool {
		var c DecayCounter
		c.Hit(0, float64(initial%10000), hl)
		now := sim.Time(0)
		prev := c.Get(0, hl)
		for _, s := range steps {
			now += sim.Time(s)
			v := c.Get(now, hl)
			if v < 0 || v > prev+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting an interval in two gives the same decay as one step.
func TestDecayCompositionProperty(t *testing.T) {
	const hl = 7 * sim.Second
	f := func(a, b uint16) bool {
		var c1 DecayCounter
		c1.Hit(0, 1000, hl)
		one := c1.Get(sim.Time(a)+sim.Time(b), hl)

		var c2 DecayCounter
		c2.Hit(0, 1000, hl)
		c2.Get(sim.Time(a), hl)
		two := c2.Get(sim.Time(a)+sim.Time(b), hl)
		return almostEqual(one, two, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRateCounterBuckets(t *testing.T) {
	r := NewRateCounter("tput", sim.Second)
	r.Tick(100*sim.Millisecond, 10)
	r.Tick(900*sim.Millisecond, 20)
	r.Tick(1500*sim.Millisecond, 5)
	s := r.Finish(2 * sim.Second)
	if s.Len() != 2 {
		t.Fatalf("buckets = %d, want 2", s.Len())
	}
	if s.Points[0].V != 30 {
		t.Fatalf("bucket 0 rate = %v, want 30", s.Points[0].V)
	}
	if s.Points[1].V != 5 {
		t.Fatalf("bucket 1 rate = %v, want 5", s.Points[1].V)
	}
	if s.Points[0].T != 0 || s.Points[1].T != sim.Second {
		t.Fatalf("bucket starts = %v, %v", s.Points[0].T, s.Points[1].T)
	}
}

func TestRateCounterEmptyWindows(t *testing.T) {
	r := NewRateCounter("tput", sim.Second)
	r.Tick(0, 1)
	r.Tick(5*sim.Second+sim.Millisecond, 1)
	s := r.Finish(6 * sim.Second)
	if s.Len() != 6 {
		t.Fatalf("buckets = %d, want 6", s.Len())
	}
	for i := 1; i < 5; i++ {
		if s.Points[i].V != 0 {
			t.Fatalf("bucket %d should be empty, got %v", i, s.Points[i].V)
		}
	}
}

func TestRateCounterPartialFinalBucket(t *testing.T) {
	r := NewRateCounter("tput", sim.Second)
	r.Tick(100*sim.Millisecond, 50)
	s := r.Finish(500 * sim.Millisecond)
	if s.Len() != 1 {
		t.Fatalf("buckets = %d, want 1", s.Len())
	}
	if !almostEqual(s.Points[0].V, 100, 1e-9) { // 50 ops in 0.5 s
		t.Fatalf("partial bucket rate = %v, want 100", s.Points[0].V)
	}
}

func TestSeriesAggregates(t *testing.T) {
	var s Series
	for i, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(sim.Time(i), v)
	}
	if s.Max() != 5 || s.Sum() != 14 || !almostEqual(s.Mean(), 2.8, 1e-9) {
		t.Fatalf("max=%v sum=%v mean=%v", s.Max(), s.Sum(), s.Mean())
	}
	vals := s.Values()
	if len(vals) != 5 || vals[2] != 4 {
		t.Fatalf("values = %v", vals)
	}
}

func TestRunningMatchesDirect(t *testing.T) {
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Running
	for _, x := range data {
		w.Add(x)
	}
	if w.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Sample variance with n-1: sum sq dev = 32, 32/7.
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-9) {
		t.Fatalf("variance = %v", w.Variance())
	}
	if w.Min() != 2 || w.Max() != 9 || w.N() != 8 {
		t.Fatalf("min=%v max=%v n=%v", w.Min(), w.Max(), w.N())
	}
}

// Property: Welford mean/variance agree with the two-pass formulas.
func TestRunningProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var w Running
		sum := 0.0
		for _, x := range clean {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		ssd := 0.0
		for _, x := range clean {
			ssd += (x - mean) * (x - mean)
		}
		direct := ssd / float64(len(clean)-1)
		return almostEqual(w.Mean(), mean, 1e-6*(1+math.Abs(mean))) &&
			almostEqual(w.Variance(), direct, 1e-6*(1+direct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(50); !almostEqual(got, 50.5, 1e-9) {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(99); !almostEqual(got, 99.01, 1e-9) {
		t.Fatalf("p99 = %v", got)
	}
}

func TestSampleAddAfterPercentile(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	_ = s.Percentile(50)
	s.Add(3)
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("median after re-add = %v, want 3", got)
	}
	if !almostEqual(s.Mean(), 3, 1e-9) {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.N() != 3 {
		t.Fatalf("n = %d", s.N())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap([]string{"arch", "kernel", "fs"})
	h.Set("arch", 10)
	h.Set("fs", 5)
	h.Snapshot(0)
	h.Set("kernel", 10)
	h.Snapshot(sim.Second)
	if len(h.Cells) != 2 {
		t.Fatalf("rows = %d", len(h.Cells))
	}
	if h.Cells[0][0] != 10 || h.Cells[0][2] != 5 {
		t.Fatalf("row0 = %v", h.Cells[0])
	}
	// Pending carries over unless re-set — matches sampling decayed counters.
	if h.Cells[1][1] != 10 {
		t.Fatalf("row1 = %v", h.Cells[1])
	}
	out := h.Render()
	if !strings.Contains(out, "arch") || !strings.Contains(out, "@") {
		t.Fatalf("render output unexpected:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("render lines = %d, want 3", len(lines))
	}
}

func TestHeatmapUnknownKeyIgnored(t *testing.T) {
	h := NewHeatmap([]string{"a"})
	h.Set("nope", 99)
	h.Snapshot(0)
	if h.Cells[0][0] != 0 {
		t.Fatal("unknown key leaked into grid")
	}
}
