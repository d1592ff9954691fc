package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mantle/internal/sim"
)

// Point is one sample in a time series.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only sequence of timestamped samples.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample. Timestamps are expected to be nondecreasing; callers
// sampling from the single-threaded simulator satisfy this naturally.
func (s *Series) Add(t sim.Time, v float64) { s.Points = append(s.Points, Point{t, v}) }

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Values returns the sample values in order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Max returns the largest sample value, or 0 for an empty series.
func (s *Series) Max() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Sum returns the sum of sample values.
func (s *Series) Sum() float64 {
	t := 0.0
	for _, p := range s.Points {
		t += p.V
	}
	return t
}

// Mean returns the mean sample value, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.Points))
}

// RateCounter turns discrete completions into a per-window rate series,
// e.g. metadata requests per second bucketed into 10-second windows as the
// throughput curves of Figures 4, 7 and 10 are.
type RateCounter struct {
	Window sim.Time
	series Series
	cur    int64
	curEnd sim.Time
}

// NewRateCounter creates a counter with the given bucket width.
func NewRateCounter(name string, window sim.Time) *RateCounter {
	if window <= 0 {
		panic("stats: rate window must be positive")
	}
	return &RateCounter{Window: window, series: Series{Name: name}, curEnd: window}
}

// Tick records n completions at time now.
func (r *RateCounter) Tick(now sim.Time, n int64) {
	r.flushTo(now)
	r.cur += n
}

// flushTo closes any windows that ended at or before now.
func (r *RateCounter) flushTo(now sim.Time) {
	for now >= r.curEnd {
		secs := r.Window.Seconds()
		r.series.Add(r.curEnd-r.Window, float64(r.cur)/secs)
		r.cur = 0
		r.curEnd += r.Window
	}
}

// Finish closes the bucket containing "now" and returns the completed series.
// The final partial bucket is scaled to a full-window rate.
func (r *RateCounter) Finish(now sim.Time) *Series {
	r.flushTo(now)
	if r.cur > 0 {
		elapsed := now - (r.curEnd - r.Window)
		if elapsed > 0 {
			r.series.Add(r.curEnd-r.Window, float64(r.cur)/elapsed.Seconds())
		}
		r.cur = 0
	}
	return &r.series
}

// Running computes mean, variance and standard deviation incrementally using
// Welford's algorithm, which is numerically stable for long runs.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (w *Running) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N reports the number of samples.
func (w *Running) N() int64 { return w.n }

// Mean reports the running mean.
func (w *Running) Mean() float64 { return w.mean }

// Min reports the smallest sample (0 if empty).
func (w *Running) Min() float64 { return w.min }

// Max reports the largest sample (0 if empty).
func (w *Running) Max() float64 { return w.max }

// Variance reports the sample variance (n-1 denominator).
func (w *Running) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev reports the sample standard deviation.
func (w *Running) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Sample answers exact percentiles, mean and standard deviation over the
// values added to it while keeping one count per distinct value, not every
// value. A sim client's latencies are whole virtual microseconds, so its
// hundreds of thousands of ops fall on about a thousand distinct values.
//
// Memory is O(distinct values): each costs a map slot, a key and a
// cumulative count, under 64 B with growth slack. So 10⁶ adds over 10³
// distinct values hold under 64 KiB, and an input whose every value is
// distinct costs at most 8× the 8 B per value of a slice of every value.
//
// Mean divides the sum of the values, added in arrival order, by N, and
// StdDev is Welford's (Running) fed in arrival order: the same float
// operations as a walk over a slice of every value in arrival order, so
// the same bits, but for the payload of a NaN result, which Go leaves to
// the compiler's operand order. Percentile interpolates between the
// closest ranks of the values in sort.Float64s's order (NaN first); the
// first query after an Add sorts the distinct values and caches their
// cumulative counts, and each query is then two binary searches.
//
// Values are counted by their bits (math.Float64bits), so -0 and +0 are two
// distinct values, and so are NaNs with different payloads. sort.Float64s
// leaves values that compare equal in no set order, so where such values
// meet at an order statistic a percentile answers one of them: a zero's
// sign or a NaN's payload may differ from a sort of every value, never a
// magnitude.
type Sample struct {
	counts map[uint64]int // value bits → times added
	keys   []float64      // distinct values, first-seen order until sorted
	cum    []int          // cum[i]: values at or below keys[i] once sorted
	sorted bool           // keys and cum are current
	sum    float64
	run    Running
}

// Add adds a value.
func (s *Sample) Add(v float64) {
	if s.counts == nil {
		s.counts = map[uint64]int{}
	}
	distinct := len(s.counts)
	s.counts[math.Float64bits(v)]++
	if len(s.counts) != distinct {
		s.keys = append(s.keys, v)
	}
	s.sorted = false
	s.sum += v
	s.run.Add(v)
}

// N reports the number of values.
func (s *Sample) N() int { return int(s.run.N()) }

// Mean reports the mean, or 0 when empty.
func (s *Sample) Mean() float64 {
	if s.N() == 0 {
		return 0
	}
	return s.sum / float64(s.N())
}

// StdDev reports the sample standard deviation.
func (s *Sample) StdDev() float64 { return s.run.StdDev() }

// Percentile reports the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. Empty samples report 0.
func (s *Sample) Percentile(p float64) float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.keys)
		if cap(s.cum) < len(s.keys) {
			s.cum = make([]int, len(s.keys))
		}
		s.cum = s.cum[:len(s.keys)]
		t := 0
		for i, k := range s.keys {
			t += s.counts[math.Float64bits(k)]
			s.cum[i] = t
		}
		s.sorted = true
	}
	if p <= 0 {
		return s.keys[0]
	}
	if p >= 100 {
		return s.keys[len(s.keys)-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.at(lo)
	}
	frac := rank - float64(lo)
	return s.at(lo)*(1-frac) + s.at(hi)*frac
}

// at returns the k-th smallest value, counting from 0, of a sorted sample.
func (s *Sample) at(k int) float64 { return s.keys[sort.SearchInts(s.cum, k+1)] }

// Heatmap accumulates per-key heat sampled over time — the data behind the
// paper's Figure 1 (directory hotspots during a compile).
type Heatmap struct {
	Keys    []string
	index   map[string]int
	Times   []sim.Time
	Cells   [][]float64 // Cells[t][k]
	pending map[string]float64
}

// NewHeatmap creates an empty heat map over the given ordered keys.
func NewHeatmap(keys []string) *Heatmap {
	h := &Heatmap{Keys: append([]string(nil), keys...), index: map[string]int{}, pending: map[string]float64{}}
	for i, k := range h.Keys {
		h.index[k] = i
	}
	return h
}

// Set stages the heat for key in the current sampling round.
func (h *Heatmap) Set(key string, v float64) { h.pending[key] = v }

// Snapshot closes the sampling round at time t, emitting one row.
func (h *Heatmap) Snapshot(t sim.Time) {
	row := make([]float64, len(h.Keys))
	for k, v := range h.pending {
		if i, ok := h.index[k]; ok {
			row[i] = v
		}
	}
	h.Times = append(h.Times, t)
	h.Cells = append(h.Cells, row)
}

// Render draws the heat map as ASCII, one row per key, one column per
// snapshot, intensity encoded as " .:-=+*#%@" scaled to the global maximum.
func (h *Heatmap) Render() string {
	const ramp = " .:-=+*#%@"
	max := 0.0
	for _, row := range h.Cells {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	width := 0
	for _, k := range h.Keys {
		if len(k) > width {
			width = len(k)
		}
	}
	var b strings.Builder
	for ki, k := range h.Keys {
		fmt.Fprintf(&b, "%-*s |", width, k)
		for ti := range h.Cells {
			v := h.Cells[ti][ki]
			idx := 0
			if max > 0 {
				idx = int(v / max * float64(len(ramp)-1))
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteString("|\n")
	}
	return b.String()
}
