package telemetry

import "math"

// numBuckets covers (2^-1, 2^63] with power-of-two bounds; together with the
// zero bucket that spans every non-negative float64 a simulation produces
// (microsecond latencies, queue depths, loads).
const numBuckets = 64

// Histogram is a log-bucketed histogram: bucket i counts observations v with
// 2^(i-1) < v <= 2^i, and bucket 0 counts v <= 1 (including zero and
// negatives, which are clamped). Exact count, sum, min and max are kept
// alongside the buckets, so means are exact and percentiles are bucket-
// interpolated. Observations are allocation-free.
type Histogram struct {
	counts [numBuckets]uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// bucketOf maps a value to its bucket index using exact float decomposition
// (no transcendental math, so results are identical on every platform).
func bucketOf(v float64) int {
	if v <= 1 || math.IsNaN(v) {
		return 0
	}
	if math.IsInf(v, 1) {
		return numBuckets - 1
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	b := exp
	if frac == 0.5 { // exact power of two: 2^(exp-1)
		b = exp - 1
	}
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// bucketBounds reports the (lower, upper] value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// Observe records one value (nothing, on a nil histogram).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// N reports the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Sum reports the exact sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Min reports the smallest observation (0 if empty).
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observation (0 if empty).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean reports the exact arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Percentile estimates the p-th percentile (p in [0, 100]) by locating the
// bucket holding the target rank and interpolating linearly within it. The
// estimate is clamped to the exact observed [min, max].
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	target := p / 100 * float64(h.n)
	cum := 0.0
	for i := 0; i < numBuckets; i++ {
		c := float64(h.counts[i])
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := bucketBounds(i)
			v := lo + (hi-lo)*(target-cum)/c
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// Merge folds o's observations into h. Percentiles of the merged histogram
// are identical to observing both streams into one histogram.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
}
