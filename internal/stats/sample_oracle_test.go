package stats

import (
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"testing"
)

// sliceSample is the Sample that kept every value: the oracle the
// value-count Sample must answer like. It sorts a copy for percentiles, so
// Mean and StdDev always walk the values in arrival order (a Sample that
// sorted its only slice in place summed in sorted order after a query).
type sliceSample struct {
	vals   []float64
	sorted []float64
}

func (s *sliceSample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = nil
}

func (s *sliceSample) N() int { return len(s.vals) }

func (s *sliceSample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s.vals {
		t += v
	}
	return t / float64(len(s.vals))
}

func (s *sliceSample) StdDev() float64 {
	var w Running
	for _, v := range s.vals {
		w.Add(v)
	}
	return w.StdDev()
}

func (s *sliceSample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if s.sorted == nil {
		s.sorted = append([]float64(nil), s.vals...)
		sort.Float64s(s.sorted)
	}
	if p <= 0 {
		return s.sorted[0]
	}
	if p >= 100 {
		return s.sorted[len(s.sorted)-1]
	}
	rank := p / 100 * float64(len(s.sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.sorted[lo]
	}
	frac := rank - float64(lo)
	return s.sorted[lo]*(1-frac) + s.sorted[hi]*frac
}

// samePercentile reports whether two percentile answers agree: the same
// bits, or two NaNs, or two zeros. Values that compare equal (±0, NaN
// payloads) sit in no set order after sort.Float64s, so which of them an
// order statistic lands on is the sort's choice, not Sample's.
func samePercentile(a, b float64) bool {
	return sameFloat(a, b) || (a == 0 && b == 0)
}

var probePercentiles = []float64{0, 0.1, 50, 99, 99.9, 100, -3, 250, 25, 33.3, 66.6, 90, 95}

// sameFloat reports whether two floats have the same bits or are both
// NaN. Go leaves the payload of a NaN that arithmetic propagates to the
// compiler's choice of operand order, so two walks of the same sum may
// end in NaNs with different bits.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkSample compares every answer of got against the oracle want: N, and
// Mean and StdDev bit for bit (sameFloat), percentiles by samePercentile.
func checkSample(t *testing.T, got *Sample, want *sliceSample) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N = %d, oracle %d", got.N(), want.N())
	}
	if g, w := got.Mean(), want.Mean(); !sameFloat(g, w) {
		t.Fatalf("Mean = %v (%#x), oracle %v (%#x)", g, math.Float64bits(g), w, math.Float64bits(w))
	}
	if g, w := got.StdDev(), want.StdDev(); !sameFloat(g, w) {
		t.Fatalf("StdDev = %v (%#x), oracle %v (%#x)", g, math.Float64bits(g), w, math.Float64bits(w))
	}
	for _, p := range probePercentiles {
		if g, w := got.Percentile(p), want.Percentile(p); !samePercentile(g, w) {
			t.Fatalf("Percentile(%v) = %v, oracle %v (n=%d)", p, g, w, want.N())
		}
	}
}

func TestSampleMatchesSliceOracle(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		vals []float64
	}{
		{"empty", nil},
		{"one value", []float64{4.2}},
		{"all equal", []float64{7, 7, 7, 7, 7}},
		{"two values", []float64{3, 1}},
		{"NaN", []float64{1, nan, 2, nan}},
		{"NaN payloads", []float64{math.Float64frombits(0x7ff8000000000001), 5, math.Float64frombits(0x7ff8000000000002)}},
		{"only NaN", []float64{nan}},
		{"infinities", []float64{inf, -inf, 0, 1, inf}},
		{"signed zeros", []float64{0, negZero, negZero, 0, 1, -1}},
		{"only -0", []float64{negZero, negZero}},
		{"latencies", []float64{0.012, 0.013, 0.012, 0.5, 0.012, 1.25, 0.013, 0.014}},
		{"huge and tiny", []float64{1e308, 1e308, 5e-324, -1e308}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got Sample
			var want sliceSample
			checkSample(t, &got, &want)
			for _, v := range c.vals {
				got.Add(v)
				want.Add(v)
				checkSample(t, &got, &want)
			}
		})
	}
}

// TestSampleManyRepeats adds thousands of values that repeat, with the
// special values mixed in, querying every few hundred adds.
func TestSampleManyRepeats(t *testing.T) {
	var got Sample
	var want sliceSample
	for i := 0; i < 6_000; i++ {
		v := float64((i*7919)%1301) * 0.001
		if i%997 == 0 {
			v = samplePalette[i%len(samplePalette)]
		}
		got.Add(v)
		want.Add(v)
		if i%500 == 0 {
			checkSample(t, &got, &want)
		}
	}
	checkSample(t, &got, &want)
}

// TestSampleMeanIgnoresQueries pins that a query does not reorder the sum:
// Mean is the arrival-order sum whether or not Percentile ran before it.
func TestSampleMeanIgnoresQueries(t *testing.T) {
	vals := []float64{1e16, 1, -1e16, 1, 0.1, 3}
	var queried, plain Sample
	for _, v := range vals {
		queried.Add(v)
		plain.Add(v)
		_ = queried.Percentile(50)
	}
	if math.Float64bits(queried.Mean()) != math.Float64bits(plain.Mean()) ||
		math.Float64bits(queried.StdDev()) != math.Float64bits(plain.StdDev()) {
		t.Fatalf("queried mean/sd %v/%v, plain %v/%v", queried.Mean(), queried.StdDev(), plain.Mean(), plain.StdDev())
	}
}

// samplePalette gives the fuzzer values that repeat, so counts above one
// and every special value are reached without guessing eight bytes.
var samplePalette = []float64{
	0, math.Copysign(0, -1), 1, 2.5, 3, -7, 0.001, 0.012, 0.013, 12.345,
	5e-324, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
}

// playSample runs one op stream on a Sample and the oracle. Each op is a
// byte: low two bits 0 add a palette value, 1 add a palette value 16·b+1
// times, b the next byte (so a short input builds large counts), 2 add the
// next eight bytes as a float64, 3 query a percentile (p from the next
// byte) and compare every answer.
func playSample(t *testing.T, data []byte) {
	var got Sample
	var want sliceSample
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		switch op & 3 {
		case 0, 1:
			v := samplePalette[int(op>>2)%len(samplePalette)]
			times := 1
			if op&3 == 1 && len(data) > 0 {
				times += 16 * int(data[0])
				data = data[1:]
			}
			for ; times > 0; times-- {
				got.Add(v)
				want.Add(v)
			}
		case 2:
			var b [8]byte
			data = data[copy(b[:], data):]
			v := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			got.Add(v)
			want.Add(v)
		case 3:
			p := float64(op>>2) * 1.7
			if len(data) > 0 {
				p = float64(data[0])/2 - 10
				data = data[1:]
			}
			if g, w := got.Percentile(p), want.Percentile(p); !samePercentile(g, w) {
				t.Fatalf("Percentile(%v) = %v, oracle %v (n=%d)", p, g, w, want.N())
			}
			checkSample(t, &got, &want)
		}
	}
	checkSample(t, &got, &want)
}

func FuzzSampleDifferential(f *testing.F) {
	f.Add([]byte{0, 4, 8, 3, 50})
	f.Add([]byte{0, 4, 0, 4, 0, 3, 100, 60, 61, 3, 200})
	f.Add([]byte{4, 5, 3, 120, 4, 5, 3, 120, 64, 68, 72, 76, 3, 219})
	f.Add([]byte{2, 1, 2, 3, 4, 5, 6, 7, 8, 2, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 3, 20})
	f.Add([]byte{60, 56, 52, 48, 44, 40, 36, 32, 28, 24, 20, 16, 12, 8, 4, 0, 3, 0, 3, 255})
	f.Add([]byte{9, 127, 3, 100, 13, 255, 17, 0, 3, 1, 9, 200, 3, 199})
	f.Fuzz(playSample)
}

// TestSampleRetainedBytes pins the memory bound the doc comment states:
// 10⁶ adds over 10³ distinct values retain at most 64 KiB, and an input
// whose every value is distinct at most 8× the 8 B per value of a slice.
// The first holds before a query too. Eight samples are built side by
// side and the heap growth is shared out, so what else the process
// allocates meanwhile moves a reading little.
func TestSampleRetainedBytes(t *testing.T) {
	retained := func(n, distinct int, query bool) uint64 {
		const samples = 8
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		ss := make([]Sample, samples)
		for i := 0; i < n; i++ {
			for j := range ss {
				ss[j].Add(float64(i%distinct) * 0.001)
			}
		}
		for j := range ss {
			if query {
				_ = ss[j].Percentile(99)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(ss)
		if m1.HeapAlloc < m0.HeapAlloc {
			return 0
		}
		return (m1.HeapAlloc - m0.HeapAlloc) / samples
	}
	for _, query := range []bool{false, true} {
		got := retained(1_000_000+7, 1_000, query)
		t.Logf("10⁶ adds over 10³ values, queried %v: %d B", query, got)
		if got > 64<<10 {
			t.Errorf("10⁶ adds over 10³ values, queried %v, retain %d B, want ≤ %d", query, got, 64<<10)
		}
	}
	for _, n := range []int{30_000, 200_000} {
		got := retained(n, n, true)
		t.Logf("%d distinct values: %.1f B/value", n, float64(got)/float64(n))
		if got > uint64(8*8*n) {
			t.Errorf("%d distinct values retain %d B, want ≤ %d (8 B/value × 8)", n, got, 8*8*n)
		}
	}
}
