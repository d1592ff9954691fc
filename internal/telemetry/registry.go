package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// NoRank keys cluster-wide metrics that belong to no particular MDS rank or
// client (network totals, aggregate throughput).
const NoRank = -1

// Counter is a monotonically increasing count.
//
// A nil *Registry hands out nil metrics, and updating a nil Counter, Gauge
// or Histogram does nothing: a cluster traced without metrics keeps one
// code path for every instrument it was given.
type Counter struct{ v uint64 }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a last-value metric.
type Gauge struct{ v float64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value reports the last set value.
func (g *Gauge) Value() float64 { return g.v }

// metricKey identifies one metric instance.
type metricKey struct {
	name string
	rank int
}

// Registry holds all metric instances, keyed by (name, rank). Lookups return
// stable pointers, so hot paths resolve their handles once and then update
// without map traffic.
//
// Goroutine safety, by type:
//   - Registry, Counter, Gauge, Histogram are NOT goroutine-safe. They are
//     the simulation's instruments: the DES is single-threaded by design,
//     independent engines use independent registries, and keeping these
//     types lock-free keeps Observe/Add allocation-free and branch-cheap on
//     the hottest simulated paths.
//   - AtomicCounter and ShardedHistogram (concurrent.go) ARE goroutine-safe
//     and exist for the live runtime (internal/live), where client and rank
//     goroutines record concurrently. Live code snapshots them into plain
//     Histograms for reporting; it never shares this registry across
//     goroutines without external synchronisation.
type Registry struct {
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[metricKey]*Counter{},
		gauges:   map[metricKey]*Gauge{},
		hists:    map[metricKey]*Histogram{},
	}
}

// Counter returns (creating if needed) the counter for (name, rank).
func (r *Registry) Counter(name string, rank int) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey{name, rank}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge for (name, rank).
func (r *Registry) Gauge(name string, rank int) *Gauge {
	if r == nil {
		return nil
	}
	k := metricKey{name, rank}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram for (name, rank).
func (r *Registry) Histogram(name string, rank int) *Histogram {
	if r == nil {
		return nil
	}
	k := metricKey{name, rank}
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// row is one export line, covering all three metric kinds.
type row struct {
	kind  string
	name  string
	rank  int
	value float64 // counter count or gauge value
	hist  *Histogram
}

// rows collects every metric in deterministic (name, rank, kind) order.
func (r *Registry) rows() []row {
	var out []row
	for k, c := range r.counters {
		out = append(out, row{kind: "counter", name: k.name, rank: k.rank, value: float64(c.v)})
	}
	for k, g := range r.gauges {
		out = append(out, row{kind: "gauge", name: k.name, rank: k.rank, value: g.v})
	}
	for k, h := range r.hists {
		out = append(out, row{kind: "histogram", name: k.name, rank: k.rank, hist: h})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		if out[i].rank != out[j].rank {
			return out[i].rank < out[j].rank
		}
		return out[i].kind < out[j].kind
	})
	return out
}

// fnum formats a float compactly and deterministically.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV emits every metric as one CSV row. Histogram rows carry count,
// sum, min, max, mean and interpolated percentiles; counter and gauge rows
// fill only the value column.
func (r *Registry) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "kind,name,rank,value,count,sum,min,max,mean,p50,p90,p99")
	for _, rw := range r.rows() {
		if rw.hist == nil {
			fmt.Fprintf(bw, "%s,%s,%d,%s,,,,,,,,\n", rw.kind, rw.name, rw.rank, fnum(rw.value))
			continue
		}
		h := rw.hist
		fmt.Fprintf(bw, "%s,%s,%d,,%d,%s,%s,%s,%s,%s,%s,%s\n",
			rw.kind, rw.name, rw.rank, h.N(), fnum(h.Sum()), fnum(h.Min()), fnum(h.Max()),
			fnum(h.Mean()), fnum(h.Percentile(50)), fnum(h.Percentile(90)), fnum(h.Percentile(99)))
	}
	return bw.Flush()
}

// WriteJSONL emits every metric as one JSON object per line, in the same
// deterministic order as WriteCSV.
func (r *Registry) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, rw := range r.rows() {
		if rw.hist == nil {
			fmt.Fprintf(bw, `{"kind":%q,"name":%q,"rank":%d,"value":%s}`+"\n",
				rw.kind, rw.name, rw.rank, fnum(rw.value))
			continue
		}
		h := rw.hist
		fmt.Fprintf(bw, `{"kind":%q,"name":%q,"rank":%d,"count":%d,"sum":%s,"min":%s,"max":%s,"mean":%s,"p50":%s,"p90":%s,"p99":%s}`+"\n",
			rw.kind, rw.name, rw.rank, h.N(), fnum(h.Sum()), fnum(h.Min()), fnum(h.Max()),
			fnum(h.Mean()), fnum(h.Percentile(50)), fnum(h.Percentile(90)), fnum(h.Percentile(99)))
	}
	return bw.Flush()
}
