package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the call.
// Spans inside the program are not this benchmark's business.
type span struct {
	layer, name string
	start, end  time.Duration // since the tracer's origin
	parent      int32         // index of the enclosing span, -1 at the top
	op          int32         // op or tick the span belongs to
}

// tracer keeps spans in memory; nothing is written until the run ends. A
// nil tracer records nothing, which is how the untraced side of
// trace.overhead_frac runs the same walk.
type tracer struct {
	origin time.Time
	spans  []span
	open   int32 // innermost span still open, -1 when none
}

func newTracer() *tracer { return &tracer{origin: time.Now(), open: -1} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(layer, name string, op int) int32 {
	if t == nil {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: layer, name: name, parent: t.open, op: int32(op)})
	t.open = i
	t.spans[i].start = time.Since(t.origin)
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.end = time.Since(t.origin)
	t.open = s.parent
}

// selfTimes sums, per "layer.name", each span's duration minus the part its
// children cover, and the number of spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	for i := range t.spans {
		s := &t.spans[i]
		k := s.layer + "." + s.name
		self[k] += s.end - s.start
		count[k]++
		if s.parent >= 0 {
			p := &t.spans[s.parent]
			self[p.layer+"."+p.name] -= s.end - s.start
		}
	}
	return self, count
}

// printSelfTimes lists where the walked ops' and ticks' time went.
func (t *tracer) printSelfTimes() {
	self, count := t.selfTimes()
	keys := make([]string, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return self[keys[i]] > self[keys[j]] })
	fmt.Printf("%-28s %10s %12s %12s\n", "span (layer.name)", "count", "self_ms", "self_ns/span")
	for _, k := range keys {
		fmt.Printf("%-28s %10d %12.3f %12.1f\n", k, count[k],
			float64(self[k])/float64(time.Millisecond), float64(self[k])/float64(count[k]))
	}
}

// chromeOps caps how many ops' and ticks' spans are written out: the file is
// for looking at, and a viewer does not open 350 000 events gladly. Self
// times use every span.
const chromeOps = 5000

// writeChrome writes the spans as Chrome trace events ("X" complete events,
// microsecond timestamps), one thread row per top-level span kind.
func (t *tracer) writeChrome(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	fmt.Fprint(w, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"benchmark layer ladder"}}`)
	tids := map[string]int{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.op >= chromeOps {
			continue
		}
		top := s
		for top.parent >= 0 {
			top = &t.spans[top.parent]
		}
		tid, ok := tids[top.name]
		if !ok {
			tid = len(tids) + 1
			tids[top.name] = tid
			fmt.Fprintf(w, `,{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, top.name)
		}
		fmt.Fprintf(w, `,{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"span":%d,"parent":%d}}`,
			s.name, s.layer, tid,
			float64(s.start)/float64(time.Microsecond), float64(s.end-s.start)/float64(time.Microsecond),
			s.op, i, s.parent)
	}
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}
