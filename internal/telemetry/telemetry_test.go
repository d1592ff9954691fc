package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistryDeterministicExport(t *testing.T) {
	build := func(order []int) *Registry {
		r := NewRegistry()
		for _, i := range order {
			r.Counter("mds.forwards", i).Add(uint64(i + 1))
			r.Gauge("mds.cpu_pct", i).Set(float64(i) * 10)
			r.Histogram("mds.service_us", i).Observe(float64(100 * (i + 1)))
		}
		r.Counter("net.sent", NoRank).Add(42)
		return r
	}
	var a, b bytes.Buffer
	if err := build([]int{2, 0, 1}).WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := build([]int{0, 1, 2}).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("CSV export depends on insertion order:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "counter,net.sent,-1,42") {
		t.Errorf("missing NoRank counter row in:\n%s", a.String())
	}
	var j bytes.Buffer
	if err := build([]int{1, 2, 0}).WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(j.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
	}
}

func TestRegistryHandleStability(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x", 0)
	c.Add(3)
	if r.Counter("x", 0) != c || r.Counter("x", 0).Value() != 3 {
		t.Fatal("Counter must return a stable handle")
	}
	if r.Counter("x", 1) == c {
		t.Fatal("distinct ranks must get distinct counters")
	}
	h := r.Histogram("y", 2)
	h.Observe(5)
	if r.Histogram("y", 2).N() != 1 {
		t.Fatal("Histogram must return a stable handle")
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer()
	tr.RegisterProcess(PIDMDS, "mds")
	tr.RegisterProcess(PIDClients, "clients")
	tr.Complete(PIDMDS, 0, "mds", `serve create "q"`, 100, 50,
		Arg{"path", `/a/b "c"`}, Arg{"trace", int64(7)}, Arg{"load", 1.5})
	tr.Instant(PIDMDS, 1, "migration", "export /hot -> mds.2", 200)
	tr.CounterEvent(PIDMDS, 0, "balancer", "load", 300, Arg{"load", 12.25})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 process_name metadata + 3 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5:\n%s", len(doc.TraceEvents), buf.String())
	}
	if doc.TraceEvents[0]["ph"] != "M" {
		t.Errorf("metadata events must come first, got %v", doc.TraceEvents[0])
	}
	x := doc.TraceEvents[2]
	if x["ph"] != "X" || x["ts"] != float64(100) || x["dur"] != float64(50) {
		t.Errorf("complete event mangled: %v", x)
	}
	args := x["args"].(map[string]any)
	if args["path"] != `/a/b "c"` || args["trace"] != float64(7) {
		t.Errorf("args mangled: %v", args)
	}
}

func TestFlightLogRoundTrip(t *testing.T) {
	f := &FlightRecorder{}
	f.Record(HeartbeatRecord{
		TUS: 2_100_000, Rank: 0, Policy: "greedy_spill",
		Env: EnvRecord{
			WhoAmI: 0, Total: 30, AuthMetaLoad: 20, AllMetaLoad: 22,
			MDSs: []RankMetrics{{Auth: 20, All: 22, CPU: 55, Load: 20}, {Load: 10}},
		},
		State: "1", When: true,
		Targets:   []Target{{Rank: 1, Load: 10}},
		Selectors: []string{"big_first"},
		Decisions: []Decision{{Path: "/shared", Dest: 1, Load: 9.5, Nodes: 1200}},
	})
	f.Record(HeartbeatRecord{TUS: 2_150_000, Rank: 1, Policy: "greedy_spill",
		Env: EnvRecord{WhoAmI: 1, MDSs: []RankMetrics{{}, {}}}})
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip lost records: %d", len(got))
	}
	if got[0].Policy != "greedy_spill" || !got[0].When || got[0].Targets[0].Rank != 1 ||
		got[0].Decisions[0].Path != "/shared" || got[0].State != "1" {
		t.Fatalf("round trip mangled record: %+v", got[0])
	}
	// Serialisation must be byte-stable.
	var buf2 bytes.Buffer
	if err := f.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteJSONL is not deterministic")
	}
}

func TestFlightTrace(t *testing.T) {
	records := []HeartbeatRecord{{
		TUS: 1000, Rank: 0, Policy: "p", When: true,
		Env:       EnvRecord{WhoAmI: 0, Total: 12, MDSs: []RankMetrics{{Load: 12}}},
		Decisions: []Decision{{Path: "/hot", Dest: 1, Load: 3, Nodes: 10}},
	}}
	tr := FlightTrace(records)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	// process_name + counter + heartbeat instant + decision instant.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4:\n%s", len(doc.TraceEvents), buf.String())
	}
}

// TestNilRegistryHandsOutNoOps: with metrics off the registry is nil; the
// instruments it hands out are nil, and updating them does nothing.
func TestNilRegistryHandsOutNoOps(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("c", 0), r.Gauge("g", 0), r.Histogram("h", 0)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out %p %p %p", c, g, h)
	}
	c.Add(1)
	g.Set(1)
	h.Observe(1)
}
