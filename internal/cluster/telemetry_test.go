package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mantle/internal/core"
	"mantle/internal/sim"
	"mantle/internal/telemetry"
	"mantle/internal/workload"
)

// mustPolicy fetches a built-in Mantle policy by name.
func mustPolicy(t *testing.T, name string) core.Policy {
	t.Helper()
	p, ok := core.Policies()[name]
	if !ok {
		t.Fatalf("no built-in policy %q", name)
	}
	return p
}

// runWithTelemetry executes a small shared-directory run with every
// telemetry layer enabled and returns the run result plus the serialised
// artefacts.
func runWithTelemetry(t *testing.T, seed int64) (*Result, []byte, []byte, []byte) {
	t.Helper()
	cfg := DefaultConfig(3, seed)
	cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
	cfg.MDS.RebalanceDelay = cfg.MDS.HeartbeatInterval / 10
	cfg.ThroughputWindow = cfg.MDS.HeartbeatInterval
	cfg.Client.StartJitter = 2 * sim.Millisecond
	c, err := New(cfg, LuaBalancers(mustPolicy(t, "greedy_spill")))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTelemetry(telemetry.Options{Metrics: true, Trace: true, FlightRecorder: true})
	for i := 0; i < 4; i++ {
		c.AddClient(workload.SharedDirCreates("/shared", i, 1500))
	}
	res := c.Run(5 * sim.Minute)
	if !res.AllDone {
		t.Fatal("run did not finish")
	}
	var flightBuf, metricsBuf, traceBuf bytes.Buffer
	if err := c.Tel.Recorder.WriteJSONL(&flightBuf); err != nil {
		t.Fatal(err)
	}
	if err := c.Tel.Reg.WriteCSV(&metricsBuf); err != nil {
		t.Fatal(err)
	}
	if err := c.Tel.Tracer.WriteJSON(&traceBuf); err != nil {
		t.Fatal(err)
	}
	return res, flightBuf.Bytes(), metricsBuf.Bytes(), traceBuf.Bytes()
}

// TestTelemetryDeterminism is the regression gate for the subsystem's core
// promise: telemetry is a pure function of the (seeded) simulation, so
// same-seed runs serialise to byte-identical artefacts, and different seeds
// visibly differ.
func TestTelemetryDeterminism(t *testing.T) {
	resA, flightA, metricsA, traceA := runWithTelemetry(t, 42)
	resB, flightB, metricsB, traceB := runWithTelemetry(t, 42)
	if !bytes.Equal(flightA, flightB) {
		t.Error("same seed produced different flight-recorder logs")
	}
	if !bytes.Equal(metricsA, metricsB) {
		t.Error("same seed produced different metrics CSV")
	}
	if !bytes.Equal(traceA, traceB) {
		t.Error("same seed produced different trace JSON")
	}
	if resA.TotalOps != resB.TotalOps || resA.Makespan != resB.Makespan {
		t.Errorf("same seed diverged: ops %d vs %d, makespan %v vs %v",
			resA.TotalOps, resB.TotalOps, resA.Makespan, resB.Makespan)
	}
	if len(flightA) == 0 {
		t.Fatal("flight recorder captured nothing; workload too small for a heartbeat")
	}

	_, flightC, _, _ := runWithTelemetry(t, 43)
	if bytes.Equal(flightA, flightC) {
		t.Error("different seeds produced identical flight logs; recorder is not capturing the run")
	}
}

// TestTelemetryIsPassive checks the bit-identical-when-disabled guarantee:
// a telemetry-enabled run must produce exactly the aggregates of a plain
// run with the same seed — recording never perturbs the simulation.
func TestTelemetryIsPassive(t *testing.T) {
	run := func(enable bool) *Result {
		cfg := DefaultConfig(3, 11)
		cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
		cfg.MDS.RebalanceDelay = cfg.MDS.HeartbeatInterval / 10
		cfg.Client.StartJitter = 2 * sim.Millisecond
		c, err := New(cfg, LuaBalancers(mustPolicy(t, "greedy_spill")))
		if err != nil {
			t.Fatal(err)
		}
		if enable {
			c.EnableTelemetry(telemetry.Options{Metrics: true, Trace: true, TraceNet: true, FlightRecorder: true})
		}
		for i := 0; i < 3; i++ {
			c.AddClient(workload.SharedDirCreates("/shared", i, 1000))
		}
		return c.Run(5 * sim.Minute)
	}
	plain := run(false)
	telem := run(true)
	if plain.TotalOps != telem.TotalOps || plain.Makespan != telem.Makespan ||
		plain.Duration != telem.Duration || plain.TotalExports != telem.TotalExports ||
		plain.TotalForwards != telem.TotalForwards || plain.JournalEntries != telem.JournalEntries {
		t.Errorf("telemetry perturbed the run:\nplain: ops=%d makespan=%v exports=%d forwards=%d journal=%d\ntelem: ops=%d makespan=%v exports=%d forwards=%d journal=%d",
			plain.TotalOps, plain.Makespan, plain.TotalExports, plain.TotalForwards, plain.JournalEntries,
			telem.TotalOps, telem.Makespan, telem.TotalExports, telem.TotalForwards, telem.JournalEntries)
	}
	for i := range plain.ClientOps {
		if plain.ClientOps[i] != telem.ClientOps[i] || plain.ClientDone[i] != telem.ClientDone[i] {
			t.Errorf("client %d diverged under telemetry: ops %d vs %d, done %v vs %v",
				i, plain.ClientOps[i], telem.ClientOps[i], plain.ClientDone[i], telem.ClientDone[i])
		}
	}
}

// TestTelemetryArtefactsWellFormed exercises the export formats end to end
// on a real run: CSV header shape, JSONL records, trace JSON structure, and
// the flight log round-tripping through ReadFlightLog.
func TestTelemetryArtefactsWellFormed(t *testing.T) {
	_, flight, metrics, trace := runWithTelemetry(t, 7)

	records, err := telemetry.ReadFlightLog(bytes.NewReader(flight))
	if err != nil {
		t.Fatalf("flight log unreadable: %v", err)
	}
	if len(records) == 0 {
		t.Fatal("no heartbeat records")
	}
	for _, r := range records {
		if r.Policy != "greedy_spill" {
			t.Fatalf("record carries wrong policy %q", r.Policy)
		}
		if len(r.Env.MDSs) != 3 {
			t.Fatalf("record env has %d ranks, want 3", len(r.Env.MDSs))
		}
	}

	lines := bytes.Split(bytes.TrimSpace(metrics), []byte("\n"))
	if string(lines[0]) != "kind,name,rank,value,count,sum,min,max,mean,p50,p90,p99" {
		t.Fatalf("metrics CSV header changed: %s", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("suspiciously few metric rows: %d", len(lines))
	}
	wantMetrics := []string{"mds.served", "mds.service_us", "client.latency_us", "net.delivered", "rados.writes", "cluster.window_tput"}
	for _, name := range wantMetrics {
		if !bytes.Contains(metrics, []byte(name)) {
			t.Errorf("metrics CSV missing %s", name)
		}
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 100 {
		t.Fatalf("trace has only %d events", len(doc.TraceEvents))
	}
}

// TestTraceWithoutMetrics: tracing and the flight recorder work with the
// metrics registry off. The network, object store, MDS and clients all take
// their instruments from a nil registry, and a nil instrument records
// nothing; before that, SetTelemetry dereferenced the nil registry.
func TestTraceWithoutMetrics(t *testing.T) {
	run := func(opts *telemetry.Options) (*Result, *telemetry.Telemetry) {
		cfg := DefaultConfig(3, 5)
		cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
		c, err := New(cfg, LuaBalancers(mustPolicy(t, "greedy_spill")))
		if err != nil {
			t.Fatal(err)
		}
		var tel *telemetry.Telemetry
		if opts != nil {
			tel = c.EnableTelemetry(*opts)
		}
		for i := 0; i < 2; i++ {
			c.AddClient(workload.Compile(workload.CompileConfig{
				Root: fmt.Sprintf("/src%d", i), FilesPerDir: 40, HeaderFiles: 20, Seed: int64(i),
			}))
		}
		return c.Run(10 * sim.Minute), tel
	}
	plain, _ := run(nil)
	res, tel := run(&telemetry.Options{Trace: true, TraceNet: true, FlightRecorder: true})
	if !res.AllDone || res.TotalOps != plain.TotalOps || res.Makespan != plain.Makespan {
		t.Fatalf("traced run: done %v, ops %d makespan %v; plain ops %d makespan %v",
			res.AllDone, res.TotalOps, res.Makespan, plain.TotalOps, plain.Makespan)
	}
	if tel.Reg != nil {
		t.Fatal("metrics registry built although Metrics is off")
	}
	var trace bytes.Buffer
	if err := tel.Tracer.WriteJSON(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil || len(doc.TraceEvents) < 100 {
		t.Fatalf("trace: %d events, err %v", len(doc.TraceEvents), err)
	}
}
