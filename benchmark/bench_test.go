package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"mantle/internal/live"
	"mantle/internal/sim"
)

// tiny is every workload at a size that finishes in about a second.
func tiny() sizes {
	return sizes{
		compileFiles:   40,
		tickRanks:      8,
		tickTreeDirs:   2,
		tickTreeFiles:  200,
		tickFiles:      20,
		tickVirtual:    3 * sim.Second,
		liveDirs:       64,
		liveWindow:     200 * time.Millisecond,
		createRate:     2000,
		hotReadRate:    2000,
		ladderOps:      2000,
		ladderTreeSize: 2000,
		idleWindow:     100 * time.Millisecond,
		ladderRound:    200 * time.Microsecond,
		idleTicks:      1,
	}
}

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted holds a run's result to the declaration: every declared
// metric once, with its declared unit and a finite value, and nothing else.
func checkEmitted(t *testing.T, res *result, want []declaredMetric) {
	t.Helper()
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
		}
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared but not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: value %v is not finite", m.Name, got.Value)
		}
	}
}

func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	d := readDeclared(t)
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", d.Paths)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, dw := range d.Workloads {
		w := &workloads[i]
		if dw.Name != w.name || dw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, dw.Name, dw.Why, w.name, w.why)
		}
		if !nameRE.MatchString(dw.Name) {
			t.Errorf("workload name %q is outside the contract's alphabet", dw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(w, 1, 0, tiny())
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, d.EndToEnd)
			for _, m := range d.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end value %v must be positive", m.Name, res.Metrics[m.Name].Value)
				}
			}
			out := filepath.Join(t.TempDir(), "trace.json")
			res, err = runTraced(w, 1, tiny(), out)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, d.PerLayer)
			raw, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &trace); err != nil {
				t.Fatalf("Chrome trace does not parse: %v", err)
			}
			if len(trace.TraceEvents) < tiny().ladderOps {
				t.Errorf("Chrome trace has %d events for %d walked ops", len(trace.TraceEvents), tiny().ladderOps)
			}
		})
	}
}

// TestFloorModelLeavesNoModelledWait reflects over the cost model so that a
// service time added to mds.Config later is either floored by name or fails
// here, instead of quietly putting a sleep back into the live workloads.
func TestFloorModelLeavesNoModelledWait(t *testing.T) {
	cfg := live.DefaultConfig(8, 1)
	floorModel(&cfg)
	v := reflect.ValueOf(cfg.MDS)
	svc := 0
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if strings.HasSuffix(name, "Svc") {
			svc++
			if got := sim.Time(v.Field(i).Int()); got != sim.Microsecond {
				t.Errorf("mds.Config.%s = %v after floorModel, want 1µs", name, got)
			}
		}
	}
	if svc < 10 {
		t.Errorf("found %d *Svc fields in mds.Config; the name pattern no longer matches the cost model", svc)
	}
	zero := map[string]float64{
		"MDS.ReaddirPerEntryNs":   float64(cfg.MDS.ReaddirPerEntryNs),
		"MDS.SvcJitterPct":        cfg.MDS.SvcJitterPct,
		"MDS.SharedDirPenaltyUS":  float64(cfg.MDS.SharedDirPenaltyUS),
		"MDS.CrossBoundPenaltyUS": float64(cfg.MDS.CrossBoundPenaltyUS),
		"MDS.CacheCapacity":       float64(cfg.MDS.CacheCapacity),
		"Net.Latency":             float64(cfg.Net.Latency),
		"Net.Jitter":              float64(cfg.Net.Jitter),
		"Rados.WriteLatency":      float64(cfg.Rados.WriteLatency),
		"Rados.ReadLatency":       float64(cfg.Rados.ReadLatency),
		"Rados.Jitter":            float64(cfg.Rados.Jitter),
		"Rados.BytePerUS":         float64(cfg.Rados.BytePerUS),
	}
	for name, got := range zero {
		if got != 0 {
			t.Errorf("%s = %v after floorModel, want 0", name, got)
		}
	}
	if cfg.MailboxDepth != 4096 || cfg.AdmitQueue != 4096 {
		t.Errorf("admission limits %d/%d, want 4096/4096", cfg.MailboxDepth, cfg.AdmitQueue)
	}
}
