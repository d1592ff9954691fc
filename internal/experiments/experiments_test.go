package experiments

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// smallOpts keeps experiment tests quick while still exercising the full
// pipeline (the CLI default is scale 0.1; CI-grade runs use 0.05).
func smallOpts() Options { return Options{Seed: 1, Scale: 0.05} }

// seqSweep is the sequential RunAll at smallOpts, run once per test process:
// the per-figure tests read their reports from it, and the RunAllParallel
// tests compare against it instead of sweeping again.
var seqSweep struct {
	once    sync.Once
	reports []*Report
	out     []byte // what the sweep streamed to Out
}

func sequentialSweep() ([]*Report, []byte) {
	seqSweep.once.Do(func() {
		var buf bytes.Buffer
		o := smallOpts()
		o.Out = &buf
		seqSweep.reports = RunAll(o)
		seqSweep.out = buf.Bytes()
	})
	return seqSweep.reports, seqSweep.out
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != 11 {
		t.Fatalf("ids = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", smallOpts()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestReportPlumbing(t *testing.T) {
	var sb strings.Builder
	r := newReport("x", "test", Options{Out: &sb, Seed: 1, Scale: 1})
	r.Printf("hello %d\n", 42)
	r.Check("good", true, "fine")
	r.Check("bad", false, "broken %s", "here")
	if r.Pass() {
		t.Fatal("failing check not reflected")
	}
	out := r.String()
	for _, want := range []string{"hello 42", "[PASS] good", "[FAIL] bad: broken here"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if sb.String() != out {
		t.Fatal("Out writer diverges from String()")
	}
}

// Each experiment must pass its shape checks at test scale. These are the
// repository's core reproduction claims, so they run in CI via go test.

func runExperiment(t *testing.T, id string) {
	t.Helper()
	reports, _ := sequentialSweep()
	for _, rep := range reports {
		if rep.ID != id {
			continue
		}
		if !rep.Pass() {
			t.Fatalf("%s failed shape checks:\n%s", id, rep)
		}
		return
	}
	t.Fatalf("%s: no report in the sweep", id)
}

func TestFig1(t *testing.T)      { runExperiment(t, "fig1") }
func TestFig3(t *testing.T)      { runExperiment(t, "fig3") }
func TestFig4(t *testing.T)      { runExperiment(t, "fig4") }
func TestFig5(t *testing.T)      { runExperiment(t, "fig5") }
func TestFig7(t *testing.T)      { runExperiment(t, "fig7") }
func TestFig8(t *testing.T)      { runExperiment(t, "fig8") }
func TestFig9(t *testing.T)      { runExperiment(t, "fig9") }
func TestFig10(t *testing.T)     { runExperiment(t, "fig10") }
func TestSessions(t *testing.T)  { runExperiment(t, "sessions") }
func TestAblations(t *testing.T) { runExperiment(t, "ablation") }
func TestScale(t *testing.T)     { runExperiment(t, "scale") }

func TestScaleClampsFiles(t *testing.T) {
	o := Options{Scale: 0.0001}
	if got := o.files(100_000); got != 500 {
		t.Fatalf("files = %d, want clamp to 500", got)
	}
	o = Options{Scale: 1}
	if got := o.files(100_000); got != 100_000 {
		t.Fatalf("files = %d", got)
	}
}

// TestRejectsBadScale: a scale that is not a positive number is refused
// before any experiment runs, by Run for one id and by RunAllParallel for
// the whole sweep at either worker count, and nothing is written.
func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN()} {
		var buf bytes.Buffer
		o := Options{Seed: 1, Scale: scale, Out: &buf}
		if _, err := Run("fig1", o); !errors.Is(err, ErrBadScale) {
			t.Errorf("Run at scale %g: err = %v, want ErrBadScale", scale, err)
		}
		for _, workers := range []int{1, 4} {
			if _, err := RunAllParallel(o, workers); !errors.Is(err, ErrBadScale) {
				t.Errorf("RunAllParallel(%d) at scale %g: err = %v, want ErrBadScale", workers, scale, err)
			}
		}
		if buf.Len() != 0 {
			t.Errorf("scale %g: wrote %q", scale, buf.String())
		}
	}
}

func TestPctDelta(t *testing.T) {
	if got := pctDelta(100, 80); got < 24.9 || got > 25.1 {
		t.Fatalf("pctDelta = %v", got) // 80 is 25% faster than 100
	}
	if pctDelta(0, 50) != 0 || pctDelta(50, 0) != 0 {
		t.Fatal("degenerate inputs must yield 0")
	}
}

// TestReportsDeterministic: the same seed must reproduce an experiment's
// rendered report byte-for-byte — the property the hard-coded CephFS
// balancer lacks (Figure 4) and this simulator guarantees per seed. One side
// is the cached sweep's report.
func TestReportsDeterministic(t *testing.T) {
	reports, _ := sequentialSweep()
	byID := map[string]*Report{}
	for _, r := range reports {
		byID[r.ID] = r
	}
	for _, id := range []string{"fig7", "fig8"} {
		a := byID[id]
		b, err := Run(id, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s not deterministic across identical runs", id)
		}
	}
}

// TestDesignIndexCoversAllExperiments keeps DESIGN.md's per-experiment index
// in sync with the registry: every runnable id must be documented.
func TestDesignIndexCoversAllExperiments(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Skipf("DESIGN.md unavailable: %v", err)
	}
	text := string(data)
	for _, id := range IDs() {
		if !strings.Contains(text, "| "+id+" ") {
			t.Errorf("experiment %q missing from DESIGN.md's per-experiment index", id)
		}
	}
}
