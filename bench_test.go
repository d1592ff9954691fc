package mantle

import (
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/cluster"
	"mantle/internal/core"
	"mantle/internal/experiments"
	"mantle/internal/lua"
	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/workload"
)

// Each paper table/figure has a benchmark that regenerates it at a reduced
// scale and reports the headline quantity as a custom metric, so
// `go test -bench=.` doubles as a quick reproduction sweep. Shape checks are
// asserted (a failing reproduction fails the bench).

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Scale: 0.05}
}

func runFig(b *testing.B, id string) *experiments.Report {
	b.Helper()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.Run(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Pass() {
			b.Fatalf("%s shape checks failed:\n%s", id, rep)
		}
	}
	passed := 0
	for _, c := range rep.Checks {
		if c.Pass {
			passed++
		}
	}
	b.ReportMetric(float64(passed), "checks")
	return rep
}

// BenchmarkFig1Heatmap regenerates Figure 1 (hotspot heat map).
func BenchmarkFig1Heatmap(b *testing.B) { runFig(b, "fig1") }

// BenchmarkFig3Locality regenerates Figure 3 (locality vs distribution).
func BenchmarkFig3Locality(b *testing.B) { runFig(b, "fig3") }

// BenchmarkFig4Reproducibility regenerates Figure 4 (balancer variance).
func BenchmarkFig4Reproducibility(b *testing.B) { runFig(b, "fig4") }

// BenchmarkFig5Scaling regenerates Figure 5 (single-MDS capacity study).
func BenchmarkFig5Scaling(b *testing.B) { runFig(b, "fig5") }

// BenchmarkFig7SharedDir regenerates Figure 7 (balancers on a shared dir).
func BenchmarkFig7SharedDir(b *testing.B) { runFig(b, "fig7") }

// BenchmarkFig8Speedup regenerates Figure 8 (speedup vs #MDS).
func BenchmarkFig8Speedup(b *testing.B) { runFig(b, "fig8") }

// BenchmarkFig9Compile regenerates Figure 9 (compile speedups).
func BenchmarkFig9Compile(b *testing.B) { runFig(b, "fig9") }

// BenchmarkFig10FlashCrowd regenerates Figure 10 (flash crowds).
func BenchmarkFig10FlashCrowd(b *testing.B) { runFig(b, "fig10") }

// BenchmarkSessionCounts regenerates the §4.1 session measurements.
func BenchmarkSessionCounts(b *testing.B) { runFig(b, "sessions") }

// BenchmarkAblations runs the design-choice ablations from DESIGN.md.
func BenchmarkAblations(b *testing.B) { runFig(b, "ablation") }

// BenchmarkScaleStudy runs the §4.4 20-node robustness sweep.
func BenchmarkScaleStudy(b *testing.B) { runFig(b, "scale") }

// ---- substrate micro-benchmarks ----

// BenchmarkTable2MantleHooks measures a full Mantle decision round (the
// Table 2 environment marshalled into Lua, when + where + howmuch executed).
func BenchmarkTable2MantleHooks(b *testing.B) {
	lb, err := core.NewLuaBalancer(core.AdaptablePolicy(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := &balancer.Env{WhoAmI: 0, State: &balancer.MemState{}}
	for i := 0; i < 5; i++ {
		e.MDSs = append(e.MDSs, balancer.MDSMetrics{Load: float64(10 * (5 - i)), All: float64(10 * (5 - i))})
		e.Total += float64(10 * (5 - i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := lb.When(e)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			if _, err := lb.Where(e); err != nil {
				b.Fatal(err)
			}
			if _, err := lb.HowMuch(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLuaInterpreter measures raw script throughput (steps/op) for a
// balancer-shaped loop.
func BenchmarkLuaInterpreter(b *testing.B) {
	vm := lua.NewVM()
	chunk, err := lua.Compile("bench", `
		local total = 0
		for i = 1, 100 do
			total = total + i*i % 7
		end
		return total`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMDSCreateThroughput measures simulated metadata ops per wall
// second: one MDS, four clients, create-heavy.
func BenchmarkMDSCreateThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := cluster.DefaultConfig(1, int64(i+1))
		c, err := cluster.New(cfg, cluster.GoBalancers(func() balancer.Balancer {
			return balancer.NoBalancer{}
		}))
		if err != nil {
			b.Fatal(err)
		}
		for cl := 0; cl < 4; cl++ {
			c.AddClient(workload.SeparateDirCreates("", cl, 5000))
		}
		res := c.Run(10 * sim.Minute)
		if !res.AllDone {
			b.Fatal("did not finish")
		}
		b.ReportMetric(float64(res.TotalOps), "simops/op")
	}
}

// BenchmarkNamespaceOps measures raw namespace mutation cost.
func BenchmarkNamespaceOps(b *testing.B) {
	ns := namespace.New(10 * sim.Second)
	dir, err := ns.CreatePath("/bench", true)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 4096)
	for i := range names {
		names[i] = workloadName(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := names[i%len(names)]
		if i >= len(names) {
			ns.Remove(dir, name)
		}
		if _, err := ns.Create(dir, name, false); err != nil {
			b.Fatal(err)
		}
		ns.RecordOp(dir, name, namespace.OpIWR, sim.Time(i))
	}
}

func workloadName(i int) string {
	const digits = "0123456789abcdef"
	var buf [8]byte
	for p := 7; p >= 0; p-- {
		buf[p] = digits[i&0xf]
		i >>= 4
	}
	return string(buf[:])
}
