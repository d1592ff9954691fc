package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mantle/internal/balancer"
	"mantle/internal/cluster"
	"mantle/internal/core"
	"mantle/internal/live"
	"mantle/internal/lua"
	"mantle/internal/mds"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/replica"
	"mantle/internal/sim"
	"mantle/internal/simnet"
	"mantle/internal/telemetry"
	"mantle/internal/workload"
)

// The layer ladder: each layer's public functions called directly, on one
// goroutine, on inputs replayed from the workload's own seeded op stream.
// It gives the *_ns and *_us per-layer metrics, and — with a tracer — the
// spans that show where a walked op's or tick's time goes.

// timeOpFor returns the nanoseconds one operation takes. round(n) does its
// own set-up, performs the operation n times and returns how long those
// took; n grows until a round lasts roundTime (sizes.ladderRound), and the
// step is the fastest of three such rounds.
func timeOpFor(roundTime time.Duration, round func(n int) time.Duration) float64 {
	n := 1
	d := round(n)
	for d < roundTime && n < 1<<26 {
		if d < roundTime/100 {
			n *= 10
		} else {
			n = int(float64(n)*1.2*float64(roundTime)/float64(d)) + 1
		}
		d = round(n)
	}
	return bestOf3(n, d, round)
}

// timeFixed is timeOpFor for a step whose input fixes n.
func timeFixed(n int, round func(n int) time.Duration) float64 {
	return bestOf3(n, round(n), round)
}

func bestOf3(n int, first time.Duration, round func(n int) time.Duration) float64 {
	best := first
	for i := 0; i < 2; i++ {
		if d := round(n); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// loop times n calls of fn.
func loop(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0)
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("ladder: %v", err)) // inputs are generated here: a failure is a bug
	}
}

// zipfStream mirrors the op mix live's generator draws from a LoadConfig
// (its source is not exported): zipf over the directories, creates at
// WriteRatio, and with HotDir a HotFrac share of getattrs on the hot files.
func zipfStream(lc live.LoadConfig, n int) []workload.Op {
	rng := rand.New(rand.NewSource(lc.Seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(lc.Dirs-1))
	ops := make([]workload.Op, 0, n)
	for i := 0; i < n; i++ {
		if lc.HotDir && rng.Float64() < lc.HotFrac {
			ops = append(ops, workload.Op{Type: mds.OpGetattr, Path: "/hot/f" + strconv.Itoa(rng.Intn(lc.HotFiles))})
			continue
		}
		dir := fmt.Sprintf("/load/d%03d", zipf.Uint64())
		if rng.Float64() < lc.WriteRatio {
			ops = append(ops, workload.Op{Type: mds.OpCreate, Path: dir + "/f" + strconv.Itoa(i)})
		} else {
			ops = append(ops, workload.Op{Type: mds.OpGetattr, Path: dir})
		}
	}
	return ops
}

// compileStream is the first n ops of a workload's first compile client.
func compileStream(files int, seed int64, n int) []workload.Op {
	gen := compileClient(0, files, seed)
	ops := make([]workload.Op, 0, n)
	for len(ops) < n {
		op, ok := gen.Next()
		if !ok {
			break
		}
		ops = append(ops, op)
	}
	return ops
}

func parentOf(p string) string {
	if i := strings.LastIndexByte(p, '/'); i > 0 {
		return p[:i]
	}
	return "/"
}

// prepopulate creates what a stream expects to find: parents of its creates
// and targets of its reads that no earlier op of the stream creates (the
// live runtime pre-populates the zipf working set the same way).
func prepopulate(ns *namespace.Namespace, ops []workload.Op) {
	parents := map[string]bool{}
	for _, op := range ops {
		parents[parentOf(op.Path)] = true
	}
	have := map[string]bool{"/": true}
	for _, op := range ops {
		if p := parentOf(op.Path); !have[p] {
			_, err := ns.CreatePath(p, true)
			must(err)
			have[p] = true
		}
		if !have[op.Path] && op.Type != mds.OpMkdir && op.Type != mds.OpCreate {
			_, err := ns.CreatePath(op.Path, parents[op.Path])
			must(err)
		}
		have[op.Path] = true
	}
}

func opKind(t mds.OpType) namespace.OpKind {
	switch {
	case t.Mutating():
		return namespace.OpIWR
	case t == mds.OpReaddir:
		return namespace.OpReaddir
	}
	return namespace.OpIRD
}

// floorRados is the object store with its modelled latencies at zero.
func floorRados(clk sim.Clock) *rados.Cluster {
	cfg := rados.DefaultConfig()
	cfg.WriteLatency, cfg.ReadLatency, cfg.Jitter, cfg.BytePerUS = 0, 0, 0, 0
	return rados.NewCluster(clk, cfg)
}

// walkOps takes each op of the stream through the layers in the order an
// MDS does — workload next, namespace resolve, auth check, create or
// record, journal append, event fire — with a span per call. It returns the
// wall time of the walk and the namespace it built.
func walkOps(tr *tracer, ops []workload.Op) (time.Duration, *namespace.Namespace) {
	ns := namespace.New(10 * sim.Second)
	prepopulate(ns, ops)
	engine := sim.NewEngine(1)
	journal := rados.NewJournal(floorRados(engine).Pool("cephfs_metadata"), "mds0", 1<<22)
	gen := &workload.SliceGen{Ops: ops}
	t0 := time.Now()
	for i := range ops {
		top := tr.begin("ladder", "op", i)
		s := tr.begin("workload", "next", i)
		op, _ := gen.Next()
		tr.end(s)
		s = tr.begin("namespace", "resolve", i)
		dir, name, err := ns.ResolveDirOf(op.Path)
		tr.end(s)
		must(err)
		s = tr.begin("namespace", "auth", i)
		ns.AuthForDentry(dir, name)
		tr.end(s)
		if op.Type == mds.OpCreate || op.Type == mds.OpMkdir {
			s = tr.begin("namespace", "create", i)
			_, err = ns.Create(dir, name, op.Type == mds.OpMkdir)
			tr.end(s)
			must(err)
		}
		s = tr.begin("namespace", "recordop", i)
		ns.RecordOp(dir, name, opKind(op.Type), engine.Now())
		tr.end(s)
		if op.Type.Mutating() {
			s = tr.begin("rados", "journal_append", i)
			journal.Append(rados.EntryUpdate, 512, nil)
			tr.end(s)
		}
		s = tr.begin("sim", "fire", i)
		engine.RunUntilIdle()
		tr.end(s)
		tr.end(top)
	}
	return time.Since(t0), ns
}

// tickEnv is the Table 2 environment of a cluster in which rank 0 holds the
// majority of the load, so that every hook of the Adaptable policy runs.
func tickEnv(ranks int) *balancer.Env {
	e := &balancer.Env{WhoAmI: 0, State: &balancer.MemState{}}
	e.MDSs = make([]balancer.MDSMetrics, ranks)
	for r := range e.MDSs {
		load := 1.0
		if r == 0 {
			load = float64(10 * ranks)
		}
		e.MDSs[r] = balancer.MDSMetrics{Auth: load, All: load, CPU: 50, Mem: 10, Queue: 1, Req: load}
	}
	e.AuthMetaLoad, e.AllMetaLoad = e.MDSs[0].Auth, e.MDSs[0].All
	return e
}

func fragCandidates(n int) []balancer.FragCandidate {
	rng := rand.New(rand.NewSource(1))
	cands := make([]balancer.FragCandidate, n)
	for i := range cands {
		cands[i] = balancer.FragCandidate{ID: i, Load: rng.Float64() * 100}
	}
	return cands
}

// walkTicks runs one rank's balancing decision the way mds.rebalance does —
// env build, MDSLoad for every rank, When, Where, HowMuch, ChooseFrags —
// with a span per call, and returns the mean wall time of a tick.
func walkTicks(tr *tracer, ranks, ticks int) time.Duration {
	lb, err := core.NewLuaBalancer(core.AdaptablePolicy(), core.Options{})
	must(err)
	cands := fragCandidates(1000)
	t0 := time.Now()
	for i := 0; i < ticks; i++ {
		top := tr.begin("ladder", "tick", i)
		s := tr.begin("balancer", "env_build", i)
		e := tickEnv(ranks)
		tr.end(s)
		for r := 0; r < ranks; r++ {
			s = tr.begin("core", "mdsload", i)
			load, err := lb.MDSLoad(namespace.Rank(r), e)
			tr.end(s)
			must(err)
			e.MDSs[r].Load = load
			e.Total += load
		}
		s = tr.begin("core", "when", i)
		ok, err := lb.When(e)
		tr.end(s)
		must(err)
		if !ok {
			panic("ladder: the tick environment must trigger the policy")
		}
		s = tr.begin("core", "where", i)
		targets, err := lb.Where(e)
		tr.end(s)
		must(err)
		s = tr.begin("core", "howmuch", i)
		selectors, err := lb.HowMuch(e)
		tr.end(s)
		must(err)
		s = tr.begin("balancer", "choose_frags", i)
		_, _, _, err = balancer.ChooseFrags(selectors, cands, targets.TotalTarget()/float64(ranks))
		tr.end(s)
		must(err)
		tr.end(top)
	}
	return time.Since(t0) / time.Duration(ticks)
}

// luaLoopChunk is the balancer-shaped numeric loop internal/perf's
// LuaInterpreter point runs.
const luaLoopChunk = `
	local total = 0
	for i = 1, 100 do
		total = total + i*i % 7
	end
	return total`

// idleTickUS is the wall time per rank-tick of an idle cluster of that many
// ranks over some virtual seconds of one-second heartbeats.
func idleTickUS(ranks, virtual int) float64 {
	return timeFixed(ranks*virtual, func(int) time.Duration {
		cfg := cluster.DefaultConfig(ranks, 1)
		cfg.MDS.HeartbeatInterval = 1 * sim.Second
		cfg.MDS.RebalanceDelay = 100 * sim.Millisecond
		c, err := cluster.New(cfg, cluster.LuaBalancers(core.AdaptablePolicy()))
		must(err)
		t0 := time.Now()
		c.Run(sim.Time(virtual) * sim.Second)
		return time.Since(t0)
	}) / 1000
}

// hooksRound is one When+Where+HowMuch decision.
func hooksRound(lb *core.LuaBalancer, e *balancer.Env) {
	ok, err := lb.When(e)
	must(err)
	if !ok {
		panic("ladder: the hook environment must trigger the policy")
	}
	_, err = lb.Where(e)
	must(err)
	_, err = lb.HowMuch(e)
	must(err)
}

// scoredEnv is tickEnv with every rank's Load filled in, as rebalance has
// it by the time the hooks run.
func scoredEnv(ranks int) *balancer.Env {
	e := tickEnv(ranks)
	for r := range e.MDSs {
		e.MDSs[r].Load = e.MDSs[r].All
		e.Total += e.MDSs[r].All
	}
	return e
}

// ladder measures every *_ns / *_us / *_ms per-layer metric that does not
// come from a workload repetition's counters.
func ladder(ops []workload.Op, built *namespace.Namespace, sz sizes) map[string]float64 {
	out := map[string]float64{}
	timeOp := func(round func(n int) time.Duration) float64 { return timeOpFor(sz.ladderRound, round) }

	// workload
	var genOps int
	genNS := timeFixed(1, func(int) time.Duration {
		t0 := time.Now()
		g := compileClient(0, sz.tickFiles, 1).(*workload.SliceGen)
		genOps = len(g.Ops)
		return time.Since(t0)
	})
	out["workload.compile_gen_ns_per_op"] = genNS / float64(genOps)

	// namespace
	out["namespace.resolve_ns"] = timeFixed(len(ops), func(n int) time.Duration {
		return loop(n, func(i int) {
			_, err := built.Resolve(ops[i].Path)
			must(err)
		})
	})
	var creates []workload.Op
	for _, op := range ops {
		if op.Type == mds.OpCreate {
			creates = append(creates, op)
		}
	}
	create := func(sharded bool) float64 {
		return timeFixed(len(creates), func(n int) time.Duration {
			ns := namespace.New(10 * sim.Second)
			if sharded {
				ns.EnableSharding(8)
			}
			dirs := make([]*namespace.Node, n)
			names := make([]string, n)
			for i, op := range creates {
				d, err := ns.CreatePath(parentOf(op.Path), true)
				must(err)
				dirs[i], names[i] = d, op.Path[strings.LastIndexByte(op.Path, '/')+1:]
			}
			v := ns.View(0)
			return loop(n, func(i int) {
				var err error
				if sharded {
					_, err = v.Create(dirs[i], names[i], false)
				} else {
					_, err = ns.Create(dirs[i], names[i], false)
				}
				must(err)
			})
		})
	}
	out["namespace.create_ns"] = create(true)
	out["namespace.create_unsharded_ns"] = create(false)
	out["namespace.recordop_ns"] = timeFixed(1<<15, func(n int) time.Duration {
		ns := namespace.New(sim.Second)
		leaf, err := ns.CreatePath("/s0/s1/s2/s3/s4/s5/s6/s7", true)
		must(err)
		d := loop(n, func(i int) { ns.RecordOp(leaf, "f", namespace.OpIWR, sim.Time(i+1)) })
		ns.FlushCounters() // the deferred fold is tick-side work, timed by authload
		return d
	})
	{
		const ranks = 64
		ns := namespace.New(10 * sim.Second)
		for r := 0; r < ranks; r++ {
			d, err := ns.CreatePath(fmt.Sprintf("/t/d%02d", r), true)
			must(err)
			ns.SetAuthOverride(d, namespace.Rank(r))
			for f := 0; f < sz.ladderTreeSize/ranks; f++ {
				_, err := ns.Create(d, "f"+strconv.Itoa(f), false)
				must(err)
			}
			ns.RecordOp(d, "f0", namespace.OpIWR, sim.Second)
		}
		out["namespace.authload_us_64"] = timeOp(func(n int) time.Duration {
			return loop(n, func(i int) {
				ns.AuthLoad(ranks, sim.Time(i+2)*sim.Second, namespace.CounterSnapshot.CephLoad)
			})
		}) / 1000
		big, err := ns.CreatePath("/big", true)
		must(err)
		for f := 0; f < 10_000; f++ {
			_, err := ns.Create(big, "f"+strconv.Itoa(f), false)
			must(err)
		}
		out["namespace.children_us_10k"] = timeOp(func(n int) time.Duration {
			return loop(n, func(int) { big.Children(func(*namespace.Node) bool { return true }) })
		}) / 1000
	}

	// rados
	out["rados.journal_append_ns"] = timeOp(func(n int) time.Duration {
		engine := sim.NewEngine(1)
		j := rados.NewJournal(floorRados(engine).Pool("cephfs_metadata"), "mds0", 1<<22)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			j.Append(rados.EntryUpdate, 512, nil)
			if i&255 == 255 {
				engine.RunUntilIdle()
			}
		}
		engine.RunUntilIdle()
		return time.Since(t0)
	})
	{
		rc := floorRados(sim.NewEngine(1))
		out["rados.placement_ns"] = timeOp(func(n int) time.Duration {
			return loop(n, func(i int) { rc.PlaceOSDs("cephfs_metadata", "mds0."+strconv.Itoa(i&1023)) })
		})
	}

	// sim, simnet
	out["sim.event_ns"] = timeOp(func(n int) time.Duration {
		e := sim.NewEngine(1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e.Schedule(sim.Time(i%1000), func() {})
			if e.Pending() > 1024 {
				e.RunUntilIdle()
			}
		}
		e.RunUntilIdle()
		return time.Since(t0)
	})
	out["sim.ticker_ns"] = timeOp(func(n int) time.Duration {
		e := sim.NewEngine(1)
		tk := e.NewTicker(0, sim.Millisecond, func() {})
		t0 := time.Now()
		e.Run(sim.Time(n) * sim.Millisecond)
		d := time.Since(t0)
		tk.Stop()
		return d
	})
	{
		w := sim.NewWheel(time.Millisecond, 4096)
		out["sim.wheel_arm_ns"] = timeOp(func(n int) time.Duration {
			return loop(n, func(int) { w.Schedule(time.Second, func() {}).CancelTimer() })
		})
		w.Stop()
	}
	out["simnet.send_deliver_ns"] = timeOp(func(n int) time.Duration {
		e := sim.NewEngine(1)
		net := simnet.New(e, simnet.DefaultConfig())
		got := 0
		net.Register(1, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) {}))
		net.Register(2, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) { got++ }))
		msg := &mds.Reply{}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			net.Send(1, 2, msg)
			if i&255 == 255 {
				e.RunUntilIdle()
			}
		}
		e.RunUntilIdle()
		d := time.Since(t0)
		if got != n {
			panic("ladder: simnet lost messages")
		}
		return d
	})

	// telemetry: two writers, as two delivery goroutines on two cores.
	out["telemetry.observe_ns"] = timeOp(func(n int) time.Duration {
		var h telemetry.ShardedHistogram
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v := 1.0
				for i := 0; i < n; i++ {
					h.Observe(v)
					v += 1.5
				}
			}()
		}
		wg.Wait()
		return time.Since(t0)
	})

	// lua, core, balancer
	{
		chunk, err := lua.Compile("bench", luaLoopChunk)
		must(err)
		vm := lua.NewVM()
		out["lua.run_ns"] = timeOp(func(n int) time.Duration {
			return loop(n, func(int) {
				_, err := vm.Run(chunk)
				must(err)
			})
		})
		out["lua.compile_us"] = timeOp(func(n int) time.Duration {
			return loop(n, func(int) {
				_, err := lua.Compile("bench", luaLoopChunk)
				must(err)
			})
		}) / 1000
	}
	out["core.compile_policy_us"] = timeOp(func(n int) time.Duration {
		return loop(n, func(int) {
			_, err := core.NewLuaBalancer(core.AdaptablePolicy(), core.Options{})
			must(err)
		})
	}) / 1000
	{
		lb, err := core.NewLuaBalancer(core.AdaptablePolicy(), core.Options{})
		must(err)
		snap := namespace.CounterSnapshot{IRD: 10, IWR: 20, Readdir: 1}
		out["core.metaload_ns"] = timeOp(func(n int) time.Duration {
			return loop(n, func(int) {
				_, err := lb.MetaLoad(snap)
				must(err)
			})
		})
		e64, e5 := scoredEnv(64), scoredEnv(5)
		out["core.mdsload_us_64"] = timeOp(func(n int) time.Duration {
			return loop(n, func(i int) {
				_, err := lb.MDSLoad(namespace.Rank(i&63), e64)
				must(err)
			})
		}) / 1000
		out["core.hooks_us_64"] = timeOp(func(n int) time.Duration {
			return loop(n, func(int) { hooksRound(lb, e64) })
		}) / 1000
		out["core.hooks_us_5"] = timeOp(func(n int) time.Duration {
			return loop(n, func(int) { hooksRound(lb, e5) })
		}) / 1000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 100; i++ {
			hooksRound(lb, e64)
		}
		runtime.ReadMemStats(&m1)
		out["core.hooks_allocs_64"] = float64(m1.Mallocs-m0.Mallocs) / 100
	}
	{
		cands := fragCandidates(1000)
		names := []string{"half", "small", "big", "big_small"}
		out["balancer.choose_frags_ns"] = timeOp(func(n int) time.Duration {
			return loop(n, func(int) {
				_, _, _, err := balancer.ChooseFrags(names, cands, 2500)
				must(err)
			})
		})
	}

	// replica
	out["replica.grant_revoke_ns"] = timeOp(func(n int) time.Duration {
		reg := replica.NewRegistry()
		reg.Dispatch = func(_ namespace.Rank, fn func()) { fn() }
		return loop(n, func(int) {
			if !reg.Grant("/hot", 1) {
				panic("ladder: grant refused")
			}
			woke := false
			if _, wait := reg.BeginWrite("/hot", 0, func() { woke = true }); !wait {
				panic("ladder: write did not wait for the holder")
			}
			reg.Ack("/hot", 1)
			if !woke {
				panic("ladder: writer not woken by the last ack")
			}
			reg.EndWrite("/hot", 0)
		})
	})

	// mds: one daemon on the event engine and the simulated network, the
	// stream's requests in through HandleMessage.
	out["mds.serve_ns_per_op"] = timeFixed(len(ops), func(n int) time.Duration {
		engine := sim.NewEngine(1)
		net := simnet.New(engine, simnet.DefaultConfig())
		ns := namespace.New(10 * sim.Second)
		prepopulate(ns, ops)
		const client = simnet.Addr(1 << 16)
		replies := 0
		net.Register(client, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) {
			if r, ok := msg.(*mds.Reply); ok {
				if r.Err != "" {
					panic("ladder: mds: " + r.Err)
				}
				replies++
			}
		}))
		m := mds.New(0, 0, engine, net, ns, floorRados(engine).Pool("cephfs_metadata"),
			mds.DefaultConfig(), balancer.NoBalancer{}, []simnet.Addr{0})
		t0 := time.Now()
		for i := 0; i < n; i++ {
			m.HandleMessage(client, &mds.Request{ID: uint64(i + 1), Client: client, Op: ops[i].Type, Path: ops[i].Path})
			if i&63 == 63 {
				engine.RunUntilIdle()
			}
		}
		engine.RunUntilIdle()
		d := time.Since(t0)
		if replies != n {
			panic(fmt.Sprintf("ladder: mds answered %d of %d requests", replies, n))
		}
		return d
	})
	out["mds.tick_us_64"] = idleTickUS(64, sz.idleTicks)
	out["mds.tick_us_8"] = idleTickUS(8, sz.idleTicks)

	// cluster, live construction and idle cost
	out["cluster.new_ms_64"] = timeFixed(1, func(int) time.Duration {
		t0 := time.Now()
		_, err := cluster.New(cluster.DefaultConfig(64, 1), cluster.LuaBalancers(core.AdaptablePolicy()))
		must(err)
		return time.Since(t0)
	}) / 1e6
	out["live.new_ms"] = timeFixed(1, func(int) time.Duration {
		t0 := time.Now()
		_, err := live.New(liveCreateConfig(1, sz))
		must(err)
		return time.Since(t0)
	}) / 1e6
	{
		cfg := liveCreateConfig(1, sz)
		cfg.Load.Rate = 1
		cfg.Load.Duration = sz.idleWindow
		rt, err := live.New(cfg)
		must(err)
		c0 := processCPU()
		_, err = rt.Run()
		must(err)
		out["live.idle_cpu_ms_per_s"] = float64(processCPU()-c0) / float64(time.Millisecond) / sz.idleWindow.Seconds()
	}
	return out
}
