package client

import (
	"fmt"
	"testing"

	"mantle/internal/mds"
	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/simnet"
	"mantle/internal/workload"
)

// fakeMDS replies to every request with a configurable hint set and error.
type fakeMDS struct {
	net     *simnet.Network
	addr    simnet.Addr
	rank    namespace.Rank
	hints   []mds.Hint
	errFor  map[string]string
	served  []string
	replyFn func(req *mds.Request) *mds.Reply
}

func (f *fakeMDS) HandleMessage(from simnet.Addr, msg simnet.Message) {
	req, ok := msg.(*mds.Request)
	if !ok {
		return
	}
	f.served = append(f.served, req.Path)
	var rep *mds.Reply
	if f.replyFn != nil {
		rep = f.replyFn(req)
	} else {
		rep = &mds.Reply{ReqID: req.ID, Served: f.rank, Hints: f.hints}
		if e, bad := f.errFor[req.Path]; bad {
			rep.Err = e
		}
	}
	f.net.Send(f.addr, req.Client, rep)
}

func newRig(t *testing.T, nMDS int) (*sim.Engine, *simnet.Network, []*fakeMDS, []simnet.Addr) {
	t.Helper()
	e := sim.NewEngine(1)
	n := simnet.New(e, simnet.Config{Latency: 50})
	var mdss []*fakeMDS
	var addrs []simnet.Addr
	for r := 0; r < nMDS; r++ {
		f := &fakeMDS{net: n, addr: simnet.Addr(r), rank: namespace.Rank(r)}
		n.Register(f.addr, f)
		mdss = append(mdss, f)
		addrs = append(addrs, f.addr)
	}
	return e, n, mdss, addrs
}

func ops(paths ...string) workload.Generator {
	var out []workload.Op
	for _, p := range paths {
		out = append(out, workload.Op{Type: mds.OpCreate, Path: p})
	}
	return &workload.SliceGen{Ops: out}
}

func TestClosedLoopCompletes(t *testing.T) {
	e, n, mdss, addrs := newRig(t, 1)
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(), ops("/a", "/b", "/c"), addrs)
	doneCalled := false
	c.OnDone = func(*Client) { doneCalled = true }
	c.Start()
	e.RunUntilIdle()
	if !c.Done() || !doneCalled {
		t.Fatal("client not done")
	}
	if c.Completed != 3 || c.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", c.Completed, c.Errors)
	}
	if len(mdss[0].served) != 3 {
		t.Fatalf("served = %v", mdss[0].served)
	}
	if c.Latency.N() != 3 || c.Latency.Mean() <= 0 {
		t.Fatal("latency not recorded")
	}
	if c.DoneAt <= 0 {
		t.Fatal("DoneAt unset")
	}
}

func TestDefaultRoutingGoesToRank0(t *testing.T) {
	e, n, mdss, addrs := newRig(t, 3)
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(), ops("/x/y"), addrs)
	c.Start()
	e.RunUntilIdle()
	if len(mdss[0].served) != 1 || len(mdss[1].served) != 0 {
		t.Fatal("default route must be rank 0")
	}
}

func TestLearnsSubtreeHints(t *testing.T) {
	e, n, mdss, addrs := newRig(t, 2)
	// Rank 0 replies with a hint pointing /sub to rank 1.
	mdss[0].hints = []mds.Hint{{DirPath: "/sub", Rank: 1}}
	mdss[1].hints = []mds.Hint{{DirPath: "/sub", Rank: 1}}
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(),
		ops("/sub/a", "/sub/b", "/other/c"), addrs)
	c.Start()
	e.RunUntilIdle()
	// First op goes to rank 0 (default), learns, second goes to rank 1;
	// /other/c falls back to rank 0 (prefix doesn't match).
	if len(mdss[1].served) != 1 || mdss[1].served[0] != "/sub/b" {
		t.Fatalf("rank1 served %v", mdss[1].served)
	}
	if len(mdss[0].served) != 2 {
		t.Fatalf("rank0 served %v", mdss[0].served)
	}
	if c.KnownSubtrees() < 2 {
		t.Fatal("hint not learned")
	}
}

func TestErrorsCountedAndRetries(t *testing.T) {
	e, n, mdss, addrs := newRig(t, 1)
	mdss[0].errFor = map[string]string{"/bad": "no such dir"}
	cfg := DefaultConfig()
	c := New(0, simnet.Addr(100), e, n, cfg, ops("/bad", "/ok"), addrs)
	c.Start()
	e.RunUntilIdle()
	if c.Errors != 1 || c.Completed != 1 {
		t.Fatalf("errors=%d completed=%d", c.Errors, c.Completed)
	}
	// With retries enabled, the op is re-sent.
	e2, n2, mdss2, addrs2 := newRig(t, 1)
	tries := 0
	mdss2[0].replyFn = func(req *mds.Request) *mds.Reply {
		rep := &mds.Reply{ReqID: req.ID, Served: 0}
		if req.Path == "/flaky" {
			tries++
			if tries < 3 {
				rep.Err = "transient"
			}
		}
		return rep
	}
	cfg2 := DefaultConfig()
	cfg2.MaxRetries = 5
	c2 := New(0, simnet.Addr(100), e2, n2, cfg2, ops("/flaky"), addrs2)
	c2.Start()
	e2.RunUntilIdle()
	if !c2.Done() || tries != 3 {
		t.Fatalf("done=%v tries=%d", c2.Done(), tries)
	}
	if c2.Completed != 1 {
		t.Fatalf("completed = %d", c2.Completed)
	}
}

func TestSessionFlushStallsIssue(t *testing.T) {
	e, n, mdss, addrs := newRig(t, 1)
	cfg := DefaultConfig()
	cfg.FlushStall = 10 * sim.Millisecond
	cfg.ThinkTime = 0
	c := New(0, simnet.Addr(100), e, n, cfg, ops("/a", "/b"), addrs)
	// Delay the first reply and inject a flush before it lands.
	c.Start()
	n.Send(mdss[0].addr, c.Addr(), &mds.SessionFlush{From: 0})
	e.RunUntilIdle()
	if c.SessionFlushes != 1 {
		t.Fatalf("flushes = %d", c.SessionFlushes)
	}
	if !c.Done() {
		t.Fatal("not done")
	}
	// The second op must have been issued at or after the stall window.
	if c.DoneAt < 10*sim.Millisecond {
		t.Fatalf("DoneAt = %v, stall not applied", c.DoneAt)
	}
}

func TestForwardAccounting(t *testing.T) {
	e, n, mdss, addrs := newRig(t, 1)
	mdss[0].replyFn = func(req *mds.Request) *mds.Reply {
		return &mds.Reply{ReqID: req.ID, Served: 0, Forwards: 2}
	}
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(), ops("/a"), addrs)
	c.Start()
	e.RunUntilIdle()
	if c.ForwardedOps != 1 || c.TotalForwards != 2 {
		t.Fatalf("fops=%d total=%d", c.ForwardedOps, c.TotalForwards)
	}
}

func TestStaleReplyIgnored(t *testing.T) {
	e, n, _, addrs := newRig(t, 1)
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(), ops("/a"), addrs)
	c.Start()
	// A reply with a wrong ID must be dropped.
	n.Send(addrs[0], c.Addr(), &mds.Reply{ReqID: 999})
	e.RunUntilIdle()
	if c.Completed != 1 {
		t.Fatalf("completed = %d", c.Completed)
	}
}

func TestResetRouting(t *testing.T) {
	e, n, _, addrs := newRig(t, 2)
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(), ops(), addrs)
	c.routes.Learn(mds.Hint{DirPath: "/a", Rank: 1})
	c.ResetRouting()
	if c.KnownSubtrees() != 1 {
		t.Fatalf("subtrees = %d", c.KnownSubtrees())
	}
	_ = e
}

func TestClampRank(t *testing.T) {
	e, n, _, addrs := newRig(t, 2)
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(), ops(), addrs)
	if c.clampRank(5) != 0 || c.clampRank(-1) != 0 || c.clampRank(1) != 1 {
		t.Fatal("clamp broken")
	}
}

func TestRequestTimeoutResends(t *testing.T) {
	e, n, mdss, addrs := newRig(t, 1)
	// Drop the first two requests (no reply), answer afterwards.
	dropped := 0
	mdss[0].replyFn = func(req *mds.Request) *mds.Reply {
		if dropped < 2 {
			dropped++
			return nil // swallowed below
		}
		return &mds.Reply{ReqID: req.ID, Served: 0}
	}
	// Wrap the fake MDS to suppress nil replies.
	n.Unregister(addrs[0])
	n.Register(addrs[0], simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) {
		req := msg.(*mds.Request)
		rep := mdss[0].replyFn(req)
		if rep != nil {
			n.Send(addrs[0], req.Client, rep)
		}
	}))
	cfg := DefaultConfig()
	cfg.RequestTimeout = 50 * sim.Millisecond
	c := New(0, simnet.Addr(100), e, n, cfg, ops("/a"), addrs)
	c.routes.Learn(mds.Hint{DirPath: "/x", Rank: 0}) // extra routing entry to be dropped
	c.Start()
	e.RunUntilIdle()
	if !c.Done() || c.Completed != 1 {
		t.Fatalf("done=%v completed=%d", c.Done(), c.Completed)
	}
	if c.Timeouts != 2 {
		t.Fatalf("timeouts = %d, want 2", c.Timeouts)
	}
	// Two consecutive timeouts reset the routing cache.
	if c.KnownSubtrees() != 2 { // "/" + hint learned from the final reply? no hints → just "/"
		if c.KnownSubtrees() != 1 {
			t.Fatalf("routing cache = %d entries", c.KnownSubtrees())
		}
	}
}

func TestStartJitterDelaysFirstOp(t *testing.T) {
	e, n, mdss, addrs := newRig(t, 1)
	cfg := DefaultConfig()
	cfg.StartJitter = 100 * sim.Millisecond
	c := New(0, simnet.Addr(100), e, n, cfg, ops("/a"), addrs)
	c.Start()
	e.RunUntilIdle()
	if !c.Done() {
		t.Fatal("not done")
	}
	if c.DoneAt < 100 { // jitter could be ~0; at least it must not panic
		t.Logf("jitter drew near zero: done at %v", c.DoneAt)
	}
	_ = mdss
}

func TestRetryBudgetGivesUpCleanly(t *testing.T) {
	e, n, _, addrs := newRig(t, 1)
	n.Unregister(addrs[0]) // every request lands on a dead address
	cfg := DefaultConfig()
	cfg.RequestTimeout = sim.Second
	cfg.RetryBudget = 2
	c := New(0, simnet.Addr(100), e, n, cfg, ops("/a", "/b", "/c"), addrs)
	c.Start()
	e.RunUntilIdle()
	if !c.Done() {
		t.Fatal("client hung instead of failing cleanly")
	}
	if c.GaveUp != 3 || c.Errors != 3 || c.Completed != 0 {
		t.Fatalf("gaveUp=%d errors=%d completed=%d", c.GaveUp, c.Errors, c.Completed)
	}
	// Initial send plus RetryBudget resends per op, each timing out.
	if c.Timeouts != 9 {
		t.Fatalf("timeouts = %d, want 9", c.Timeouts)
	}
}

func TestBackoffSpreadsRetriesExponentially(t *testing.T) {
	e, n, _, addrs := newRig(t, 1)
	n.Unregister(addrs[0])
	var arrivals []sim.Time
	n.Register(simnet.Addr(0), simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) {
		arrivals = append(arrivals, e.Now()) // swallow: never reply
	}))
	cfg := DefaultConfig()
	cfg.RequestTimeout = sim.Second
	cfg.RetryBudget = 4
	cfg.BackoffBase = 100 * sim.Millisecond
	cfg.BackoffMax = 400 * sim.Millisecond
	c := New(0, simnet.Addr(100), e, n, cfg, ops("/a"), addrs)
	c.Start()
	e.RunUntilIdle()
	if !c.Done() || c.GaveUp != 1 {
		t.Fatalf("done=%v gaveUp=%d", c.Done(), c.GaveUp)
	}
	if len(arrivals) != 5 { // initial + 4 retries
		t.Fatalf("arrivals = %d, want 5", len(arrivals))
	}
	// Gap k = timeout + backoff(k) with backoff doubling 100ms, 200ms,
	// 400ms, then capped at 400ms, each ±25% jitter.
	want := []sim.Time{100, 200, 400, 400}
	for k := 1; k < len(arrivals); k++ {
		gap := arrivals[k] - arrivals[k-1]
		lo := sim.Second + want[k-1]*sim.Millisecond*3/4
		hi := sim.Second + want[k-1]*sim.Millisecond*5/4
		if gap < lo || gap > hi {
			t.Fatalf("retry %d gap = %v, want in [%v, %v]", k, gap, lo, hi)
		}
	}
}

func TestLateReplyCancelsBackoffResend(t *testing.T) {
	e, n, _, addrs := newRig(t, 1)
	n.Unregister(addrs[0])
	var served int
	n.Register(simnet.Addr(0), simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) {
		req := msg.(*mds.Request)
		served++
		// Reply slower than the request timeout but faster than the
		// pending backoff resend.
		e.Schedule(1500*sim.Millisecond, func() {
			n.Send(simnet.Addr(0), req.Client, &mds.Reply{ReqID: req.ID, Served: 0})
		})
	}))
	cfg := DefaultConfig()
	cfg.RequestTimeout = sim.Second
	cfg.BackoffBase = 10 * sim.Second
	c := New(0, simnet.Addr(100), e, n, cfg, ops("/a", "/b"), addrs)
	c.Start()
	e.RunUntilIdle()
	if !c.Done() || c.Completed != 2 {
		t.Fatalf("done=%v completed=%d", c.Done(), c.Completed)
	}
	// Each op was sent exactly once: the late reply beat the backoff and
	// cancelled the resend.
	if served != 2 {
		t.Fatalf("served = %d, want 2 (no duplicate resends)", served)
	}
	if c.Timeouts != 2 || c.GaveUp != 0 {
		t.Fatalf("timeouts=%d gaveUp=%d", c.Timeouts, c.GaveUp)
	}
}

// TestIssueReplyCycleAllocs: one issue→reply cycle allocates nothing once
// the engine's and the network's free lists are warm: the client re-issues
// from the record of its answered op. The MDS side answers with one reused
// Reply, so the count is the client's own. With a Request per op it was 1;
// with a closure per hop it was 5: also issueNext's method value, the
// timeout closure and two delivery closures.
func TestIssueReplyCycleAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	n := simnet.New(e, simnet.Config{Latency: 50})
	rep := &mds.Reply{}
	n.Register(0, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) {
		req := msg.(*mds.Request)
		rep.ReqID = req.ID
		n.Send(0, req.Client, rep)
	}))
	const runs = 1000
	stream := make([]workload.Op, runs+2)
	for i := range stream {
		stream[i] = workload.Op{Type: mds.OpGetattr, Path: "/a"}
	}
	cfg := DefaultConfig()
	c := New(0, simnet.Addr(100), e, n, cfg, &workload.SliceGen{Ops: stream}, []simnet.Addr{0})
	c.Start()
	// One cycle: 50 µs out, 50 µs back, ThinkTime, and the next issue.
	cycle := func() { e.Run(e.Now() + 100 + cfg.ThinkTime) }
	allocs := testing.AllocsPerRun(runs, cycle)
	t.Logf("issue→reply cycle: %.0f allocs", allocs)
	if allocs != 0 {
		t.Fatalf("issue→reply cycle allocates %.0f objects, want 0", allocs)
	}
	if c.Completed != runs+1 || c.Timeouts != 0 {
		t.Fatalf("completed %d, timeouts %d; want %d and 0", c.Completed, c.Timeouts, runs+1)
	}
}

// TestRepeatedHintLeavesRoutesUntouched: a reply restating a hint the client
// holds leaves its route table as it was — it keeps routing by the fragment
// map it learned first, not by the repeated reply's copy — and allocates
// nothing, while a changed hint is still learned.
func TestRepeatedHintLeavesRoutesUntouched(t *testing.T) {
	e := sim.NewEngine(1)
	n := simnet.New(e, simnet.Config{Latency: 50})
	halves := namespace.RootFrag.Split(1)
	name := "f"
	for i := 0; !halves[1].Contains(namespace.HashName(name)); i++ {
		name = fmt.Sprintf("f%d", i)
	}
	path := "/d/" + name
	fragHint := func(r0, r1 namespace.Rank) mds.Hint {
		return mds.Hint{DirPath: "/d", Frags: []mds.FragHint{{Frag: halves[0], Rank: r0}, {Frag: halves[1], Rank: r1}}}
	}
	hint := fragHint(0, 1)
	rep := &mds.Reply{}
	for _, a := range []simnet.Addr{0, 1} {
		n.Register(a, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) {
			req := msg.(*mds.Request)
			rep.ReqID = req.ID
			rep.Hints = append(rep.Hints[:0], hint)
			n.Send(a, req.Client, rep)
		}))
	}
	stream := make([]workload.Op, 300)
	for i := range stream {
		stream[i] = workload.Op{Type: mds.OpGetattr, Path: path}
	}
	cfg := DefaultConfig()
	c := New(0, simnet.Addr(100), e, n, cfg, &workload.SliceGen{Ops: stream}, []simnet.Addr{0, 1})
	c.Start()
	cycle := func() { e.Run(e.Now() + 100 + cfg.ThinkTime) }
	cycle()
	if got := c.routes.Route(path); got != 1 {
		t.Fatalf("first hint routes %s to %d, want 1", path, got)
	}
	repeat := fragHint(0, 1) // equal to what the client holds, in a new slice
	hint = repeat
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a repeated hint costs %.0f allocs per reply, want 0", allocs)
	}
	repeat.Frags[1].Rank = 0 // the reply's copy changes after it was handled
	if got := c.routes.Route(path); got != 1 {
		t.Errorf("after repeats %s routes to %d, want 1: a repeated hint rewrote the table", path, got)
	}
	hint = fragHint(1, 0)
	cycle()
	if got := c.routes.Route(path); got != 0 {
		t.Errorf("a changed hint routes %s to %d, want 0", path, got)
	}
}

// TestChurnRequestPaths: a churn stream sent through the client reaches the
// MDS with each rename's source in Request.Path and its destination in
// DstPath, routed by the source, and every other op's path as it was. The
// table is what the client sent while workload.Op carried DstPath in a
// field of its own.
func TestChurnRequestPaths(t *testing.T) {
	type sent struct {
		rank      namespace.Rank
		op        string
		path, dst string
	}
	want := []sent{
		{0, "mkdir", "/c", ""},
		{1, "create", "/c/f000000.g0", ""},
		{1, "create", "/c/f000001.g0", ""},
		{1, "create", "/c/f000002.g0", ""},
		{1, "rename", "/c/f000000.g0", "/c/f000000.g1"},
		{1, "setattr", "/c/f000001.g0", ""},
		{1, "setattr", "/c/f000002.g0", ""},
		{1, "setattr", "/c/f000000.g1", ""},
		{1, "rename", "/c/f000001.g0", "/c/f000001.g1"},
		{1, "setattr", "/c/f000002.g0", ""},
		{1, "setattr", "/c/f000000.g1", ""},
		{1, "rename", "/c/f000001.g1", "/c/f000001.g2"},
		{1, "setattr", "/c/f000002.g0", ""},
		{1, "unlink", "/c/f000000.g1", ""},
		{1, "unlink", "/c/f000001.g2", ""},
		{1, "unlink", "/c/f000002.g0", ""},
	}
	e, n, mdss, addrs := newRig(t, 2)
	var got []sent
	for _, f := range mdss {
		f.replyFn = func(req *mds.Request) *mds.Reply {
			got = append(got, sent{f.rank, req.Op.String(), req.Path, req.DstPath})
			return &mds.Reply{ReqID: req.ID, Served: f.rank, Hints: []mds.Hint{{DirPath: "/c", Rank: 1}}}
		}
	}
	gen := workload.Churn(workload.ChurnConfig{Dir: "/c", Files: 3, Rounds: 3, Prefix: "f", Seed: 5})
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(), gen, addrs)
	c.Start()
	e.RunUntilIdle()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("requests sent:\n%v\nwant:\n%v", got, want)
	}
}
