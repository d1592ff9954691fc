package client

import (
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

func TestLongestPrefixWins(t *testing.T) {
	e, n, mdss, addrs := newRig(t, 3)
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(), ops("/a/b/f"), addrs)
	c.learn(mds.Hint{DirPath: "/a", Rank: 1})
	c.learn(mds.Hint{DirPath: "/a/b", Rank: 2})
	c.Start()
	e.RunUntilIdle()
	if len(mdss[2].served) != 1 {
		t.Fatalf("longest prefix ignored: %v %v %v", mdss[0].served, mdss[1].served, mdss[2].served)
	}
}

func TestPrefixMatchesWholeComponentsOnly(t *testing.T) {
	e, n, mdss, addrs := newRig(t, 2)
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(), ops("/abc/f"), addrs)
	c.learn(mds.Hint{DirPath: "/ab", Rank: 1}) // must NOT match /abc
	c.Start()
	e.RunUntilIdle()
	if len(mdss[1].served) != 0 {
		t.Fatal("/ab matched /abc")
	}
	_ = mdss
}

func TestFragRouting(t *testing.T) {
	e, n, mdss, addrs := newRig(t, 2)
	kids := namespace.RootFrag.Split(1)
	var g []workload.Op
	for i := 0; i < 40; i++ {
		g = append(g, workload.Op{Type: mds.OpCreate, Path: "/d/" + string(rune('a'+i%26)) + string(rune('a'+i/26))})
	}
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(), &workload.SliceGen{Ops: g}, addrs)
	c.learn(mds.Hint{DirPath: "/d", Rank: 0, Frags: []mds.FragHint{
		{Frag: kids[0], Rank: 0},
		{Frag: kids[1], Rank: 1},
	}})
	c.Start()
	e.RunUntilIdle()
	if len(mdss[0].served) == 0 || len(mdss[1].served) == 0 {
		t.Fatalf("frag routing not splitting: %d/%d", len(mdss[0].served), len(mdss[1].served))
	}
	// Every op went to the rank owning its name's fragment.
	for _, p := range mdss[1].served {
		_, name := splitPath(p)
		if !kids[1].ContainsName(name) {
			t.Fatalf("%s routed to rank 1 but not in frag", p)
		}
	}
}

func TestFragHintClearedBySubtreeHint(t *testing.T) {
	e, n, _, addrs := newRig(t, 2)
	c := New(0, simnet.Addr(100), e, n, DefaultConfig(), ops(), addrs)
	kids := namespace.RootFrag.Split(1)
	c.learn(mds.Hint{DirPath: "/d", Rank: 0, Frags: []mds.FragHint{{Frag: kids[0], Rank: 0}, {Frag: kids[1], Rank: 1}}})
	if len(c.frags) != 1 {
		t.Fatal("frag hint not stored")
	}
	c.learn(mds.Hint{DirPath: "/d", Rank: 1})
	if len(c.frags) != 0 {
		t.Fatal("frag hint not cleared by plain hint")
	}
	_ = e
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
	c.learn(mds.Hint{DirPath: "/a", Rank: 1})
	c.ResetRouting()
	if c.KnownSubtrees() != 1 {
		t.Fatalf("subtrees = %d", c.KnownSubtrees())
	}
	_ = e
}

func TestSplitPath(t *testing.T) {
	cases := []struct{ in, dir, name string }{
		{"/", "/", ""},
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/", "/a", "b"},
		{"/a/b/c.txt", "/a/b", "c.txt"},
	}
	for _, cse := range cases {
		d, n := splitPath(cse.in)
		if d != cse.dir || n != cse.name {
			t.Errorf("splitPath(%q) = %q,%q want %q,%q", cse.in, d, n, cse.dir, cse.name)
		}
	}
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
	c.learn(mds.Hint{DirPath: "/x", Rank: 0}) // extra routing entry to be dropped
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

func TestLearnEvictsLRU(t *testing.T) {
	e, n, _, addrs := newRig(t, 2)
	cfg := DefaultConfig()
	cfg.HintCapacity = 3
	c := New(0, simnet.Addr(100), e, n, cfg, ops(), addrs)
	c.learn(mds.Hint{DirPath: "/a", Rank: 1})
	c.learn(mds.Hint{DirPath: "/b", Rank: 1})
	c.learn(mds.Hint{DirPath: "/c", Rank: 1}) // "/"+3 > cap → evict /a
	if c.KnownSubtrees() != 3 {
		t.Fatalf("entries = %d, want 3 (cap)", c.KnownSubtrees())
	}
	if got := c.route(workload.Op{Type: mds.OpCreate, Path: "/a/f"}); got != 0 {
		t.Fatalf("evicted /a still routed to %d", got)
	}
	if got := c.route(workload.Op{Type: mds.OpCreate, Path: "/c/f"}); got != 1 {
		t.Fatalf("/c lost: routed to %d", got)
	}
	// Re-learning refreshes recency: /b is oldest now.
	c.learn(mds.Hint{DirPath: "/c", Rank: 1})
	c.learn(mds.Hint{DirPath: "/d", Rank: 1})
	if got := c.route(workload.Op{Type: mds.OpCreate, Path: "/b/f"}); got != 0 {
		t.Fatalf("LRU order wrong: /b still present")
	}
	_ = e
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

// TestIssueReplyCycleAllocs: one issue→reply cycle allocates only its
// Request once the engine's and the network's free lists are warm. The MDS
// side answers with one reused Reply, so the count is the client's own.
// With a closure per hop it was 5: also issueNext's method value, the
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
	if allocs > 1 {
		t.Fatalf("issue→reply cycle allocates %.0f objects, want <= 1 (the Request)", allocs)
	}
	if c.Completed != runs+1 || c.Timeouts != 0 {
		t.Fatalf("completed %d, timeouts %d; want %d and 0", c.Completed, c.Timeouts, runs+1)
	}
}
