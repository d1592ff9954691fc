package client

import (
	"fmt"
	"strings"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/mds"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/sim"
	"mantle/internal/simnet"
	"mantle/internal/workload"
)

// Request-record reuse on the client side: the client re-issues from the
// record of its in-flight op once it has handled that record's reply, and
// never from a record that timed out and was re-sent. These scenarios run
// the client against real MDS ranks and log every reply as it is delivered,
// before the client sees it; each log was recorded at the commit before the
// reuse, where every op had its own Request and every answer its own Reply.

// reuseRig is real MDS ranks on the simulated network plus one client whose
// delivered replies and completions are logged.
type reuseRig struct {
	e    *sim.Engine
	n    *simnet.Network
	ns   *namespace.Namespace
	mdss []*mds.MDS
	c    *Client
	log  []string
}

func newReuseRig(t *testing.T, ranks int, cfg Config, ops []workload.Op) *reuseRig {
	t.Helper()
	r := &reuseRig{e: sim.NewEngine(1), ns: namespace.New(10 * sim.Second)}
	r.n = simnet.New(r.e, simnet.Config{Latency: 50 * sim.Microsecond})
	rc := rados.NewCluster(r.e, rados.Config{OSDs: 4, PGs: 32, Replicas: 2, WriteLatency: 200, ReadLatency: 100})
	mcfg := mds.DefaultConfig()
	mcfg.SvcJitterPct = 0
	var addrs []simnet.Addr
	for i := 0; i < ranks; i++ {
		addrs = append(addrs, simnet.Addr(i))
	}
	for i := range addrs {
		r.mdss = append(r.mdss, mds.New(namespace.Rank(i), addrs[i], r.e, r.n, r.ns,
			rc.Pool("meta"), mcfg, balancer.NoBalancer{}, addrs))
	}
	const addr = simnet.Addr(100)
	r.c = New(0, addr, r.e, r.n, cfg, &workload.SliceGen{Ops: ops}, addrs)
	r.c.OnComplete = func(_ *Client, op workload.Op, served namespace.Rank, _ sim.Time) {
		r.log = append(r.log, fmt.Sprintf("t=%d done %s %s at %d", r.e.Now(), op.Type, op.Path, served))
	}
	r.n.Unregister(addr)
	r.n.Register(addr, simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) {
		if v, ok := msg.(*mds.Reply); ok {
			r.log = append(r.log, fmt.Sprintf("t=%d reply id=%d err=%q served=%d fwd=%d",
				r.e.Now(), v.ReqID, v.Err, v.Served, v.Forwards))
		}
		r.c.HandleMessage(from, msg)
	}))
	return r
}

func (r *reuseRig) create(t *testing.T, isDir bool, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if _, err := r.ns.CreatePath(p, isDir); err != nil {
			t.Fatal(err)
		}
	}
}

func (r *reuseRig) check(t *testing.T, want []string) {
	t.Helper()
	if !r.c.Done() {
		t.Error("client not done")
	}
	if strings.Join(r.log, "\n") != strings.Join(want, "\n") {
		t.Fatalf("log:\n%s\nwant:\n%s", strings.Join(r.log, "\n"), strings.Join(want, "\n"))
	}
}

// TestClientRecordReuseLateReply: replies are held up on the link past the
// request timeout, twice, so the client re-sends twice. The first late reply
// lands while the second send is still out, and both land after the client
// has reused a record for later ops. Each must still read as its own
// timed-out op's reply, which the client drops, and neither may free the
// record still in flight.
func TestClientRecordReuseLateReply(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RequestTimeout = 2 * sim.Millisecond
	ops := []workload.Op{
		{Type: mds.OpGetattr, Path: "/a/f1"},
		{Type: mds.OpGetattr, Path: "/a/f2"},
		{Type: mds.OpGetattr, Path: "/a/f3"},
		{Type: mds.OpGetattr, Path: "/a/f1"},
	}
	r := newReuseRig(t, 1, cfg, ops)
	r.create(t, true, "/a")
	r.create(t, false, "/a/f1", "/a/f2", "/a/f3")
	r.n.SetLinkFault(0, r.c.Addr(), simnet.LinkFault{ExtraLatency: 3 * sim.Millisecond})
	r.e.Schedule(2500*sim.Microsecond, func() { r.n.SetLinkFault(0, r.c.Addr(), simnet.LinkFault{}) })
	r.c.Start()
	r.e.RunUntilIdle()
	r.check(t, []string{
		"t=3160 reply id=1 err=\"\" served=0 fwd=0",
		"t=4160 reply id=3 err=\"\" served=0 fwd=0",
		"t=4160 done getattr /a/f1 at 0",
		"t=4345 reply id=4 err=\"\" served=0 fwd=0",
		"t=4345 done getattr /a/f2 at 0",
		"t=4530 reply id=5 err=\"\" served=0 fwd=0",
		"t=4530 done getattr /a/f3 at 0",
		"t=4715 reply id=6 err=\"\" served=0 fwd=0",
		"t=4715 done getattr /a/f1 at 0",
		"t=5160 reply id=2 err=\"\" served=0 fwd=0",
	})
	if r.c.Timeouts != 2 || r.c.Completed != len(ops) {
		t.Fatalf("timeouts %d, completed %d; want 2 and %d", r.c.Timeouts, r.c.Completed, len(ops))
	}
}

// TestClientRecordReuseErrorRetry: an op that fails is retried from its
// answered record until MaxRetries runs out, then the next op re-issues from
// the same record.
func TestClientRecordReuseErrorRetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetries = 2
	ops := []workload.Op{
		{Type: mds.OpCreate, Path: "/x/f"},
		{Type: mds.OpMkdir, Path: "/x"},
		{Type: mds.OpCreate, Path: "/x/f"},
		{Type: mds.OpCreate, Path: "/x/f"},
		{Type: mds.OpGetattr, Path: "/x/f"},
	}
	r := newReuseRig(t, 1, cfg, ops)
	r.c.Start()
	r.e.RunUntilIdle()
	r.check(t, []string{
		"t=160 reply id=1 err=\"namespace: no such entry: //x\" served=0 fwd=0",
		"t=345 reply id=2 err=\"namespace: no such entry: //x\" served=0 fwd=0",
		"t=530 reply id=3 err=\"namespace: no such entry: //x\" served=0 fwd=0",
		"t=1145 reply id=4 err=\"\" served=0 fwd=0",
		"t=1145 done mkdir /x at 0",
		"t=1760 reply id=5 err=\"\" served=0 fwd=0",
		"t=1760 done create /x/f at 0",
		"t=2175 reply id=6 err=\"namespace: entry already exists: /x/f\" served=0 fwd=0",
		"t=2590 reply id=7 err=\"namespace: entry already exists: /x/f\" served=0 fwd=0",
		"t=3005 reply id=8 err=\"namespace: entry already exists: /x/f\" served=0 fwd=0",
		"t=3190 reply id=9 err=\"\" served=0 fwd=0",
		"t=3190 done getattr /x/f at 0",
	})
	if r.c.Errors != 6 || r.c.Completed != 3 {
		t.Fatalf("errors %d, completed %d; want 6 and 3", r.c.Errors, r.c.Completed)
	}
}

// TestClientRecordReuseFragHints: the client keeps a fragment hint's Frags
// slice as its routing map for the directory. Answers to later ops on the
// reused record, carrying another directory's fragment map, must leave it
// alone: /d's odd frag lives on rank 1 and /e's even one does.
func TestClientRecordReuseFragHints(t *testing.T) {
	var ops []workload.Op
	for _, dir := range []string{"/d", "/e", "/d", "/e"} {
		for i := 0; i < 4; i++ {
			ops = append(ops, workload.Op{Type: mds.OpGetattr, Path: fmt.Sprintf("%s/f%d", dir, i)})
		}
	}
	r := newReuseRig(t, 2, DefaultConfig(), ops)
	for i, dir := range []string{"/d", "/e"} {
		r.create(t, true, dir)
		for j := 0; j < 4; j++ {
			r.create(t, false, fmt.Sprintf("%s/f%d", dir, j))
		}
		node, _ := r.ns.Resolve(dir)
		kids := r.ns.SplitDir(node, namespace.RootFrag, 1, 0)
		r.ns.SetFragAuth(node, kids[1-i], 1)
	}
	r.c.Start()
	r.e.RunUntilIdle()
	r.check(t, []string{
		"t=160 reply id=1 err=\"\" served=0 fwd=0",
		"t=160 done getattr /d/f0 at 0",
		"t=420 reply id=2 err=\"\" served=1 fwd=0",
		"t=420 done getattr /d/f1 at 1",
		"t=605 reply id=3 err=\"\" served=0 fwd=0",
		"t=605 done getattr /d/f2 at 0",
		"t=865 reply id=4 err=\"\" served=1 fwd=0",
		"t=865 done getattr /d/f3 at 1",
		"t=1200 reply id=5 err=\"\" served=1 fwd=1",
		"t=1200 done getattr /e/f0 at 1",
		"t=1385 reply id=6 err=\"\" served=0 fwd=0",
		"t=1385 done getattr /e/f1 at 0",
		"t=1645 reply id=7 err=\"\" served=1 fwd=0",
		"t=1645 done getattr /e/f2 at 1",
		"t=1830 reply id=8 err=\"\" served=0 fwd=0",
		"t=1830 done getattr /e/f3 at 0",
		"t=2015 reply id=9 err=\"\" served=0 fwd=0",
		"t=2015 done getattr /d/f0 at 0",
		"t=2275 reply id=10 err=\"\" served=1 fwd=0",
		"t=2275 done getattr /d/f1 at 1",
		"t=2460 reply id=11 err=\"\" served=0 fwd=0",
		"t=2460 done getattr /d/f2 at 0",
		"t=2720 reply id=12 err=\"\" served=1 fwd=0",
		"t=2720 done getattr /d/f3 at 1",
		"t=2980 reply id=13 err=\"\" served=1 fwd=0",
		"t=2980 done getattr /e/f0 at 1",
		"t=3165 reply id=14 err=\"\" served=0 fwd=0",
		"t=3165 done getattr /e/f1 at 0",
		"t=3425 reply id=15 err=\"\" served=1 fwd=0",
		"t=3425 done getattr /e/f2 at 1",
		"t=3610 reply id=16 err=\"\" served=0 fwd=0",
		"t=3610 done getattr /e/f3 at 0",
	})
	kids := namespace.RootFrag.Split(1)
	for i, dir := range []string{"/d", "/e"} {
		for j := 0; j < 16; j++ {
			name := fmt.Sprintf("f%d", j)
			want := namespace.Rank(i)
			if kids[1].ContainsName(name) {
				want = namespace.Rank(1 - i)
			}
			if got := r.c.routes.Route(dir + "/" + name); got != want {
				t.Fatalf("%s/%s routes to %d, want %d", dir, name, got, want)
			}
		}
	}
}
