package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/core"
	"mantle/internal/mds"
	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/workload"
)

func noBalance() BalancerFactory {
	return GoBalancers(func() balancer.Balancer { return balancer.NoBalancer{} })
}

func TestSingleMDSSingleClientCreates(t *testing.T) {
	c, err := New(DefaultConfig(1, 1), noBalance())
	if err != nil {
		t.Fatal(err)
	}
	c.AddClient(workload.SeparateDirCreates("", 0, 500))
	res := c.Run(10 * sim.Minute)
	if !res.AllDone {
		t.Fatal("client did not finish")
	}
	if res.TotalOps != 501 { // mkdir + 500 creates
		t.Fatalf("ops = %d, want 501", res.TotalOps)
	}
	if res.ClientErrors[0] != 0 {
		t.Fatalf("errors = %d", res.ClientErrors[0])
	}
	// The files exist in the namespace.
	if n, err := c.NS.Resolve("/client0/f0000499"); err != nil || n.IsDir() {
		t.Fatalf("resolve: %v %v", n, err)
	}
	d, _ := c.NS.Resolve("/client0")
	if d.NumChildren() != 500 {
		t.Fatalf("children = %d", d.NumChildren())
	}
	// All ops were hits on rank 0, nothing forwarded.
	if res.TotalForwards != 0 {
		t.Fatalf("forwards = %d", res.TotalForwards)
	}
	if res.MDSCounters[0].Served != 501 {
		t.Fatalf("served = %d", res.MDSCounters[0].Served)
	}
	// Journal got one entry per mutating op.
	if res.JournalEntries < 501 {
		t.Fatalf("journal entries = %d", res.JournalEntries)
	}
	if res.Makespan <= 0 {
		t.Fatal("makespan not recorded")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Result {
		c, err := New(DefaultConfig(3, 42), LuaBalancers(core.DefaultPolicy()))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			c.AddClient(workload.SeparateDirCreates("", i, 2000))
		}
		return c.Run(30 * sim.Minute)
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.TotalOps != b.TotalOps || a.TotalExports != b.TotalExports || a.TotalForwards != b.TotalForwards {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Makespan, b.Makespan)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed int64) *Result {
		c, err := New(DefaultConfig(3, seed), LuaBalancers(core.DefaultPolicy()))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			c.AddClient(workload.SeparateDirCreates("", i, 2000))
		}
		return c.Run(30 * sim.Minute)
	}
	a, b := run(1), run(2)
	if a.Makespan == b.Makespan && a.TotalExports == b.TotalExports {
		t.Log("warning: different seeds gave identical makespan (possible but unlikely)")
	}
}

func TestGreedySpillMigratesSharedDir(t *testing.T) {
	cfg := DefaultConfig(2, 7)
	cfg.MDS.SplitSize = 2000 // split early so the test stays fast
	cfg.MDS.HeartbeatInterval = sim.Second
	cfg.MDS.RebalanceDelay = 200 * sim.Millisecond
	c, err := New(cfg, LuaBalancers(core.GreedySpillPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.AddClient(workload.SharedDirCreates("/shared", i, 3000))
	}
	res := c.Run(60 * sim.Minute)
	if !res.AllDone {
		t.Fatalf("clients did not finish; ops=%v", res.ClientOps)
	}
	if res.TotalSplits == 0 {
		t.Fatal("shared dir never fragmented")
	}
	if res.TotalExports == 0 {
		t.Fatal("greedy spill never exported")
	}
	// Both ranks served load.
	if res.MDSCounters[1].Served == 0 {
		t.Fatal("rank 1 served nothing after spill")
	}
	// Fragment authorities actually split.
	d, _ := c.NS.Resolve("/shared")
	if d.FragTree().NumLeaves() < 8 {
		t.Fatalf("leaves = %d", d.FragTree().NumLeaves())
	}
	owned := map[namespace.Rank]int{}
	for _, f := range d.FragTree().Leaves() {
		fs, _ := d.FragStateOf(f)
		r := fs.Auth()
		if r == namespace.RankNone {
			r = c.NS.EffectiveAuth(d)
		}
		owned[r]++
	}
	if len(owned) < 2 {
		t.Fatalf("frags all on one rank: %v", owned)
	}
	// Session flushes occurred (migrations notify sessions).
	if res.TotalFlushes == 0 {
		t.Fatal("no session flushes despite migrations")
	}
}

func TestAdaptableMigratesSeparateDirs(t *testing.T) {
	cfg := DefaultConfig(3, 11)
	cfg.MDS.HeartbeatInterval = sim.Second
	cfg.MDS.RebalanceDelay = 200 * sim.Millisecond
	c, err := New(cfg, LuaBalancers(core.AdaptablePolicy()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.AddClient(workload.SeparateDirCreates("", i, 8000))
	}
	res := c.Run(60 * sim.Minute)
	if !res.AllDone {
		t.Fatalf("not done: ops=%v", res.ClientOps)
	}
	if res.TotalExports == 0 {
		t.Fatal("adaptable never migrated despite one rank holding everything")
	}
	served := 0
	for r := 1; r < 3; r++ {
		served += int(res.MDSCounters[r].Served)
	}
	if served == 0 {
		t.Fatal("no load ever reached ranks 1-2")
	}
	if res.PolicyErrors != 0 {
		t.Fatalf("policy errors = %d", res.PolicyErrors)
	}
}

func TestPreAssignSpreadsLoadWithoutBalancer(t *testing.T) {
	cfg := DefaultConfig(3, 5)
	c, err := New(cfg, noBalance())
	if err != nil {
		t.Fatal(err)
	}
	// Pre-create the three client dirs and pin them to distinct ranks.
	if err := c.PrePopulate([]string{"/client0", "/client1", "/client2"}, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.PreAssign((workloadDir(i)), namespace.Rank(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		c.AddClient(workload.Creates(workload.CreateConfig{
			Dir: workloadDir(i), Files: 2000, Prefix: "f",
		}))
	}
	res := c.Run(30 * sim.Minute)
	if !res.AllDone {
		t.Fatal("not done")
	}
	for r := 0; r < 3; r++ {
		if res.MDSCounters[r].Served < 1500 {
			t.Fatalf("rank %d served only %d", r, res.MDSCounters[r].Served)
		}
	}
	// Clients learn routing after at most one forward each.
	if res.TotalForwards > 10 {
		t.Fatalf("forwards = %d, expected a handful of first-touch forwards", res.TotalForwards)
	}
}

func workloadDir(i int) string {
	return map[int]string{0: "/client0", 1: "/client1", 2: "/client2"}[i]
}

func TestRunStopsAtDeadline(t *testing.T) {
	c, err := New(DefaultConfig(1, 1), noBalance())
	if err != nil {
		t.Fatal(err)
	}
	c.AddClient(workload.SeparateDirCreates("", 0, 1_000_000))
	res := c.Run(2 * sim.Second)
	if res.AllDone {
		t.Fatal("cannot have finished a million creates in 2s")
	}
	if res.Duration != 2*sim.Second {
		t.Fatalf("duration = %v", res.Duration)
	}
	if res.TotalOps == 0 {
		t.Fatal("nothing completed")
	}
	if res.Makespan != 0 {
		t.Fatal("makespan should be 0 for unfinished runs")
	}
}

func TestThroughputSeriesRecorded(t *testing.T) {
	cfg := DefaultConfig(1, 3)
	cfg.ThroughputWindow = sim.Second
	c, err := New(cfg, noBalance())
	if err != nil {
		t.Fatal(err)
	}
	c.AddClient(workload.SeparateDirCreates("", 0, 3000))
	res := c.Run(10 * sim.Minute)
	if res.TotalSeries.Len() == 0 || res.Throughput[0].Len() == 0 {
		t.Fatal("no throughput series")
	}
	if res.TotalSeries.Sum() == 0 {
		t.Fatal("empty throughput")
	}
	if res.AggregateThroughput() <= 0 || res.MeanLatencyMs() <= 0 {
		t.Fatal("aggregates not computed")
	}
}

func TestLatencyRisesWithClientCount(t *testing.T) {
	// The Figure 5 mechanism: more closed-loop clients on one MDS pushes
	// latency up once the server saturates.
	lat := func(clients int) float64 {
		c, err := New(DefaultConfig(1, 9), noBalance())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < clients; i++ {
			c.AddClient(workload.SeparateDirCreates("", i, 3000))
		}
		res := c.Run(30 * sim.Minute)
		if !res.AllDone {
			t.Fatal("not done")
		}
		return res.MeanLatencyMs()
	}
	l1, l7 := lat(1), lat(7)
	if l7 <= l1*1.5 {
		t.Fatalf("latency did not rise under load: 1 client %.3f ms, 7 clients %.3f ms", l1, l7)
	}
}

func TestMkdirCollisionInSharedDir(t *testing.T) {
	// Client 0 mkdirs the shared dir; others start creating immediately
	// and must not error fatally (creates into a missing dir fail until
	// mkdir lands — the generator has client 0 mkdir first, and clients
	// 1-3 only create; with think time 0 ordering is still guaranteed
	// because all requests serialise through one MDS).
	c, err := New(DefaultConfig(1, 13), noBalance())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		c.AddClient(workload.SharedDirCreates("/dir", i, 100))
	}
	res := c.Run(5 * sim.Minute)
	if !res.AllDone {
		t.Fatal("not done")
	}
	// Allow a few initial errors from creates racing the mkdir.
	if res.ClientErrors[1] > 5 {
		t.Fatalf("client1 errors = %d", res.ClientErrors[1])
	}
}

func TestBalancerFactoryErrorPropagates(t *testing.T) {
	_, err := New(DefaultConfig(1, 1), LuaBalancers(core.Policy{When: `if (`}))
	if err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestHeartbeatsFlow(t *testing.T) {
	c, err := New(DefaultConfig(3, 17), noBalance())
	if err != nil {
		t.Fatal(err)
	}
	c.AddClient(workload.SeparateDirCreates("", 0, 5000))
	res := c.Run(5 * sim.Minute)
	for r, cnt := range res.MDSCounters {
		if cnt.HBsSent == 0 || cnt.HBsRecv == 0 {
			t.Fatalf("rank %d: HBs sent=%d recv=%d", r, cnt.HBsSent, cnt.HBsRecv)
		}
	}
	_ = res
}

func TestFragmentationAt50kDefault(t *testing.T) {
	cfg := DefaultConfig(1, 21)
	cfg.MDS.SplitSize = 1000
	c, err := New(cfg, noBalance())
	if err != nil {
		t.Fatal(err)
	}
	c.AddClient(workload.SharedDirCreates("/big", 0, 1500))
	res := c.Run(10 * sim.Minute)
	if !res.AllDone {
		t.Fatal("not done")
	}
	d, _ := c.NS.Resolve("/big")
	if d.FragTree().NumLeaves() != 8 {
		t.Fatalf("leaves = %d, want 8 after first split", d.FragTree().NumLeaves())
	}
	if res.TotalSplits != 1 {
		t.Fatalf("splits = %d", res.TotalSplits)
	}
	total := 0
	for _, f := range d.FragTree().Leaves() {
		fs, _ := d.FragStateOf(f)
		total += fs.Entries
	}
	if total != 1500 {
		t.Fatalf("entries after split = %d", total)
	}
}

var _ = mds.OpCreate // keep import if assertions above change

func TestFeedbackPolicyBalances(t *testing.T) {
	cfg := DefaultConfig(3, 31)
	cfg.MDS.HeartbeatInterval = sim.Second
	cfg.MDS.RebalanceDelay = 200 * sim.Millisecond
	c, err := New(cfg, LuaBalancers(core.Policies()["feedback"]))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.AddClient(workload.SeparateDirCreates("", i, 8000))
	}
	res := c.Run(30 * sim.Minute)
	if !res.AllDone {
		t.Fatalf("not done: %v", res.ClientOps)
	}
	if res.TotalExports == 0 {
		t.Fatal("feedback controller never migrated")
	}
	if res.PolicyErrors != 0 {
		t.Fatalf("policy errors = %d", res.PolicyErrors)
	}
	spread := 0
	for _, cnt := range res.MDSCounters {
		if cnt.Served > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("load never spread: served %v", res.MDSCounters)
	}
}

func TestCoalescePolicyBringsMetadataHome(t *testing.T) {
	cfg := DefaultConfig(3, 33)
	cfg.MDS.HeartbeatInterval = sim.Second
	cfg.MDS.RebalanceDelay = 100 * sim.Millisecond
	cfg.HalfLife = 2 * sim.Second // let heat die quickly after the burst
	c, err := New(cfg, LuaBalancers(core.CoalescePolicy(50)))
	if err != nil {
		t.Fatal(err)
	}
	// Flash crowd already over: trees pre-assigned away from rank 0.
	if err := c.PrePopulate([]string{"/a", "/b"}, true); err != nil {
		t.Fatal(err)
	}
	if err := c.PreAssign("/a", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.PreAssign("/b", 2); err != nil {
		t.Fatal(err)
	}
	// Light residual traffic keeps loads small but non-zero.
	c.AddClient(workload.Creates(workload.CreateConfig{Dir: "/a", Files: 3000, Prefix: "x"}))
	c.AddClient(workload.Creates(workload.CreateConfig{Dir: "/b", Files: 3000, Prefix: "y"}))
	// Keep the cluster alive after the burst so the calm detector can
	// observe the decayed load and migrate home.
	c.StopWhenDone = false
	res := c.Run(90 * sim.Second)
	if !res.AllDone {
		t.Fatal("not done")
	}
	// After the calm detector fires, the subtrees migrate back to rank 0.
	a, _ := c.NS.Resolve("/a")
	b, _ := c.NS.Resolve("/b")
	if c.NS.EffectiveAuth(a) != 0 || c.NS.EffectiveAuth(b) != 0 {
		t.Fatalf("metadata not coalesced home: /a on %d, /b on %d (exports %d)",
			c.NS.EffectiveAuth(a), c.NS.EffectiveAuth(b), res.TotalExports)
	}
	if res.TotalExports < 2 {
		t.Fatalf("exports = %d", res.TotalExports)
	}
}

func TestStateInRADOSEndToEnd(t *testing.T) {
	cfg := DefaultConfig(2, 35)
	cfg.MDS.HeartbeatInterval = sim.Second
	cfg.MDS.StateInRADOS = true
	c, err := New(cfg, LuaBalancers(core.FillAndSpillPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.AddClient(workload.SharedDirCreates("/shared", i, 6000))
	}
	res := c.Run(30 * sim.Minute)
	if !res.AllDone {
		t.Fatal("not done")
	}
	// Fill&Spill's WRstate streak counter must have landed in the store.
	obj, ok := c.Rados.Pool("cephfs_metadata").Stat("mds0-balstate")
	if !ok || len(obj.OMap) == 0 {
		t.Fatal("balancer state never persisted to the object store")
	}
	if res.PolicyErrors != 0 {
		t.Fatalf("policy errors = %d", res.PolicyErrors)
	}
}

func TestNamespaceInvariantsAfterRuns(t *testing.T) {
	// Heavy mixed runs must leave the namespace structurally sound.
	scenarios := []struct {
		name    string
		factory BalancerFactory
		shared  bool
	}{
		{"cephfs-separate", LuaBalancers(core.DefaultPolicy()), false},
		{"greedy-shared", LuaBalancers(core.GreedySpillPolicy()), true},
		{"tooaggr-separate", LuaBalancers(core.TooAggressivePolicy()), false},
	}
	for _, sc := range scenarios {
		cfg := DefaultConfig(3, 37)
		cfg.MDS.HeartbeatInterval = sim.Second
		cfg.MDS.RebalanceDelay = 150 * sim.Millisecond
		cfg.MDS.SplitSize = 3000
		cfg.MDS.MergeSize = 100
		c, err := New(cfg, sc.factory)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if sc.shared {
				c.AddClient(workload.SharedDirCreates("/shared", i, 5000))
			} else {
				c.AddClient(workload.SeparateDirCreates("", i, 5000))
			}
		}
		res := c.Run(30 * sim.Minute)
		if !res.AllDone {
			t.Fatalf("%s: not done", sc.name)
		}
		if err := c.NS.CheckInvariants(3, false); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
	}
}

func TestChurnWorkloadEndToEnd(t *testing.T) {
	// Scenario A: single MDS — directories fragment under churn and merge
	// all the way back once emptied.
	cfgA := DefaultConfig(1, 61)
	cfgA.MDS.SplitSize = 500
	cfgA.MDS.MergeSize = 100
	a, err := New(cfgA, noBalance())
	if err != nil {
		t.Fatal(err)
	}
	a.AddClient(workload.Churn(workload.ChurnConfig{
		Dir: "/churn", Files: 1500, Rounds: 3, Prefix: "f", Seed: 3,
	}))
	resA := a.Run(30 * sim.Minute)
	if !resA.AllDone || resA.ClientErrors[0] != 0 {
		t.Fatalf("A: done=%v errors=%v", resA.AllDone, resA.ClientErrors)
	}
	d, _ := a.NS.Resolve("/churn")
	if d.NumChildren() != 0 {
		t.Fatalf("A: %d leftovers", d.NumChildren())
	}
	if resA.TotalSplits == 0 {
		t.Fatal("A: never fragmented")
	}
	if d.FragTree().NumLeaves() != 1 {
		t.Fatalf("A: leaves = %d, want merged back to 1", d.FragTree().NumLeaves())
	}
	if err := a.NS.CheckInvariants(1, false); err != nil {
		t.Fatal(err)
	}

	// Scenario B: 2 MDS with the CephFS balancer migrating dirfrags —
	// frags whose siblings moved to another rank legitimately cannot
	// merge, but churn must stay error-free and structurally sound.
	cfgB := DefaultConfig(2, 61)
	cfgB.MDS.HeartbeatInterval = sim.Second
	cfgB.MDS.SplitSize = 500
	cfgB.MDS.MergeSize = 100
	b, err := New(cfgB, LuaBalancers(core.DefaultPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b.AddClient(workload.Churn(workload.ChurnConfig{
			Dir: "/churn" + string(rune('0'+i)), Files: 1500, Rounds: 3,
			Prefix: "f", Seed: int64(i),
		}))
	}
	resB := b.Run(30 * sim.Minute)
	if !resB.AllDone {
		t.Fatalf("B: not done: %v", resB.ClientOps)
	}
	for i, errs := range resB.ClientErrors {
		if errs != 0 {
			t.Fatalf("B: client %d had %d errors", i, errs)
		}
	}
	for i := 0; i < 3; i++ {
		dd, err := b.NS.Resolve("/churn" + string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if dd.NumChildren() != 0 {
			t.Fatalf("B: dir %d has %d leftovers", i, dd.NumChildren())
		}
	}
	if err := b.NS.CheckInvariants(2, false); err != nil {
		t.Fatal(err)
	}
}

func TestResultCSVWriters(t *testing.T) {
	cfg := DefaultConfig(2, 71)
	cfg.ThroughputWindow = sim.Second
	c, err := New(cfg, noBalance())
	if err != nil {
		t.Fatal(err)
	}
	c.AddClient(workload.SeparateDirCreates("", 0, 3000))
	c.AddClient(workload.SeparateDirCreates("", 1, 3000))
	res := c.Run(10 * sim.Minute)
	var tput, clients strings.Builder
	if err := res.WriteThroughputCSV(&tput); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteClientCSV(&clients); err != nil {
		t.Fatal(err)
	}
	tl := strings.Split(strings.TrimSpace(tput.String()), "\n")
	if tl[0] != "t_seconds,mds0,mds1,total" {
		t.Fatalf("tput header = %q", tl[0])
	}
	if len(tl) < 2 {
		t.Fatal("no throughput rows")
	}
	if cells := strings.Split(tl[1], ","); len(cells) != 4 {
		t.Fatalf("row cells = %v", cells)
	}
	cl := strings.Split(strings.TrimSpace(clients.String()), "\n")
	if len(cl) != 3 { // header + 2 clients
		t.Fatalf("client rows = %d", len(cl))
	}
	if !strings.HasPrefix(cl[1], "0,3001,") {
		t.Fatalf("client row = %q", cl[1])
	}
}

// TestPrePopulateTreeNames: the names PrePopulateTree builds without fmt are
// byte for byte what %s%07d printed, past seven digits too.
func TestPrePopulateTreeNames(t *testing.T) {
	for _, i := range []int{0, 7, 42, 999_999, 1_000_000, 9_999_999, 10_000_000, 12_345_678, 123_456_789} {
		if got, want := string(appendPadded([]byte("f"), i, 7)), fmt.Sprintf("%s%07d", "f", i); got != want {
			t.Errorf("index %d: %q, want %q", i, got, want)
		}
	}
	c, err := New(DefaultConfig(1, 1), noBalance())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	if err := c.PrePopulateTree("/pre/d00", "file", n); err != nil {
		t.Fatal(err)
	}
	d, err := c.NS.Resolve("/pre/d00")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("%s%07d", "file", i)
	}
	if got := d.ChildNames(); !slices.Equal(got, want) {
		t.Fatalf("children %d, want %d, first %q", len(got), n, got[:min(3, len(got))])
	}
}
