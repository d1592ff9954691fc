package mds

import (
	"strconv"
	"strings"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/core"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// harness wires N MDS ranks plus a recording client endpoint.
type harness struct {
	engine  *sim.Engine
	net     *simnet.Network
	ns      *namespace.Namespace
	mdss    []*MDS
	client  simnet.Addr
	replies []*Reply
	flushes int
	nextID  uint64
}

// cephfs builds Table 1's balancer as it ships.
func cephfs(t *testing.T) func() balancer.Balancer {
	return func() balancer.Balancer {
		b, err := core.NewLuaBalancer(core.DefaultPolicy(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

func newHarness(t *testing.T, n int, bal func() balancer.Balancer, tune func(*Config)) *harness {
	t.Helper()
	h := &harness{
		engine: sim.NewEngine(1),
		ns:     namespace.New(10 * sim.Second),
		client: simnet.Addr(9999),
	}
	h.net = simnet.New(h.engine, simnet.Config{Latency: 100 * sim.Microsecond})
	rc := rados.NewCluster(h.engine, rados.Config{OSDs: 4, PGs: 32, Replicas: 2, WriteLatency: 200, ReadLatency: 100})
	cfg := DefaultConfig()
	cfg.SvcJitterPct = 0 // deterministic service times for unit tests
	if tune != nil {
		tune(&cfg)
	}
	var addrs []simnet.Addr
	for r := 0; r < n; r++ {
		addrs = append(addrs, simnet.Addr(r))
	}
	for r := 0; r < n; r++ {
		m := New(namespace.Rank(r), addrs[r], h.engine, h.net, h.ns, rc.Pool("meta"), cfg, bal(), addrs)
		h.mdss = append(h.mdss, m)
	}
	h.net.Register(h.client, simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) {
		switch v := msg.(type) {
		case *Reply:
			h.replies = append(h.replies, v)
		case *SessionFlush:
			h.flushes++
		}
	}))
	return h
}

// do sends a request to rank and runs the engine to idle.
func (h *harness) do(rank int, op OpType, path string, dst ...string) *Reply {
	h.nextID++
	req := &Request{ID: h.nextID, Client: h.client, Op: op, Path: path, IssuedAt: h.engine.Now()}
	if len(dst) > 0 {
		req.DstPath = dst[0]
	}
	h.net.Send(h.client, simnet.Addr(rank), req)
	h.engine.RunUntilIdle()
	if len(h.replies) == 0 {
		return nil
	}
	return h.replies[len(h.replies)-1]
}

func noBal() balancer.Balancer { return balancer.NoBalancer{} }

func TestCreateAndStat(t *testing.T) {
	h := newHarness(t, 1, noBal, nil)
	if rep := h.do(0, OpMkdir, "/a"); rep.Err != "" {
		t.Fatalf("mkdir: %s", rep.Err)
	}
	if rep := h.do(0, OpCreate, "/a/f"); rep.Err != "" {
		t.Fatalf("create: %s", rep.Err)
	}
	if rep := h.do(0, OpGetattr, "/a/f"); rep.Err != "" {
		t.Fatalf("getattr: %s", rep.Err)
	}
	if rep := h.do(0, OpReaddir, "/a"); rep.Err != "" {
		t.Fatalf("readdir: %s", rep.Err)
	}
	n, err := h.ns.Resolve("/a/f")
	if err != nil || n.IsDir() {
		t.Fatalf("resolve: %v %v", n, err)
	}
	c := h.mdss[0].Counters
	if c.Served != 4 || c.Hits != 4 || c.Forwards != 0 || c.Errors != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestErrorReplies(t *testing.T) {
	h := newHarness(t, 1, noBal, nil)
	if rep := h.do(0, OpGetattr, "/missing"); rep.Err == "" {
		t.Fatal("stat of missing path should fail")
	}
	if rep := h.do(0, OpCreate, "/nodir/f"); rep.Err == "" {
		t.Fatal("create in missing dir should fail")
	}
	h.do(0, OpMkdir, "/a")
	if rep := h.do(0, OpMkdir, "/a"); rep.Err == "" {
		t.Fatal("duplicate mkdir should fail")
	}
	if rep := h.do(0, OpUnlink, "/a/none"); rep.Err == "" {
		t.Fatal("unlink missing should fail")
	}
	if h.mdss[0].Counters.Errors != 4 {
		t.Fatalf("errors = %d", h.mdss[0].Counters.Errors)
	}
}

func TestRenameAndUnlink(t *testing.T) {
	h := newHarness(t, 1, noBal, nil)
	h.do(0, OpMkdir, "/a")
	h.do(0, OpMkdir, "/b")
	h.do(0, OpCreate, "/a/f")
	if rep := h.do(0, OpRename, "/a/f", "/b/g"); rep.Err != "" {
		t.Fatalf("rename: %s", rep.Err)
	}
	if _, err := h.ns.Resolve("/b/g"); err != nil {
		t.Fatal("rename target missing")
	}
	if rep := h.do(0, OpUnlink, "/b/g"); rep.Err != "" {
		t.Fatalf("unlink: %s", rep.Err)
	}
	if _, err := h.ns.Resolve("/b/g"); err == nil {
		t.Fatal("unlinked file still present")
	}
}

func TestForwardToAuthority(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	h.do(0, OpMkdir, "/theirs")
	d, _ := h.ns.Resolve("/theirs")
	h.ns.SetAuthOverride(d, 1)
	// Request sent to rank 0 must be forwarded to rank 1 and succeed.
	rep := h.do(0, OpCreate, "/theirs/f")
	if rep.Err != "" {
		t.Fatalf("create: %s", rep.Err)
	}
	if rep.Served != 1 {
		t.Fatalf("served by %d, want 1", rep.Served)
	}
	if rep.Forwards != 1 {
		t.Fatalf("forwards = %d", rep.Forwards)
	}
	if h.mdss[0].Counters.Forwards != 1 || h.mdss[1].Counters.Hits != 1 {
		t.Fatalf("counters: m0=%+v m1=%+v", h.mdss[0].Counters, h.mdss[1].Counters)
	}
	// Reply hints teach the client the subtree authority.
	found := false
	for _, hint := range rep.Hints {
		if hint.DirPath == "/theirs" && hint.Rank == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("hints = %+v", rep.Hints)
	}
}

func TestHintForSubtreeTop(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	h.do(0, OpMkdir, "/a")
	h.do(0, OpMkdir, "/a/b")
	h.do(0, OpMkdir, "/a/b/c")
	a, _ := h.ns.Resolve("/a")
	h.ns.SetAuthOverride(a, 1)
	rep := h.do(1, OpCreate, "/a/b/c/f")
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	// The hint should name the subtree top /a, not the leaf dir.
	var got Hint
	for _, hint := range rep.Hints {
		got = hint
	}
	if got.DirPath != "/a" || got.Rank != 1 {
		t.Fatalf("hint = %+v", got)
	}
}

func TestFrozenRequestsDeferredAndReplayed(t *testing.T) {
	h := newHarness(t, 1, noBal, nil)
	h.do(0, OpMkdir, "/a")
	d, _ := h.ns.Resolve("/a")
	h.ns.Freeze(d, true)
	// Issue a create; it parks.
	h.nextID++
	h.net.Send(h.client, simnet.Addr(0), &Request{ID: h.nextID, Client: h.client, Op: OpCreate, Path: "/a/f"})
	h.engine.RunUntilIdle()
	if got := len(h.replies); got != 1 { // only the mkdir reply so far
		t.Fatalf("replies = %d", got)
	}
	if h.mdss[0].Counters.Deferred != 1 {
		t.Fatalf("deferred = %d", h.mdss[0].Counters.Deferred)
	}
	// Unfreeze and replay.
	h.ns.Freeze(d, false)
	h.mdss[0].retryDeferred()
	h.engine.RunUntilIdle()
	if len(h.replies) != 2 || h.replies[1].Err != "" {
		t.Fatalf("replies = %+v", h.replies)
	}
}

func TestSvcTimeReaddirScalesAndCaps(t *testing.T) {
	h := newHarness(t, 1, noBal, nil)
	m := h.mdss[0]
	h.do(0, OpMkdir, "/d")
	d, _ := h.ns.Resolve("/d")
	small := m.svcTime(&Request{Op: OpReaddir}, resolved{dir: d})
	for i := 0; i < 100000; i++ {
		h.ns.Create(d, nameOf(i), false)
	}
	big := m.svcTime(&Request{Op: OpReaddir}, resolved{dir: d})
	if big <= small {
		t.Fatalf("readdir svc did not scale: %v vs %v", small, big)
	}
	if big > m.cfg.ReaddirMaxSvc {
		t.Fatalf("readdir svc %v above cap", big)
	}
}

func nameOf(i int) string {
	const digits = "0123456789"
	buf := [8]byte{'f', '0', '0', '0', '0', '0', '0', '0'}
	for p := 7; i > 0 && p > 0; p-- {
		buf[p] = digits[i%10]
		i /= 10
	}
	return string(buf[:])
}

func TestDirfragSplitOnThreshold(t *testing.T) {
	h := newHarness(t, 1, noBal, func(c *Config) { c.SplitSize = 100; c.SplitBits = 2 })
	h.do(0, OpMkdir, "/d")
	for i := 0; i < 150; i++ {
		if rep := h.do(0, OpCreate, "/d/"+nameOf(i)); rep.Err != "" {
			t.Fatal(rep.Err)
		}
	}
	d, _ := h.ns.Resolve("/d")
	if d.FragTree().NumLeaves() != 4 {
		t.Fatalf("leaves = %d", d.FragTree().NumLeaves())
	}
	if h.mdss[0].Counters.Splits != 1 {
		t.Fatalf("splits = %d", h.mdss[0].Counters.Splits)
	}
}

func TestMigrationProtocolEndToEnd(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	h.do(0, OpMkdir, "/move")
	for i := 0; i < 20; i++ {
		h.do(0, OpCreate, "/move/"+nameOf(i))
	}
	d, _ := h.ns.Resolve("/move")
	m0 := h.mdss[0]
	unit := exportUnit{dir: d, load: 10}
	m0.startExport(unit, 1)
	// Mid-migration, the subtree is frozen.
	if !d.Frozen() {
		t.Fatal("unit not frozen at export start")
	}
	h.engine.RunUntilIdle()
	// Authority moved, freeze lifted, counters updated.
	if got := h.ns.EffectiveAuth(d); got != 1 {
		t.Fatalf("auth = %d", got)
	}
	if d.Frozen() {
		t.Fatal("still frozen after commit")
	}
	if m0.Counters.Exports != 1 || h.mdss[1].Counters.Imports != 1 {
		t.Fatalf("export/import counters: %d/%d", m0.Counters.Exports, h.mdss[1].Counters.Imports)
	}
	if m0.Counters.InodesMoved != 21 {
		t.Fatalf("inodes moved = %d", m0.Counters.InodesMoved)
	}
	// The client had a session with the exporter → one flush.
	if h.flushes != 1 || m0.Counters.SessionsSent != 1 {
		t.Fatalf("flushes = %d, sent = %d", h.flushes, m0.Counters.SessionsSent)
	}
	// Both sides journaled the 2PC.
	if m0.Journal().Flushed() == 0 || h.mdss[1].Journal().Flushed() == 0 {
		t.Fatal("missing journal entries")
	}
	// Requests during the freeze are deferred, then served by the importer.
	before := len(h.replies)
	h.mdss[1].startExport(exportUnit{dir: d, load: 1}, 0) // move it back
	h.nextID++
	h.net.Send(h.client, simnet.Addr(1), &Request{ID: h.nextID, Client: h.client, Op: OpCreate, Path: "/move/xx"})
	h.engine.RunUntilIdle()
	if len(h.replies) != before+1 {
		t.Fatalf("deferred request never replied")
	}
	last := h.replies[len(h.replies)-1]
	if last.Err != "" {
		t.Fatalf("deferred create failed: %s", last.Err)
	}
	if got := h.ns.EffectiveAuth(d); got != 0 {
		t.Fatalf("auth after move-back = %d", got)
	}
}

func TestFragMigration(t *testing.T) {
	h := newHarness(t, 2, noBal, func(c *Config) { c.SplitSize = 50; c.SplitBits = 1 })
	h.do(0, OpMkdir, "/d")
	for i := 0; i < 60; i++ {
		h.do(0, OpCreate, "/d/"+nameOf(i))
	}
	d, _ := h.ns.Resolve("/d")
	leaves := d.FragTree().Leaves()
	if len(leaves) < 2 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	fs, _ := d.FragStateOf(leaves[0])
	m0 := h.mdss[0]
	m0.startExport(exportUnit{dir: d, frag: leaves[0], isFrag: true, load: 5}, 1)
	if !fs.Frozen() {
		t.Fatal("frag not frozen")
	}
	h.engine.RunUntilIdle()
	if fs.Auth() != 1 {
		t.Fatalf("frag auth = %d", fs.Auth())
	}
	if fs.Frozen() {
		t.Fatal("frag still frozen")
	}
	// A dentry in the migrated frag now routes to rank 1.
	var inFrag string
	for i := 0; i < 60; i++ {
		if leaves[0].ContainsName(nameOf(i)) {
			inFrag = nameOf(i)
			break
		}
	}
	rep := h.do(0, OpGetattr, "/d/"+inFrag)
	if rep.Served != 1 || rep.Forwards != 1 {
		t.Fatalf("served=%d forwards=%d", rep.Served, rep.Forwards)
	}
	// Frag-split authority produces fragment hints.
	hasFragHint := false
	for _, hint := range rep.Hints {
		if len(hint.Frags) > 0 && hint.DirPath == "/d" {
			hasFragHint = true
		}
	}
	if !hasFragHint {
		t.Fatalf("hints = %+v", rep.Hints)
	}
}

func TestHeartbeatTickAndRebalanceWithCephFS(t *testing.T) {
	h := newHarness(t, 2, cephfs(t),
		func(c *Config) {
			c.HeartbeatInterval = 500 * sim.Millisecond
			c.RebalanceDelay = 100 * sim.Millisecond
		})
	// Build load first (RunUntilIdle would never return once tickers
	// run), then start the balancer tickers. Load lives in three
	// directories: a single unfragmented flat directory is not divisible
	// (CephFS moves its dirfrags only after a split), so give the
	// balancer subtree-sized units to work with.
	for d := 0; d < 3; d++ {
		dir := "/hot" + string(rune('0'+d))
		h.do(0, OpMkdir, dir)
		for i := 0; i < 150; i++ {
			h.do(0, OpCreate, dir+"/"+nameOf(i))
		}
	}
	for _, m := range h.mdss {
		m.Start()
	}
	// Let ticks fire: run for a few simulated seconds.
	h.engine.Run(h.engine.Now() + 3*sim.Second)
	for _, m := range h.mdss {
		m.Stop()
	}
	if h.mdss[0].Counters.HBsSent == 0 || h.mdss[1].Counters.HBsRecv == 0 {
		t.Fatal("heartbeats did not flow")
	}
	// CephFS policy on a loaded rank 0 vs idle rank 1 must have exported.
	if h.mdss[0].Counters.Exports == 0 {
		t.Fatal("no exports despite full imbalance")
	}
}

func TestTooManyForwardsFails(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	h.do(0, OpMkdir, "/a")
	req := &Request{ID: 77, Client: h.client, Op: OpCreate, Path: "/a/f", Hops: 17}
	d, _ := h.ns.Resolve("/a")
	h.ns.SetAuthOverride(d, 1)
	h.net.Send(h.client, simnet.Addr(0), req)
	h.engine.RunUntilIdle()
	last := h.replies[len(h.replies)-1]
	if last.Err == "" || !strings.Contains(last.Err, "forwards") {
		t.Fatalf("reply = %+v", last)
	}
}

func TestCPUWindowMeasurement(t *testing.T) {
	h := newHarness(t, 1, noBal, func(c *Config) { c.CPUNoise = 0 })
	m := h.mdss[0]
	h.do(0, OpMkdir, "/a")
	// Saturate the server for ~2 windows.
	for i := 0; i < 6000; i++ {
		h.nextID++
		h.net.Send(h.client, simnet.Addr(0), &Request{ID: h.nextID, Client: h.client, Op: OpCreate, Path: "/a/" + nameOf(i)})
	}
	h.engine.RunUntilIdle()
	m.rollWindows()
	// After the burst the last full window should show high utilisation
	// at some point; check req rate accounting instead (stable):
	if m.Counters.Served != 6001 {
		t.Fatalf("served = %d", m.Counters.Served)
	}
	if got := m.cpuSample(); got < 0 || got > 100 {
		t.Fatalf("cpu sample out of range: %v", got)
	}
	if m.memSample() <= 0 {
		t.Fatal("mem sample should be positive with cached inodes")
	}
}

func TestOpTypeStringsAndMutating(t *testing.T) {
	ops := map[OpType]string{
		OpCreate: "create", OpMkdir: "mkdir", OpGetattr: "getattr",
		OpLookup: "lookup", OpOpen: "open", OpReaddir: "readdir",
		OpUnlink: "unlink", OpRename: "rename", OpSetattr: "setattr",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d.String() = %q", op, op.String())
		}
	}
	if !OpCreate.Mutating() || OpGetattr.Mutating() || !OpRename.Mutating() {
		t.Fatal("Mutating misclassifies")
	}
	if OpType(99).String() == "" {
		t.Fatal("unknown op string empty")
	}
}

func TestExportUnitHelpers(t *testing.T) {
	h := newHarness(t, 1, noBal, nil)
	h.do(0, OpMkdir, "/u")
	h.do(0, OpCreate, "/u/f")
	d, _ := h.ns.Resolve("/u")
	u := exportUnit{dir: d}
	if u.path() != "/u" || u.nodeCount() != 2 {
		t.Fatalf("path=%q nodes=%d", u.path(), u.nodeCount())
	}
	uf := exportUnit{dir: d, frag: namespace.RootFrag, isFrag: true}
	if uf.nodeCount() != 2 { // 1 entry + 1
		t.Fatalf("frag nodes = %d", uf.nodeCount())
	}
	if !strings.Contains(uf.path(), "#") {
		t.Fatalf("frag path = %q", uf.path())
	}
}

func TestDirfragMergeOnShrink(t *testing.T) {
	h := newHarness(t, 1, noBal, func(c *Config) {
		c.SplitSize = 100
		c.SplitBits = 2
		c.MergeSize = 40
	})
	h.do(0, OpMkdir, "/d")
	for i := 0; i < 120; i++ {
		h.do(0, OpCreate, "/d/"+nameOf(i))
	}
	d, _ := h.ns.Resolve("/d")
	if d.FragTree().NumLeaves() != 4 {
		t.Fatalf("leaves = %d", d.FragTree().NumLeaves())
	}
	// Unlink down to below the merge threshold.
	for i := 0; i < 90; i++ {
		if rep := h.do(0, OpUnlink, "/d/"+nameOf(i)); rep.Err != "" {
			t.Fatal(rep.Err)
		}
	}
	if d.FragTree().NumLeaves() != 1 {
		t.Fatalf("leaves after shrink = %d, want merged to 1", d.FragTree().NumLeaves())
	}
	if h.mdss[0].Counters.Merges == 0 {
		t.Fatal("merge counter not bumped")
	}
	fs, _ := d.FragStateOf(namespace.RootFrag)
	if fs.Entries != 30 {
		t.Fatalf("entries = %d, want 30", fs.Entries)
	}
	// Creates keep working after the merge.
	if rep := h.do(0, OpCreate, "/d/postmerge"); rep.Err != "" {
		t.Fatal(rep.Err)
	}
}

func TestColdDirfragFetchUnderPressure(t *testing.T) {
	h := newHarness(t, 1, noBal, func(c *Config) {
		c.CacheCapacity = 10 // force pressure immediately
		c.CacheCoolTime = 1 * sim.Second
		c.FetchSvc = 500 * sim.Microsecond
	})
	h.do(0, OpMkdir, "/d")
	for i := 0; i < 30; i++ {
		h.do(0, OpCreate, "/d/"+nameOf(i))
	}
	base := h.mdss[0].Counters.Fetches
	// Let the frag go cold, then touch it: one fetch.
	h.engine.Run(h.engine.Now() + 5*sim.Second)
	rep := h.do(0, OpGetattr, "/d/"+nameOf(0))
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if h.mdss[0].Counters.Fetches != base+1 {
		t.Fatalf("fetches = %d, want %d", h.mdss[0].Counters.Fetches, base+1)
	}
	// Immediately touching again is warm: no new fetch.
	h.do(0, OpGetattr, "/d/"+nameOf(0))
	if h.mdss[0].Counters.Fetches != base+1 {
		t.Fatal("warm frag fetched again")
	}
	// The FETCH counter feeds the metaload formula.
	d, _ := h.ns.Resolve("/d")
	if d.Load(h.engine.Now()).Fetch <= 0 {
		t.Fatal("FETCH heat not recorded")
	}
}

func TestNoFetchWithoutPressure(t *testing.T) {
	h := newHarness(t, 1, noBal, func(c *Config) {
		c.CacheCapacity = 1_000_000
		c.CacheCoolTime = sim.Second
	})
	h.do(0, OpMkdir, "/d")
	h.do(0, OpCreate, "/d/f0000001")
	h.engine.Run(h.engine.Now() + 10*sim.Second)
	h.do(0, OpGetattr, "/d/f0000001")
	if h.mdss[0].Counters.Fetches != 0 {
		t.Fatalf("fetches = %d under no pressure", h.mdss[0].Counters.Fetches)
	}
}

// buildHotTree creates /top with nDirs child dirs, each carrying heat.
func buildHotTree(h *harness, nDirs, filesPer int) {
	h.do(0, OpMkdir, "/top")
	for d := 0; d < nDirs; d++ {
		dir := "/top/d" + string(rune('a'+d))
		h.do(0, OpMkdir, dir)
		for f := 0; f < filesPer; f++ {
			h.do(0, OpCreate, dir+"/"+nameOf(f))
		}
	}
}

func TestInitialUnitsExpandRootChildren(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	buildHotTree(h, 3, 20)
	units := h.mdss[0].initialUnits()
	// Root "/" expands to its child dirs: /top only.
	if len(units) != 1 || units[0].dir.Path() != "/top" {
		t.Fatalf("units = %d", len(units))
	}
	if units[0].load <= 0 {
		t.Fatal("unit load not computed")
	}
	// A non-root subtree root is itself a unit.
	top, _ := h.ns.Resolve("/top/da")
	h.ns.SetAuthOverride(top, 1)
	units1 := h.mdss[1].initialUnits()
	if len(units1) != 1 || units1[0].dir != top {
		t.Fatalf("rank1 units = %v", len(units1))
	}
}

func TestInitialUnitsFragRoots(t *testing.T) {
	h := newHarness(t, 2, noBal, func(c *Config) { c.SplitSize = 30; c.SplitBits = 1 })
	h.do(0, OpMkdir, "/d")
	for i := 0; i < 50; i++ {
		h.do(0, OpCreate, "/d/"+nameOf(i))
	}
	d, _ := h.ns.Resolve("/d")
	leaves := d.FragTree().Leaves()
	h.ns.SetFragAuth(d, leaves[0], 1)
	units := h.mdss[1].initialUnits()
	if len(units) != 1 || !units[0].isFrag || units[0].frag != leaves[0] {
		t.Fatalf("rank1 frag units = %+v", units)
	}
	// Frozen frag roots are skipped.
	h.ns.FreezeFrag(d, leaves[0], true)
	if got := h.mdss[1].initialUnits(); len(got) != 0 {
		t.Fatalf("frozen frag offered: %v", got)
	}
}

func TestDivisibleAndExpand(t *testing.T) {
	h := newHarness(t, 1, noBal, func(c *Config) { c.SplitSize = 30; c.SplitBits = 2 })
	m := h.mdss[0]
	// A dir of files only, unfragmented: not divisible.
	h.do(0, OpMkdir, "/flat")
	for i := 0; i < 10; i++ {
		h.do(0, OpCreate, "/flat/"+nameOf(i))
	}
	flat, _ := h.ns.Resolve("/flat")
	if m.divisible(exportUnit{dir: flat}) {
		t.Fatal("flat dir divisible")
	}
	// With a subdirectory it is divisible into child dirs.
	h.do(0, OpMkdir, "/flat/sub")
	if !m.divisible(exportUnit{dir: flat}) {
		t.Fatal("dir with subdir not divisible")
	}
	exp := m.expandDir(flat)
	if len(exp) != 1 || exp[0].dir.Path() != "/flat/sub" {
		t.Fatalf("expand = %v", exp)
	}
	// A fragmented dir expands into its owned frags.
	h.do(0, OpMkdir, "/big")
	for i := 0; i < 40; i++ {
		h.do(0, OpCreate, "/big/"+nameOf(i))
	}
	big, _ := h.ns.Resolve("/big")
	if big.FragTree().NumLeaves() != 4 {
		t.Fatalf("leaves = %d", big.FragTree().NumLeaves())
	}
	if !m.divisible(exportUnit{dir: big}) {
		t.Fatal("fragmented dir not divisible")
	}
	fragUnits := m.expandDir(big)
	if len(fragUnits) != 4 {
		t.Fatalf("frag units = %d", len(fragUnits))
	}
	for _, u := range fragUnits {
		if !u.isFrag {
			t.Fatal("expected frag units")
		}
	}
}

func TestSelectExportsDrillsIntoHotDir(t *testing.T) {
	h := newHarness(t, 2, noBal, func(c *Config) { c.SplitSize = 40; c.SplitBits = 2 })
	h.do(0, OpMkdir, "/hot")
	for i := 0; i < 60; i++ {
		h.do(0, OpCreate, "/hot/"+nameOf(i))
	}
	m := h.mdss[0]
	hot, _ := h.ns.Resolve("/hot")
	total := m.metaLoadOf(hot.Load(h.engine.Now()))
	// Ask for a quarter of the load: the whole dir overshoots, so the
	// selection must drill into dirfrags.
	units := m.selectExports(total/4, []string{"big_first"})
	if len(units) == 0 {
		t.Fatal("nothing selected")
	}
	for _, u := range units {
		if !u.isFrag {
			t.Fatalf("expected dirfrag selection, got %s", u.path())
		}
	}
	shipped := 0.0
	for _, u := range units {
		shipped += u.load
	}
	if shipped > total/4*m.cfg.OvershootFactor+1 {
		t.Fatalf("shipped %v far above target %v", shipped, total/4)
	}
}

func TestSelectExportsSkipsIndivisibleGiant(t *testing.T) {
	h := newHarness(t, 2, noBal, nil) // default split size: dir stays unfragmented
	h.do(0, OpMkdir, "/giant")
	for i := 0; i < 200; i++ {
		h.do(0, OpCreate, "/giant/"+nameOf(i))
	}
	m := h.mdss[0]
	giant, _ := h.ns.Resolve("/giant")
	total := m.metaLoadOf(giant.Load(h.engine.Now()))
	units := m.selectExports(total/10, []string{"big_first"})
	if len(units) != 0 {
		t.Fatalf("selected %d units; a flat dir 10x the target must be skipped", len(units))
	}
}

func TestSelectExportsTakesWholeSubtreesWhenSized(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	buildHotTree(h, 4, 25) // four roughly equal subtrees
	m := h.mdss[0]
	top, _ := h.ns.Resolve("/top")
	total := m.metaLoadOf(top.Load(h.engine.Now()))
	units := m.selectExports(total/2, []string{"big_first"})
	if len(units) < 1 {
		t.Fatal("nothing selected")
	}
	for _, u := range units {
		if u.isFrag {
			t.Fatal("expected whole-directory units")
		}
	}
}

func TestAccessors(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	m := h.mdss[1]
	if m.Rank() != 1 || m.Addr() != 1 || m.Balancer() == nil {
		t.Fatal("accessors")
	}
	if m.String() != "mds.1" {
		t.Fatalf("String = %q", m.String())
	}
	h.do(1, OpMkdir, "/x")
	if m.Sessions() != 1 {
		t.Fatalf("sessions = %d", m.Sessions())
	}
	if m.Crashed() {
		t.Fatal("fresh MDS crashed")
	}
}

func TestExportTimeoutUnfreezesAndCleansUp(t *testing.T) {
	h := newHarness(t, 2, noBal, func(c *Config) { c.ExportTimeout = 5 * sim.Second })
	h.do(0, OpMkdir, "/move")
	for i := 0; i < 10; i++ {
		h.do(0, OpCreate, "/move/"+nameOf(i))
	}
	d, _ := h.ns.Resolve("/move")
	m0 := h.mdss[0]
	// Importer unreachable: the discover is lost and the commit stalls.
	h.net.Partition(0, 1)
	h.net.Partition(1, 0)
	m0.startExport(exportUnit{dir: d, load: 5}, 1)
	if !d.Frozen() || m0.ExportsInFlight() != 1 || m0.activeExports != 1 {
		t.Fatal("export did not start")
	}
	// Park a request on the frozen unit; the abort must replay it.
	h.nextID++
	h.net.Send(h.client, simnet.Addr(0), &Request{ID: h.nextID, Client: h.client, Op: OpCreate, Path: "/move/parked"})
	h.engine.RunUntilIdle() // timeout fires at +5s
	if d.Frozen() {
		t.Fatal("unit still frozen after timeout")
	}
	if m0.ExportsInFlight() != 0 || m0.activeExports != 0 {
		t.Fatalf("leaked export state: inflight=%d active=%d", m0.ExportsInFlight(), m0.activeExports)
	}
	if m0.Counters.ExportAborts != 1 || m0.Counters.Exports != 0 {
		t.Fatalf("aborts=%d exports=%d", m0.Counters.ExportAborts, m0.Counters.Exports)
	}
	last := h.replies[len(h.replies)-1]
	if last.Err != "" {
		t.Fatalf("parked request failed after abort: %s", last.Err)
	}
	if _, err := h.ns.Resolve("/move/parked"); err != nil {
		t.Fatal("parked create not replayed after abort")
	}
}

func TestExportTimeoutCancelledOnCompletion(t *testing.T) {
	h := newHarness(t, 2, noBal, func(c *Config) { c.ExportTimeout = 5 * sim.Second })
	h.do(0, OpMkdir, "/move")
	for i := 0; i < 10; i++ {
		h.do(0, OpCreate, "/move/"+nameOf(i))
	}
	d, _ := h.ns.Resolve("/move")
	m0 := h.mdss[0]
	m0.startExport(exportUnit{dir: d, load: 5}, 1)
	// RunUntilIdle drains past the +5s timeout mark; a completed commit
	// must have cancelled it, so nothing aborts and nothing leaks.
	h.engine.RunUntilIdle()
	if m0.Counters.Exports != 1 || m0.Counters.ExportAborts != 0 {
		t.Fatalf("exports=%d aborts=%d", m0.Counters.Exports, m0.Counters.ExportAborts)
	}
	if m0.ExportsInFlight() != 0 || h.mdss[1].ImportsInFlight() != 0 {
		t.Fatal("leaked migration state after commit")
	}
	if h.ns.EffectiveAuth(d) != 1 || d.Frozen() {
		t.Fatal("commit did not take effect")
	}
}

func TestImporterDeathMidExportAborts(t *testing.T) {
	h := newHarness(t, 2, noBal, func(c *Config) { c.ExportTimeout = 5 * sim.Second })
	h.do(0, OpMkdir, "/move")
	for i := 0; i < 10; i++ {
		h.do(0, OpCreate, "/move/"+nameOf(i))
	}
	d, _ := h.ns.Resolve("/move")
	m0, m1 := h.mdss[0], h.mdss[1]
	m0.startExport(exportUnit{dir: d, load: 5}, 1)
	// Let the discover/prep round trip land, then kill the importer before
	// the payload arrives.
	h.engine.Run(h.engine.Now() + 300*sim.Microsecond)
	m1.Crash()
	h.engine.RunUntilIdle()
	if d.Frozen() {
		t.Fatal("unit wedged after importer death")
	}
	if m0.Counters.ExportAborts != 1 || m0.ExportsInFlight() != 0 || m0.activeExports != 0 {
		t.Fatalf("exporter state: aborts=%d inflight=%d active=%d",
			m0.Counters.ExportAborts, m0.ExportsInFlight(), m0.activeExports)
	}
	if m1.ImportsInFlight() != 0 {
		t.Fatal("importer leaked import state across crash")
	}
	if h.ns.EffectiveAuth(d) != 0 {
		t.Fatal("authority moved despite aborted commit")
	}
}

func TestCrashMidExportUnfreezesUnits(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	h.do(0, OpMkdir, "/move")
	for i := 0; i < 10; i++ {
		h.do(0, OpCreate, "/move/"+nameOf(i))
	}
	d, _ := h.ns.Resolve("/move")
	m0 := h.mdss[0]
	m0.startExport(exportUnit{dir: d, load: 5}, 1)
	if !d.Frozen() {
		t.Fatal("not frozen at export start")
	}
	m0.Crash()
	if d.Frozen() {
		t.Fatal("crash left the unit frozen")
	}
	if m0.ExportsInFlight() != 0 || m0.activeExports != 0 {
		t.Fatal("crash left export state behind")
	}
	// Stray in-flight protocol messages must be harmless.
	h.engine.RunUntilIdle()
	if h.ns.EffectiveAuth(d) != 0 {
		t.Fatal("authority moved after exporter crash")
	}
}

func TestImportTimeoutRollsBackIntent(t *testing.T) {
	h := newHarness(t, 2, noBal, func(c *Config) { c.ExportTimeout = 5 * sim.Second })
	m1 := h.mdss[1]
	h.do(0, OpMkdir, "/ghost")
	// A discover whose exporter has no matching state: the prep is ignored
	// and the payload never comes, so the importer's cleanup timer must
	// roll back the journaled intent.
	h.net.Send(simnet.Addr(0), simnet.Addr(1), &exportDiscover{
		ExportID: 0xdead, From: 0, Path: "/ghost", Nodes: 1,
	})
	h.engine.Run(h.engine.Now() + sim.Second)
	if m1.ImportsInFlight() != 1 {
		t.Fatalf("imports in flight = %d", m1.ImportsInFlight())
	}
	flushedBefore := m1.Journal().Flushed()
	h.engine.RunUntilIdle()
	if m1.ImportsInFlight() != 0 {
		t.Fatal("import state leaked past timeout")
	}
	if m1.Counters.ImportAborts != 1 {
		t.Fatalf("import aborts = %d", m1.Counters.ImportAborts)
	}
	if m1.Journal().Flushed() <= flushedBefore {
		t.Fatal("no rollback entry journaled")
	}
}

// TestSaturatedRankExports: a rank whose queue never empties still packs
// and commits its exports. Requests arrive open-loop faster than rank 0
// serves them: getattrs of the root, which no export moves, and creates in
// three directories, which give the balancer something to export. Its queue
// only grows, so it is never idle between two requests, and an export must
// take its turn at the end of a service interval. At the end no request is left parked on a frozen unit.
func TestSaturatedRankExports(t *testing.T) {
	h := newHarness(t, 2, cephfs(t),
		func(c *Config) {
			c.HeartbeatInterval = 500 * sim.Millisecond
			c.RebalanceDelay = 100 * sim.Millisecond
		})
	for d := 0; d < 3; d++ {
		h.do(0, OpMkdir, "/hot"+strconv.Itoa(d))
	}
	const loop = simnet.Addr(7777)
	h.net.Register(loop, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) {}))
	stop, next := false, 0
	var arrive func()
	arrive = func() {
		if stop {
			return
		}
		next++
		req := &Request{ID: uint64(next), Client: loop, Op: OpGetattr, Path: "/"}
		if next%4 == 0 {
			req.Op, req.Path = OpCreate, "/hot"+strconv.Itoa(next/4%3)+"/"+nameOf(next)
		}
		h.net.Send(loop, 0, req)
		h.engine.Schedule(50*sim.Microsecond, arrive)
	}
	arrive()
	m := h.mdss[0]
	for _, r := range h.mdss {
		r.Start()
	}
	saturated := 0
	for end := h.engine.Now() + 3*sim.Second; h.engine.Now() < end; {
		h.engine.Run(h.engine.Now() + 100*sim.Millisecond)
		if m.busy && m.QueueLen() > 0 {
			saturated++
		}
	}
	if saturated < 28 {
		t.Fatalf("rank 0 was saturated at only %d of 30 samples: the scenario does not load it", saturated)
	}
	if m.Counters.Exports == 0 {
		t.Fatalf("a saturated rank 0 committed no export (%d aborts, %d in flight)",
			m.Counters.ExportAborts, m.ExportsInFlight())
	}
	stop = true
	for _, r := range h.mdss {
		r.Stop()
	}
	h.engine.RunUntilIdle()
	for _, r := range h.mdss {
		if len(r.deferred) != 0 || r.ExportsInFlight() != 0 || r.QueueLen() != 0 {
			t.Fatalf("rank %d ended with %d deferred, %d queued, %d exports in flight",
				r.rank, len(r.deferred), r.QueueLen(), r.ExportsInFlight())
		}
	}
}
