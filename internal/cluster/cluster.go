// Package cluster wires the simulated system together: engine, network,
// object store, namespace, MDS ranks, and closed-loop clients. It is the
// entry point experiments and examples use — build a cluster, attach
// workloads, pick a balancer (Go-native or injected Mantle policy), run,
// and read the Result.
package cluster

import (
	"bufio"
	"fmt"
	"io"

	"mantle/internal/balancer"
	"mantle/internal/client"
	"mantle/internal/core"
	"mantle/internal/elastic"
	"mantle/internal/mds"
	"mantle/internal/mon"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/sim"
	"mantle/internal/simnet"
	"mantle/internal/stats"
	"mantle/internal/telemetry"
	"mantle/internal/workload"
)

// Config assembles the cost models of all substrates.
type Config struct {
	Seed   int64
	NumMDS int
	// MaxMDS pre-provisions the rank address table beyond NumMDS so the
	// elastic coordinator can grow the pool at runtime (0 = NumMDS, a
	// fixed-size cluster). Ranks [NumMDS, MaxMDS) have addresses reserved
	// but no daemons until a join activates them.
	MaxMDS           int
	Net              simnet.Config
	Rados            rados.Config
	MDS              mds.Config
	Client           client.Config
	HalfLife         sim.Time
	ThroughputWindow sim.Time
}

// DefaultConfig returns the calibrated defaults used across experiments.
func DefaultConfig(numMDS int, seed int64) Config {
	return Config{
		Seed:             seed,
		NumMDS:           numMDS,
		Net:              simnet.DefaultConfig(),
		Rados:            rados.DefaultConfig(),
		MDS:              mds.DefaultConfig(),
		Client:           client.DefaultConfig(),
		HalfLife:         10 * sim.Second,
		ThroughputWindow: 10 * sim.Second,
	}
}

// BalancerFactory builds one policy instance per rank (each MDS needs its
// own state; Lua policies each own a VM).
type BalancerFactory func(rank namespace.Rank) (balancer.Balancer, error)

// GoBalancers adapts a Go-native policy constructor.
func GoBalancers(make func() balancer.Balancer) BalancerFactory {
	return func(namespace.Rank) (balancer.Balancer, error) { return make(), nil }
}

// LuaBalancers builds per-rank Mantle balancers from an injected policy.
func LuaBalancers(p core.Policy) BalancerFactory {
	return func(namespace.Rank) (balancer.Balancer, error) {
		return core.NewLuaBalancer(p, core.Options{})
	}
}

// clientAddrBase offsets client addresses above MDS ranks.
const clientAddrBase = 1 << 16

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	Cfg     Config
	Engine  *sim.Engine
	Net     *simnet.Network
	Rados   *rados.Cluster
	NS      *namespace.Namespace
	MDSs    []*mds.MDS
	Clients []*client.Client

	mdsAddrs []simnet.Addr
	perMDS   []*stats.RateCounter
	total    *stats.RateCounter
	doneN    int
	started  bool
	factory  BalancerFactory
	pool     *rados.Pool
	retired  []mds.Counters
	standbys int

	// Monitor is non-nil after EnableFailover.
	Monitor *mon.Monitor

	// Elastic is non-nil after EnableElastic: the membership coordinator
	// that grows and shrinks the active rank set at runtime.
	Elastic *elastic.Coordinator

	// Reassigns counts bounds moved off dead ranks: by the monitor's
	// OnFail hook (failover with no standby left) and by an elastic leave
	// whose draining rank crashed (ForceReassign).
	Reassigns uint64

	// Tel is non-nil after EnableTelemetry.
	Tel *telemetry.Telemetry
	// folded tracks how much of each series collect() already exported to
	// the registry, so phased runs (multiple Run calls) don't double-count.
	folded struct {
		tput    []int
		total   int
		ops     int
		exports uint64
		inodes  uint64
	}

	// StopWhenDone (default true) ends Run as soon as every client
	// finishes. Disable it to watch post-job behaviour — e.g. balancers
	// coalescing metadata home after a flash crowd.
	StopWhenDone bool
}

// New builds a cluster with NumMDS ranks and no clients yet.
func New(cfg Config, factory BalancerFactory) (*Cluster, error) {
	if cfg.NumMDS <= 0 {
		return nil, fmt.Errorf("cluster: NumMDS must be positive")
	}
	if cfg.ThroughputWindow <= 0 {
		cfg.ThroughputWindow = 10 * sim.Second
	}
	engine := sim.NewEngine(cfg.Seed)
	net := simnet.New(engine, cfg.Net)
	rc := rados.NewCluster(engine, cfg.Rados)
	ns := namespace.New(cfg.HalfLife)
	c := &Cluster{
		Cfg:          cfg,
		Engine:       engine,
		Net:          net,
		Rados:        rc,
		NS:           ns,
		total:        stats.NewRateCounter("total", cfg.ThroughputWindow),
		StopWhenDone: true,
	}
	c.factory = factory
	maxRanks := cfg.NumMDS
	if cfg.MaxMDS > maxRanks {
		maxRanks = cfg.MaxMDS
	}
	for r := 0; r < maxRanks; r++ {
		c.mdsAddrs = append(c.mdsAddrs, simnet.Addr(r))
	}
	c.pool = rc.Pool("cephfs_metadata")
	for r := 0; r < cfg.NumMDS; r++ {
		m, err := c.buildMDS(namespace.Rank(r))
		if err != nil {
			return nil, err
		}
		m.SetClusterSize(cfg.NumMDS)
		rate := stats.NewRateCounter(fmt.Sprintf("MDS%d", r), cfg.ThroughputWindow)
		c.perMDS = append(c.perMDS, rate)
		c.wireMDS(m, rate)
		c.MDSs = append(c.MDSs, m)
	}
	return c, nil
}

// buildMDS constructs a daemon for a rank using the cluster's factory. The
// factory's balancer becomes the base version of a balancer.Versioned stack,
// so later InjectPolicy pushes have a trusted version to fall back to. A
// single-version stack is a pure pass-through: fault-free runs are
// bit-identical to an unwrapped balancer.
func (c *Cluster) buildMDS(rank namespace.Rank) (*mds.MDS, error) {
	bal, err := c.factory(rank)
	if err != nil {
		return nil, fmt.Errorf("cluster: balancer for rank %d: %w", rank, err)
	}
	return mds.New(rank, c.mdsAddrs[rank], c.Engine, c.Net, c.NS, c.pool, c.Cfg.MDS,
		balancer.NewVersioned(bal), c.mdsAddrs), nil
}

// InjectPolicy compiles p and pushes it as the newest balancer version on
// rank — deliberately without linting, the way a live cluster accepts an
// operator's script push. If the new version errors at runtime or emits
// targets that fail sanity checks, the rank's Versioned stack demotes it and
// reinstates the previous version (counted in Result.PolicyFallbacks).
func (c *Cluster) InjectPolicy(rank namespace.Rank, p core.Policy) error {
	if int(rank) < 0 || int(rank) >= len(c.MDSs) {
		return fmt.Errorf("cluster: rank %d out of range", rank)
	}
	lb, err := core.NewLuaBalancer(p, core.Options{})
	if err != nil {
		return fmt.Errorf("cluster: policy %s does not compile: %w", p.Name, err)
	}
	vb, ok := c.MDSs[rank].Balancer().(*balancer.Versioned)
	if !ok {
		return fmt.Errorf("cluster: rank %d balancer is not versioned", rank)
	}
	vb.Push(lb)
	return nil
}

func (c *Cluster) wireMDS(m *mds.MDS, rate *stats.RateCounter) {
	m.OnServed = func(m *mds.MDS, r *mds.Request) {
		rate.Tick(c.Engine.Now(), 1)
		c.total.Tick(c.Engine.Now(), 1)
	}
	if c.Monitor != nil {
		m.SetMonitor(c.Monitor.Addr())
	}
	if c.Tel != nil {
		m.SetTelemetry(c.Tel)
	}
}

// EnableTelemetry attaches a telemetry pipeline to every component: metric
// registry, request-lifecycle tracer, and the balancer flight recorder,
// per the enabled opts. Call any time before Run; components added later
// (failover replacements, new clients) are wired automatically. Telemetry
// is strictly passive — it never schedules events or consumes simulation
// randomness — so enabling it does not perturb the run.
func (c *Cluster) EnableTelemetry(opts telemetry.Options) *telemetry.Telemetry {
	t := telemetry.New(opts)
	c.Tel = t
	if t.Tracer != nil {
		t.Tracer.RegisterProcess(telemetry.PIDClients, "clients")
		t.Tracer.RegisterProcess(telemetry.PIDMDS, "mds")
		if t.NetTrace {
			t.Tracer.RegisterProcess(telemetry.PIDNet, "net")
		}
	}
	c.Net.SetTelemetry(t)
	c.Rados.SetTelemetry(t)
	for _, m := range c.MDSs {
		m.SetTelemetry(t)
	}
	for _, cl := range c.Clients {
		cl.SetTelemetry(t)
	}
	return t
}

// monAddr is where the monitor lives on the shared address space.
const monAddr = simnet.Addr(1 << 15)

// EnableFailover attaches a monitor with a pool of standby daemons: a rank
// whose beacons go silent past the grace period is fenced and replaced by a
// standby, which replays the failed rank's journal before serving (the MON
// role in the paper's testbed). Call before Run.
func (c *Cluster) EnableFailover(standbys int, mcfg mon.Config) {
	c.standbys = standbys
	c.Monitor = mon.New(monAddr, c.Engine, c.Net, len(c.MDSs), mcfg, c.takeOver)
	c.Monitor.OnFail = c.reassignSubtrees
	for r, m := range c.MDSs {
		m.SetMonitor(monAddr)
		_ = r
	}
}

// reassignSubtrees moves every partition bound owned by a dead rank onto the
// survivors, round-robin in deterministic path order. The monitor calls it
// when a rank is declared failed and no standby absorbed the failure —
// without it, the dead rank's subtrees would stay unanswerable forever.
func (c *Cluster) reassignSubtrees(failed namespace.Rank) {
	down := map[namespace.Rank]bool{failed: true}
	if c.Monitor != nil {
		for _, r := range c.Monitor.FailedRanks() {
			down[r] = true
		}
	}
	var live []namespace.Rank
	for r, m := range c.MDSs {
		if rank := namespace.Rank(r); !down[rank] && !m.Crashed() {
			live = append(live, rank)
		}
	}
	c.Reassigns += uint64(c.NS.ReassignBounds(failed, live))
}

// WedgedMigrations counts export/import state machines still in flight
// across all live daemons. After a run that should have quiesced, anything
// non-zero is a wedged migration.
func (c *Cluster) WedgedMigrations() int {
	n := 0
	for _, m := range c.MDSs {
		n += m.ExportsInFlight() + m.ImportsInFlight()
	}
	return n
}

// takeOver fences the failed daemon and promotes a standby after journal
// replay. Returns false when the standby pool is exhausted.
func (c *Cluster) takeOver(rank namespace.Rank) bool {
	if c.standbys <= 0 {
		return false
	}
	c.standbys--
	old := c.MDSs[rank]
	old.Crash() // fencing: idempotent if it already died
	replay := c.Cfg.MDS.RecoverBase + sim.Time(old.Journal().Flushed())*c.Cfg.MDS.RecoverPerEntry
	c.Engine.Schedule(replay, func() {
		if int(rank) >= len(c.MDSs) {
			// The elastic coordinator retired the rank while the
			// standby was replaying (forced leave won the race).
			c.standbys++
			return
		}
		if c.MDSs[rank] != old || !old.Crashed() {
			// The rank came back on its own during the replay (e.g. a
			// fault-plan recovery); return the standby to the pool.
			c.standbys++
			return
		}
		repl, err := c.buildMDS(rank)
		if err != nil {
			// A broken factory cannot be surfaced mid-simulation;
			// leave the rank down (the monitor keeps reporting it).
			c.standbys++
			return
		}
		c.retired = append(c.retired, old.Counters)
		repl.SetClusterSize(len(c.MDSs))
		c.wireMDS(repl, c.perMDS[rank])
		repl.Counters.Recoveries++
		c.MDSs[rank] = repl
		repl.Start()
	})
	return true
}

// AddClient attaches a closed-loop client running gen.
func (c *Cluster) AddClient(gen workload.Generator) *client.Client {
	id := len(c.Clients)
	cl := client.New(id, simnet.Addr(clientAddrBase+id), c.Engine, c.Net, c.Cfg.Client, gen, c.mdsAddrs)
	cl.OnDone = func(*client.Client) {
		c.doneN++
		if c.doneN == len(c.Clients) && c.StopWhenDone {
			c.Engine.Stop()
		}
	}
	if c.Tel != nil {
		cl.SetTelemetry(c.Tel)
	}
	c.Clients = append(c.Clients, cl)
	return cl
}

// PrePopulate creates paths directly in the namespace with no simulated
// cost (pre-existing trees for phase-two experiments).
func (c *Cluster) PrePopulate(paths []string, dirs bool) error {
	for _, p := range paths {
		if _, err := c.NS.CreatePath(p, dirs); err != nil {
			return err
		}
	}
	return nil
}

// PrePopulateTree creates a directory with n files named prefix%07d.
func (c *Cluster) PrePopulateTree(dir, prefix string, n int) error {
	if _, err := c.NS.CreatePath(dir, true); err != nil {
		return err
	}
	d, err := c.NS.Resolve(dir)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := c.NS.Create(d, fmt.Sprintf("%s%07d", prefix, i), false); err != nil {
			return err
		}
	}
	return nil
}

// PreAssign statically pins a subtree to a rank before the run (the
// "spread evenly/unevenly" configurations of Figure 3).
func (c *Cluster) PreAssign(path string, rank namespace.Rank) error {
	n, err := c.NS.Resolve(path)
	if err != nil {
		return err
	}
	if int(rank) >= len(c.MDSs) {
		return fmt.Errorf("cluster: rank %d out of range", rank)
	}
	c.NS.SetAuthOverride(n, rank)
	return nil
}

// Run starts everything and executes until all clients finish or maxDur of
// virtual time elapses, returning the collected results.
func (c *Cluster) Run(maxDur sim.Time) *Result {
	if !c.started {
		c.started = true
		for _, m := range c.MDSs {
			m.Start()
		}
		if c.Monitor != nil {
			c.Monitor.Start()
		}
		if c.Elastic != nil {
			c.Elastic.Start()
		}
		for _, cl := range c.Clients {
			cl.Start()
		}
	}
	c.Engine.Run(maxDur)
	for _, m := range c.MDSs {
		m.Stop()
	}
	if c.Monitor != nil {
		c.Monitor.Stop()
	}
	if c.Elastic != nil {
		c.Elastic.Stop()
	}
	return c.collect()
}

// Result summarises one run.
type Result struct {
	// Duration is the virtual time when the run ended.
	Duration sim.Time
	// Makespan is when the last client finished (0 if any never did).
	Makespan sim.Time
	// AllDone reports whether every client finished its workload.
	AllDone bool

	// PerMDS observability.
	MDSCounters []mds.Counters
	MDSSessions []int
	Throughput  []*stats.Series // per-MDS req/s over time
	TotalSeries *stats.Series

	// Per-client stats.
	ClientDone     []sim.Time
	ClientOps      []int
	ClientErrors   []int
	ClientLatency  []*stats.Sample
	ClientForwards []int
	ClientFlushes  []int
	ClientGaveUp   []int

	// Cluster-wide aggregates.
	TotalOps       int
	TotalForwards  uint64
	TotalHits      uint64
	TotalExports   uint64
	TotalInodes    uint64
	TotalSplits    uint64
	TotalSessions  int
	TotalFlushes   int
	PolicyErrors   uint64
	JournalEntries uint64

	// Robustness aggregates.
	PolicyFallbacks  uint64 // balancer versions demoted to last-known-good
	ExportAborts     uint64 // exports rolled back (timeout / importer death)
	ImportAborts     uint64 // import intents rolled back
	SubtreeReassigns uint64 // bounds moved off dead ranks (Cluster.Reassigns)
	TotalGaveUp      int    // client ops abandoned after the retry budget

	// Elastic membership (zero-valued unless EnableElastic was called).
	Elastic       elastic.Counters
	ElasticEvents []elastic.Event
	// FinalRanks / PeakRanks bracket the active rank count over the run.
	FinalRanks int
	PeakRanks  int
}

func (c *Cluster) collect() *Result {
	now := c.Engine.Now()
	res := &Result{Duration: now, AllDone: true}
	for r, m := range c.MDSs {
		res.MDSCounters = append(res.MDSCounters, m.Counters)
		res.MDSSessions = append(res.MDSSessions, m.Sessions())
		res.Throughput = append(res.Throughput, c.perMDS[r].Finish(now))
		res.TotalForwards += m.Counters.Forwards
		res.TotalHits += m.Counters.Hits
		res.TotalExports += m.Counters.Exports
		res.TotalInodes += m.Counters.InodesMoved
		res.TotalSplits += m.Counters.Splits
		res.TotalSessions += m.Sessions()
		res.PolicyErrors += m.Counters.PolicyErrors
		res.JournalEntries += m.Journal().Flushed()
		res.PolicyFallbacks += m.Counters.PolicyFallbacks
		res.ExportAborts += m.Counters.ExportAborts
		res.ImportAborts += m.Counters.ImportAborts
	}
	// Counters of daemons retired by failover still count.
	for _, cnt := range c.retired {
		res.TotalForwards += cnt.Forwards
		res.TotalHits += cnt.Hits
		res.TotalExports += cnt.Exports
		res.TotalInodes += cnt.InodesMoved
		res.TotalSplits += cnt.Splits
		res.PolicyErrors += cnt.PolicyErrors
		res.PolicyFallbacks += cnt.PolicyFallbacks
		res.ExportAborts += cnt.ExportAborts
		res.ImportAborts += cnt.ImportAborts
	}
	res.SubtreeReassigns = c.Reassigns
	res.FinalRanks = len(c.MDSs)
	res.PeakRanks = len(c.MDSs)
	if c.Elastic != nil {
		res.Elastic = c.Elastic.Counters
		res.ElasticEvents = append(res.ElasticEvents, c.Elastic.Events...)
		for _, e := range res.ElasticEvents {
			if e.Active > res.PeakRanks {
				res.PeakRanks = e.Active
			}
		}
	}
	res.TotalSeries = c.total.Finish(now)
	for _, cl := range c.Clients {
		if !cl.Done() {
			res.AllDone = false
		}
		if cl.DoneAt > res.Makespan {
			res.Makespan = cl.DoneAt
		}
		res.ClientDone = append(res.ClientDone, cl.DoneAt)
		res.ClientOps = append(res.ClientOps, cl.Completed)
		res.ClientErrors = append(res.ClientErrors, cl.Errors)
		res.ClientLatency = append(res.ClientLatency, &cl.Latency)
		res.ClientForwards = append(res.ClientForwards, cl.TotalForwards)
		res.ClientFlushes = append(res.ClientFlushes, cl.SessionFlushes)
		res.ClientGaveUp = append(res.ClientGaveUp, cl.GaveUp)
		res.TotalOps += cl.Completed
		res.TotalFlushes += cl.SessionFlushes
		res.TotalGaveUp += cl.GaveUp
	}
	if !res.AllDone {
		res.Makespan = 0
	}
	if c.Tel != nil && c.Tel.Reg != nil {
		c.foldTelemetry(res)
	}
	return res
}

// foldTelemetry copies run-level aggregates into the metric registry at
// collection time: the per-window throughput series (per rank and total)
// become histograms, so the exported CSV carries tput percentiles next to
// the hot-path metrics.
func (c *Cluster) foldTelemetry(res *Result) {
	reg := c.Tel.Reg
	for len(c.folded.tput) < len(res.Throughput) {
		c.folded.tput = append(c.folded.tput, 0)
	}
	for r, s := range res.Throughput {
		h := reg.Histogram("cluster.window_tput", r)
		for _, p := range s.Points[c.folded.tput[r]:] {
			h.Observe(p.V)
		}
		c.folded.tput[r] = len(s.Points)
	}
	h := reg.Histogram("cluster.window_tput", telemetry.NoRank)
	for _, p := range res.TotalSeries.Points[c.folded.total:] {
		h.Observe(p.V)
	}
	c.folded.total = len(res.TotalSeries.Points)
	reg.Counter("cluster.ops", telemetry.NoRank).Add(uint64(res.TotalOps - c.folded.ops))
	reg.Counter("cluster.exports", telemetry.NoRank).Add(res.TotalExports - c.folded.exports)
	reg.Counter("cluster.inodes_moved", telemetry.NoRank).Add(res.TotalInodes - c.folded.inodes)
	c.folded.ops = res.TotalOps
	c.folded.exports = res.TotalExports
	c.folded.inodes = res.TotalInodes
}

// MeanLatencyMs reports the all-client mean op latency in milliseconds.
func (r *Result) MeanLatencyMs() float64 {
	total := 0.0
	n := 0
	for _, s := range r.ClientLatency {
		total += s.Mean() * float64(s.N())
		n += s.N()
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// AggregateThroughput reports completed ops per second of virtual time.
func (r *Result) AggregateThroughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.TotalOps) / r.Duration.Seconds()
}

// WriteThroughputCSV emits the per-MDS and total throughput series as CSV
// (columns: window_start_s, mds0, mds1, ..., total) for external plotting.
func (r *Result) WriteThroughputCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "t_seconds")
	for i := range r.Throughput {
		fmt.Fprintf(bw, ",mds%d", i)
	}
	fmt.Fprintln(bw, ",total")
	rows := len(r.TotalSeries.Points)
	for _, s := range r.Throughput {
		if s.Len() > rows {
			rows = s.Len()
		}
	}
	for i := 0; i < rows; i++ {
		var t sim.Time
		if i < len(r.TotalSeries.Points) {
			t = r.TotalSeries.Points[i].T
		} else if len(r.Throughput) > 0 && i < r.Throughput[0].Len() {
			t = r.Throughput[0].Points[i].T
		}
		fmt.Fprintf(bw, "%.3f", t.Seconds())
		for _, s := range r.Throughput {
			v := 0.0
			if i < s.Len() {
				v = s.Points[i].V
			}
			fmt.Fprintf(bw, ",%.1f", v)
		}
		v := 0.0
		if i < len(r.TotalSeries.Points) {
			v = r.TotalSeries.Points[i].V
		}
		fmt.Fprintf(bw, ",%.1f\n", v)
	}
	return bw.Flush()
}

// WriteClientCSV emits per-client summary statistics as CSV.
func (r *Result) WriteClientCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "client,ops,errors,done_s,lat_mean_ms,lat_p99_ms,forwards,session_flushes")
	for i := range r.ClientOps {
		fmt.Fprintf(bw, "%d,%d,%d,%.3f,%.4f,%.4f,%d,%d\n",
			i, r.ClientOps[i], r.ClientErrors[i], r.ClientDone[i].Seconds(),
			r.ClientLatency[i].Mean(), r.ClientLatency[i].Percentile(99),
			r.ClientForwards[i], r.ClientFlushes[i])
	}
	return bw.Flush()
}
