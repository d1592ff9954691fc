package cluster

import (
	"fmt"

	"mantle/internal/balancer"
	"mantle/internal/core"
	"mantle/internal/elastic"
	"mantle/internal/mds"
	"mantle/internal/mon"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/simnet"
	"mantle/internal/stats"
)

// Rank membership — standby takeover, failed-rank reassignment and elastic
// growth and shrinkage — is internal/elastic's, shared with the live
// runtime; this file is the simulated cluster's seam under it. Everything
// runs on the DES engine, so the seam takes no locks. The cluster
// pre-provisions addresses for ranks [NumMDS, MaxMDS) (Config.MaxMDS).
// Clients need no membership notification: they hold the full address
// table, and a request routed to a retired rank times out and retries from
// rank 0.

// monAddr is where the monitor lives on the shared address space.
const monAddr = simnet.Addr(1 << 15)

// EnableFailover attaches a monitor with a pool of standby daemons: a rank
// whose beacons go silent past the grace period is fenced and replaced by a
// standby, which replays the failed rank's journal before serving (the MON
// role in the paper's testbed). Call before Run.
func (c *Cluster) EnableFailover(standbys int, mcfg mon.Config) {
	c.Monitor = c.members.NewMonitor(monAddr, c.Net, mcfg, standbys)
	for _, m := range c.MDSs {
		m.SetMonitor(monAddr)
	}
}

// EnableElastic attaches an elastic coordinator. whenElastic is the Lua
// when_elastic hook source ("" disables automatic voting — membership then
// only changes through explicit Grow/Shrink calls, e.g. from a fault plan;
// pass core.DefaultElasticScript for the built-in policy). Zero-value
// ecfg fields default as in elastic.New; ecfg.MaxRanks defaults to the
// provisioned address table. Call before Run.
func (c *Cluster) EnableElastic(ecfg elastic.Config, whenElastic string) (*elastic.Coordinator, error) {
	if c.Elastic != nil {
		return nil, fmt.Errorf("cluster: elastic coordinator already enabled")
	}
	if ecfg.MaxRanks == 0 {
		ecfg.MaxRanks = len(c.mdsAddrs)
	}
	if ecfg.MaxRanks > len(c.mdsAddrs) {
		return nil, fmt.Errorf("cluster: MaxRanks %d exceeds provisioned rank table %d (set Config.MaxMDS)",
			ecfg.MaxRanks, len(c.mdsAddrs))
	}
	var hook *core.ElasticHook
	if whenElastic != "" {
		h, err := core.NewElasticHook(whenElastic, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("cluster: when_elastic hook: %w", err)
		}
		hook = h
	}
	co, err := elastic.New(c.members, hook, rados.NewJournal(c.pool, "elastic", 0), ecfg)
	if err != nil {
		return nil, err
	}
	c.Elastic = co
	return co, nil
}

// RanksActive reports the current active rank count (tests and examples;
// equals Cfg.NumMDS until a membership change).
func (c *Cluster) RanksActive() int { return len(c.MDSs) }

// host is the simulated cluster's elastic.Host.
type host Cluster

func (h *host) c() *Cluster { return (*Cluster)(h) }

func (h *host) Ranks() int { return len(h.MDSs) }

func (h *host) WithRank(r namespace.Rank, fn func(elastic.Daemon)) { fn(h.MDSs[r]) }

// Build constructs a daemon with the cluster's factory, whose balancer
// becomes the base version of a balancer.Versioned stack so later
// InjectPolicy pushes have a trusted version to fall back to (a
// single-version stack is a pure pass-through). A replaced daemon's counters
// still count toward the run.
func (h *host) Build(rank namespace.Rank) error {
	c := h.c()
	bal, err := c.factory(rank)
	if err != nil {
		return fmt.Errorf("cluster: balancer for rank %d: %w", rank, err)
	}
	m := mds.New(rank, c.mdsAddrs[rank], c.Engine, c.Net, c.NS, c.pool, c.Cfg.MDS,
		balancer.NewVersioned(bal), c.mdsAddrs)
	if int(rank) < len(c.MDSs) {
		c.retired = append(c.retired, c.MDSs[rank].Counters)
		c.wireMDS(m, c.perMDS[rank])
		m.Counters.Recoveries++
		c.MDSs[rank] = m
		return nil
	}
	for len(c.perMDS) <= int(rank) {
		c.perMDS = append(c.perMDS,
			stats.NewRateCounter(fmt.Sprintf("MDS%d", len(c.perMDS)), c.Cfg.ThroughputWindow))
	}
	c.wireMDS(m, c.perMDS[rank])
	c.MDSs = append(c.MDSs, m)
	return nil
}

func (h *host) Truncate(n int) {
	for _, m := range h.MDSs[n:] {
		h.retired = append(h.retired, m.Counters)
	}
	h.MDSs = h.MDSs[:n]
}

func (h *host) SetSize(n int) {
	for _, m := range h.MDSs {
		m.SetClusterSize(n)
	}
	if h.Monitor != nil {
		h.Monitor.SetNumRanks(n)
	}
}

// Metrics feeds the when_elastic hook from each rank's last self-heartbeat.
// The simulator has no per-rank latency probe, so LatMS stays zero and sim
// policies vote on queue depth and load; the live runtime fills LatMS from
// its per-rank served-latency histograms.
func (h *host) Metrics() []core.ElasticRankMetrics {
	out := make([]core.ElasticRankMetrics, len(h.MDSs))
	for r, m := range h.MDSs {
		hb := m.LastHeartbeat()
		out[r] = core.ElasticRankMetrics{Queue: hb.Queue, Req: hb.Req, CPU: hb.CPU, Load: hb.Auth}
	}
	return out
}

// Fence crashes the daemon (idempotent if it already died): simulator
// daemons run at epoch 0, so no epoch fences them.
func (h *host) Fence(r namespace.Rank) { h.MDSs[r].Crash() }

func (h *host) Reassign(failed namespace.Rank, survivors []namespace.Rank) {
	h.Reassigns += uint64(h.NS.ReassignBounds(failed, survivors))
}

var _ elastic.Host = (*host)(nil)
