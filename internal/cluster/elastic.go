package cluster

import (
	"fmt"

	"mantle/internal/core"
	"mantle/internal/elastic"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/stats"
)

// Elastic membership: the coordinator grows and shrinks the active rank set
// at runtime through the elasticHost below. The cluster pre-provisions
// addresses for ranks [NumMDS, MaxMDS) (Config.MaxMDS); a grow builds the
// daemon for the next rank as a standby, then activates it and broadcasts
// the new size; a shrink drains the top rank through the ordinary two-phase
// migration path and retires it. Clients need no notification — they hold
// the full address table, and a request routed to a retired rank times out
// and retries from rank 0.

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
	jnl := rados.NewJournal(c.pool, "elastic", 0)
	co, err := elastic.New(c.Engine, (*elasticHost)(c), hook, jnl, ecfg)
	if err != nil {
		return nil, err
	}
	c.Elastic = co
	return co, nil
}

// elasticHost adapts the simulated cluster to elastic.Host. All methods run
// on the DES engine (the coordinator's clock), so they are free to mutate
// cluster state directly.
type elasticHost Cluster

func (h *elasticHost) c() *Cluster { return (*Cluster)(h) }

func (h *elasticHost) ActiveRanks() int { return len(h.c().MDSs) }

// Metrics feeds the when_elastic hook from each rank's last self-heartbeat.
// The simulator has no per-rank latency probe, so LatMS stays zero and sim
// policies vote on queue depth and load; the live runtime fills LatMS from
// its per-rank served-latency histograms.
func (h *elasticHost) Metrics() []core.ElasticRankMetrics {
	c := h.c()
	out := make([]core.ElasticRankMetrics, len(c.MDSs))
	for r, m := range c.MDSs {
		hb := m.LastHeartbeat()
		out[r] = core.ElasticRankMetrics{
			Queue: hb.Queue,
			Req:   hb.Req,
			CPU:   hb.CPU,
			Load:  hb.Auth,
		}
	}
	return out
}

func (h *elasticHost) SpawnStandby(rank namespace.Rank) error {
	c := h.c()
	if int(rank) != len(c.MDSs) {
		return fmt.Errorf("cluster: spawn for rank %d but active set is [0, %d)", rank, len(c.MDSs))
	}
	if int(rank) >= len(c.mdsAddrs) {
		return fmt.Errorf("cluster: rank %d beyond provisioned table", rank)
	}
	m, err := c.buildMDS(rank)
	if err != nil {
		return err
	}
	m.SetClusterSize(int(rank) + 1)
	for len(c.perMDS) <= int(rank) {
		c.perMDS = append(c.perMDS,
			stats.NewRateCounter(fmt.Sprintf("MDS%d", len(c.perMDS)), c.Cfg.ThroughputWindow))
	}
	c.wireMDS(m, c.perMDS[rank])
	c.MDSs = append(c.MDSs, m)
	return nil
}

func (h *elasticHost) ActivateRank(rank namespace.Rank, newSize int) {
	c := h.c()
	for _, m := range c.MDSs {
		m.SetClusterSize(newSize)
	}
	if c.Monitor != nil {
		c.Monitor.SetNumRanks(newSize)
	}
	c.MDSs[rank].Start()
}

func (h *elasticHost) AbortStandby(rank namespace.Rank) {
	c := h.c()
	m := c.MDSs[rank]
	m.Retire()
	c.retired = append(c.retired, m.Counters)
	c.MDSs = c.MDSs[:rank]
}

func (h *elasticHost) StartDrain(rank namespace.Rank)    { h.c().MDSs[rank].StartDrain() }
func (h *elasticHost) AbortDrain(rank namespace.Rank)    { h.c().MDSs[rank].AbortDrain() }
func (h *elasticHost) Draining(rank namespace.Rank) bool { return h.c().MDSs[rank].Draining() }
func (h *elasticHost) DrainComplete(rank namespace.Rank) bool {
	return h.c().MDSs[rank].DrainComplete()
}
func (h *elasticHost) RankCrashed(rank namespace.Rank) bool { return h.c().MDSs[rank].Crashed() }

func (h *elasticHost) RetireRank(rank namespace.Rank, newSize int) {
	c := h.c()
	m := c.MDSs[rank]
	m.Retire()
	c.retired = append(c.retired, m.Counters)
	c.MDSs = c.MDSs[:newSize]
	for _, s := range c.MDSs {
		s.SetClusterSize(newSize)
	}
	if c.Monitor != nil {
		c.Monitor.SetNumRanks(newSize)
	}
}

// ForceReassign round-robins every bound the dead draining rank still owns
// onto the surviving ranks [0, newSize) — the same mechanism as the
// monitor's OnFail reassignment, scoped to the leave in progress so a crash
// mid-handoff still converges to a consistent, smaller bound set.
func (h *elasticHost) ForceReassign(rank namespace.Rank, newSize int) {
	c := h.c()
	var live []namespace.Rank
	for r := 0; r < newSize && r < len(c.MDSs); r++ {
		if !c.MDSs[r].Crashed() {
			live = append(live, namespace.Rank(r))
		}
	}
	c.Reassigns += uint64(c.NS.ReassignBounds(rank, live))
}

var _ elastic.Host = (*elasticHost)(nil)

// RanksActive reports the current active rank count (tests and examples;
// equals Cfg.NumMDS until a membership change).
func (c *Cluster) RanksActive() int { return len(c.MDSs) }
