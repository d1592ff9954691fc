package mds

import (
	"sort"

	"mantle/internal/balancer"
	"mantle/internal/mon"
	"mantle/internal/namespace"
	"mantle/internal/telemetry"
	"mantle/internal/telemetry/flight"
)

// metaLoadOf applies the active metaload policy to a counter snapshot,
// counting (not propagating) policy failures so a broken script degrades to
// "no load seen" rather than wedging the MDS.
func (m *MDS) metaLoadOf(s namespace.CounterSnapshot) float64 {
	v, err := m.bal.MetaLoad(s)
	if err != nil {
		m.Counters.PolicyErrors++
		return 0
	}
	if v < 0 {
		return 0
	}
	return v
}

// cpuSample returns the instantaneous CPU measurement including the noise
// the paper blames for aggressive decisions (§2.2.2).
func (m *MDS) cpuSample() float64 {
	m.rollWindows()
	cpu := m.lastCPU
	if m.cfg.CPUNoise > 0 {
		cpu += (m.engine.Rand().Float64()*2 - 1) * m.cfg.CPUNoise
	}
	if cpu < 0 {
		cpu = 0
	}
	if cpu > 100 {
		cpu = 100
	}
	return cpu
}

// memSample reports cache pressure as percent of capacity.
func (m *MDS) memSample() float64 {
	if m.cfg.CacheCapacity <= 0 {
		return 0
	}
	owned := m.ns.OwnedNodes(m.numRanks)[m.rank]
	pct := float64(owned) / float64(m.cfg.CacheCapacity) * 100
	if pct > 100 {
		pct = 100
	}
	return pct
}

// balancerTick is the periodic "send HB" phase: package local metrics and
// broadcast them, then evaluate (slightly stale) cluster state shortly
// after.
func (m *MDS) balancerTick() {
	// A tick already posted when Stop cancelled the ticker still fires;
	// it must not beacon or arm another rebalance phase.
	if m.stopped {
		return
	}
	// Periodic mdsmap revalidation: a partitioned-but-alive daemon that
	// serves no traffic still discovers within one tick that the monitor
	// replaced it, because the store plane (where epochs live) remains
	// reachable when the message plane is cut.
	if m.superseded() {
		m.selfFence()
		return
	}
	m.rollWindows()
	reported := m.ns.AuthLoadOf(m.rank, m.numRanks, m.engine.Now(), m.metaLoadOf)
	if m.cfg.LoadNoisePct > 0 {
		reported *= 1 + (m.engine.Rand().Float64()*2-1)*m.cfg.LoadNoisePct/100
	}
	m.hbSeq++
	hb := Heartbeat{
		From:     m.rank,
		Seq:      m.hbSeq,
		Auth:     reported,
		All:      reported,
		CPU:      m.cpuSample(),
		Mem:      m.memSample(),
		Queue:    float64(m.QueueLen()),
		Req:      m.lastReqRate,
		Draining: m.draining,
	}
	// Replica-held load is work this rank does beyond its authority — the
	// paper's auth/all split, populated for the first time.
	if m.rep != nil {
		hb.All += m.replicaLoad()
	}
	m.hbData[m.rank] = hb
	if m.tel != nil {
		if m.gCPU != nil {
			m.gCPU.Set(hb.CPU)
			m.gQueue.Set(hb.Queue)
		}
		if tr := m.tracer(); tr != nil {
			tr.CounterEvent(telemetry.PIDMDS, int(m.rank), "heartbeat", "mds load",
				m.engine.Now(),
				telemetry.Arg{Key: "auth", Val: hb.Auth},
				telemetry.Arg{Key: "cpu", Val: hb.CPU},
				telemetry.Arg{Key: "queue", Val: hb.Queue})
		}
	}
	// Aggregated mode needs a monitor to aggregate; without one the rank
	// falls back to all-pairs rather than balancing blind.
	aggregated := m.cfg.HBAggregated && m.hasMon
	if m.hasMon {
		b := &mon.Beacon{Rank: m.rank, Seq: m.hbSeq, Epoch: m.epoch}
		if aggregated {
			// Piggyback the load vector on the beacon already in flight.
			// The jitter above (LoadNoisePct) is applied before the vector
			// is built, so the monitor aggregates exactly the numbers the
			// all-pairs path would have mailed to every peer.
			b.Load = &mon.RankLoad{
				Auth: hb.Auth, All: hb.All, CPU: hb.CPU,
				Mem: hb.Mem, Queue: hb.Queue, Req: hb.Req,
				Draining: hb.Draining,
			}
			if m.rep != nil {
				b.Load.Replicas = len(m.rep.Reg.HeldPaths(m.rank))
			}
		}
		m.net.Send(m.addr, m.monAddr, b)
	}
	if !aggregated {
		for r := 0; r < m.numRanks; r++ {
			if namespace.Rank(r) == m.rank {
				continue
			}
			hbCopy := hb
			m.net.Send(m.addr, m.peers[r], &hbCopy)
			m.Counters.HBsSent++
		}
	}
	if m.draining {
		m.engine.Schedule(m.cfg.RebalanceDelay, m.drainTick)
		return
	}
	m.engine.Schedule(m.cfg.RebalanceDelay, m.rebalance)
	if m.rep != nil {
		m.engine.Schedule(m.cfg.RebalanceDelay, m.replicaTick)
	}
}

// buildEnv assembles the Table 2 environment from the latest heartbeats.
// Ranks that have never sent a heartbeat appear as zeros — policies operate
// on the imperfect view, exactly as the paper describes.
func (m *MDS) buildEnv() *balancer.Env {
	e := &balancer.Env{WhoAmI: m.rank, State: m.balState}
	e.MDSs = make([]balancer.MDSMetrics, m.numRanks)
	for r := 0; r < m.numRanks; r++ {
		hb, ok := m.hbData[namespace.Rank(r)]
		if !ok {
			continue
		}
		e.MDSs[r] = balancer.MDSMetrics{
			Auth: hb.Auth, All: hb.All, CPU: hb.CPU,
			Mem: hb.Mem, Queue: hb.Queue, Req: hb.Req,
		}
	}
	own := m.hbData[m.rank]
	e.AuthMetaLoad = own.Auth
	e.AllMetaLoad = own.All
	return e
}

// applyLoadMap folds the monitor's aggregated load map into hbData, the same
// table all-pairs heartbeats populate — buildEnv, drain donor selection and
// the rebalance draining check all read one data path regardless of mode. A
// rank absent from the map (never reported, aged out, or declared failed) is
// deleted, giving buildEnv the documented never-sent-a-heartbeat zeros. The
// version check drops reordered older maps; the own-rank entry is never
// overwritten (local measurement at this tick beats the monitor's echo of
// the previous one).
func (m *MDS) applyLoadMap(lm *mon.LoadMap) {
	if lm.Version <= m.loadMapVer {
		return
	}
	m.loadMapVer = lm.Version
	m.Counters.LoadMapsRecv++
	n := len(lm.Loads)
	if n > m.numRanks {
		n = m.numRanks
	}
	for r := 0; r < n; r++ {
		rank := namespace.Rank(r)
		if rank == m.rank {
			continue
		}
		if lm.Present[r] {
			ld := lm.Loads[r]
			m.hbData[rank] = Heartbeat{
				From: rank, Auth: ld.Auth, All: ld.All, CPU: ld.CPU,
				Mem: ld.Mem, Queue: ld.Queue, Req: ld.Req,
				Draining: ld.Draining,
			}
		} else {
			delete(m.hbData, rank)
		}
	}
}

// rebalance is the "recv HB → migrate?" phase: scalarise loads, ask the
// policy when/where/how-much, then partition the namespace and start
// exports. When the flight recorder is on, the full environment, every hook
// verdict (or failure), and each started export are captured as one
// HeartbeatRecord.
func (m *MDS) rebalance() {
	if m.stopped || m.crashed || m.numRanks < 2 {
		return
	}
	e := m.buildEnv()
	var rec *telemetry.HeartbeatRecord
	if m.tel != nil && m.tel.Recorder != nil {
		rec = &telemetry.HeartbeatRecord{
			TUS:    int64(m.engine.Now()),
			Rank:   int(m.rank),
			Policy: m.bal.Name(),
		}
		defer func() {
			rec.Env = flight.EnvRecordOf(e)
			rec.State = telemetry.FormatState(m.balState.Read())
			m.tel.Recorder.Record(*rec)
		}()
	}
	// Drain balancer demotions no matter how the tick exits, so a fallback
	// is counted and lands in this heartbeat's flight record. Registered
	// after the record defer: LIFO order runs it first.
	if vb, ok := m.bal.(*balancer.Versioned); ok {
		defer func() {
			for _, d := range vb.DrainDemotions() {
				m.Counters.PolicyFallbacks++
				if rec != nil {
					rec.Fallbacks = append(rec.Fallbacks,
						d.From+" -> "+d.To+": "+d.Reason)
				}
			}
		}()
	}
	recErr := func(err error) {
		if rec != nil {
			rec.Errors = append(rec.Errors, err.Error())
		}
	}
	for r := 0; r < m.numRanks; r++ {
		load, err := m.bal.MDSLoad(namespace.Rank(r), e)
		if err != nil {
			m.Counters.PolicyErrors++
			recErr(err)
			return
		}
		if load < 0 {
			load = 0
		}
		e.MDSs[r].Load = load
		e.Total += load
	}
	ok, err := m.bal.When(e)
	if err != nil {
		m.Counters.PolicyErrors++
		recErr(err)
		return
	}
	if rec != nil {
		rec.When = ok
	}
	if !ok {
		return
	}
	targets, err := m.bal.Where(e)
	if err != nil {
		m.Counters.PolicyErrors++
		recErr(err)
		return
	}
	if err := targets.Validate(e); err != nil {
		m.Counters.PolicyErrors++
		recErr(err)
		return
	}
	if rec != nil {
		rec.Targets = flight.TargetsOf(targets)
	}
	selectors, err := m.bal.HowMuch(e)
	if err != nil {
		m.Counters.PolicyErrors++
		recErr(err)
		return
	}
	if rec != nil {
		rec.Selectors = selectors
	}
	// Serve the biggest targets first; stop when the export pipeline is
	// full.
	type tgt struct {
		rank namespace.Rank
		amt  float64
	}
	var order []tgt
	for r, amt := range targets {
		if amt > m.cfg.MinExportLoad {
			order = append(order, tgt{r, amt})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].amt != order[j].amt {
			return order[i].amt > order[j].amt
		}
		return order[i].rank < order[j].rank
	})
	for _, t := range order {
		if m.activeExports >= m.cfg.MaxConcurrentExports {
			break
		}
		// Never target a rank that is draining out of the cluster — it
		// would nack the discover anyway.
		if m.hbData[t.rank].Draining {
			continue
		}
		units := m.selectExports(t.amt, selectors)
		for _, u := range units {
			if m.activeExports >= m.cfg.MaxConcurrentExports {
				break
			}
			if rec != nil {
				rec.Decisions = append(rec.Decisions, telemetry.Decision{
					Path: u.path(), Dest: int(t.rank), Load: u.load, Nodes: u.nodeCount(),
				})
			}
			m.startExport(u, t.rank)
		}
	}
}

// initialUnits enumerates this rank's top-level export candidates: its
// subtree roots (excluding "/" itself, which is expanded instead).
func (m *MDS) initialUnits() []exportUnit {
	var out []exportUnit
	now := m.engine.Now()
	for _, root := range m.ns.SubtreeRoots(m.rank) {
		if root.IsFrag {
			fs, ok := root.Dir.FragStateOf(root.Frag)
			if !ok || fs.Frozen() {
				continue
			}
			out = append(out, exportUnit{
				dir: root.Dir, frag: root.Frag, isFrag: true,
				load: m.metaLoadOf(fs.Counters.Snapshot(now)),
			})
			continue
		}
		if root.Dir.IsRoot() {
			out = append(out, m.expandDir(root.Dir)...)
			continue
		}
		if root.Dir.Frozen() {
			continue
		}
		out = append(out, exportUnit{dir: root.Dir, load: m.metaLoadOf(root.Dir.Load(now))})
	}
	return out
}

// divisible reports whether a unit can be drilled into.
func (m *MDS) divisible(u exportUnit) bool {
	if u.isFrag {
		return false
	}
	return u.dir.NumFragLeaves() > 1 || u.dir.HasSubdir()
}

// expandDir lists the child units of a directory this rank owns: its leaf
// fragments when fragmented, otherwise its child directories.
func (m *MDS) expandDir(dir *namespace.Node) []exportUnit {
	now := m.engine.Now()
	var out []exportUnit
	if dir.NumFragLeaves() > 1 {
		for _, f := range dir.FragLeaves() {
			fs, ok := dir.FragStateOf(f)
			if !ok || fs.Frozen() {
				continue
			}
			owner := fs.Auth()
			if owner == namespace.RankNone {
				owner = m.ns.EffectiveAuth(dir)
			}
			if owner != m.rank {
				continue
			}
			out = append(out, exportUnit{
				dir: dir, frag: f, isFrag: true,
				load: m.metaLoadOf(fs.Counters.Snapshot(now)),
			})
		}
		return out
	}
	dir.Children(func(c *namespace.Node) bool {
		if c.IsDir() && !c.Frozen() && m.ns.EffectiveAuth(c) == m.rank {
			out = append(out, exportUnit{dir: c, load: m.metaLoadOf(c.Load(now))})
		}
		return true
	})
	return out
}

// selectExports partitions the namespace toward a target load: run the
// policy's dirfrag selectors over the current frontier, drill down when a
// selection is far too coarse (a whole subtree dwarfing the target) or when
// the target has not been reached — the traversal strategy of §3.2.
func (m *MDS) selectExports(target float64, selectors []string) []exportUnit {
	frontier := m.initialUnits()
	var out []exportUnit
	remaining := target
	for depth := 0; depth < m.cfg.MaxExportDepth; depth++ {
		// Drop units not worth moving.
		live := frontier[:0]
		for _, u := range frontier {
			if u.load > m.cfg.MinExportLoad {
				live = append(live, u)
			}
		}
		frontier = live
		if len(frontier) == 0 || remaining <= m.cfg.MinExportLoad {
			break
		}
		cands := make([]balancer.FragCandidate, len(frontier))
		for i, u := range frontier {
			cands[i] = balancer.FragCandidate{ID: i, Load: u.load}
		}
		chosen, shipped, _, err := balancer.ChooseFrags(selectors, cands, remaining)
		if err != nil {
			m.Counters.PolicyErrors++
			break
		}
		if len(chosen) == 0 {
			break
		}
		if shipped > remaining*m.cfg.OvershootFactor {
			// Far too coarse: drill into the largest divisible
			// chosen unit and retry at the finer granularity.
			drill := -1
			best := -1.0
			for _, id := range chosen {
				if m.divisible(frontier[id]) && frontier[id].load > best {
					best = frontier[id].load
					drill = id
				}
			}
			if drill >= 0 {
				expanded := m.expandDir(frontier[drill].dir)
				if len(expanded) > 0 {
					next := make([]exportUnit, 0, len(frontier)-1+len(expanded))
					next = append(next, frontier[:drill]...)
					next = append(next, frontier[drill+1:]...)
					next = append(next, expanded...)
					frontier = next
					continue
				}
			}
			// Nothing divisible. If one chosen unit alone dwarfs the
			// target, shipping it would thrash far more metadata than
			// asked for — drop it and retry with the rest. (A hot
			// flat directory is handled by fragmentation first, then
			// its dirfrags move; this mirrors CephFS not exporting
			// wildly past the target load.)
			worst := -1
			wload := -1.0
			for _, id := range chosen {
				if frontier[id].load > wload {
					wload = frontier[id].load
					worst = id
				}
			}
			if worst >= 0 && wload > remaining*m.cfg.OvershootFactor {
				next := make([]exportUnit, 0, len(frontier)-1)
				next = append(next, frontier[:worst]...)
				next = append(next, frontier[worst+1:]...)
				frontier = next
				continue
			}
			// Collective overshoot of modest units: accept.
		}
		chosenSet := make(map[int]bool, len(chosen))
		for _, id := range chosen {
			chosenSet[id] = true
		}
		var rest []exportUnit
		for i, u := range frontier {
			if chosenSet[i] {
				out = append(out, u)
				remaining -= u.load
			} else {
				rest = append(rest, u)
			}
		}
		if remaining <= m.cfg.MinExportLoad {
			break
		}
		// Target unmet: drill every divisible leftover for the next
		// round.
		var next []exportUnit
		expandedAny := false
		for _, u := range rest {
			if m.divisible(u) {
				if e := m.expandDir(u.dir); len(e) > 0 {
					next = append(next, e...)
					expandedAny = true
					continue
				}
			}
			next = append(next, u)
		}
		if !expandedAny {
			break
		}
		frontier = next
	}
	return out
}
