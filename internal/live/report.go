package live

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"mantle/internal/elastic"
	"mantle/internal/mds"
	"mantle/internal/telemetry"
)

// Report summarises one live run.
type Report struct {
	// Duration is the configured load duration (arrival window).
	Duration time.Duration

	// Issued counts arrivals dispatched; Completed, ops answered
	// successfully; Errors, ops answered with a non-shed failure; Sheds,
	// requests refused by admission control; Timeouts, ops abandoned with
	// no answer.
	Issued    uint64
	Completed uint64
	Errors    uint64
	Sheds     uint64
	Timeouts  uint64
	// Flushes counts session-flush stalls observed by the generator.
	Flushes uint64
	// Forwards counts MDS-to-MDS forwards observed on completed ops.
	Forwards uint64

	// Throughput is Completed per second of Duration.
	Throughput float64

	// Latency holds per-op latency in microseconds, measured from each op's
	// scheduled (open-loop) arrival. P* and Mean are milliseconds.
	Latency *telemetry.Histogram
	P50     float64
	P95     float64
	P99     float64
	Mean    float64
	// IssueLagMean and IssueLagMax are how late the generator issued its
	// arrivals, in milliseconds: from each op's scheduled arrival to the
	// clock reading of the pacer wake that issued it. The latency above
	// counts from the scheduled arrival, so it includes this lag.
	IssueLagMean float64
	IssueLagMax  float64

	// Balancing activity.
	Exports         uint64
	InodesMoved     uint64
	PolicyErrors    uint64
	PolicyFallbacks uint64
	Crashes         uint64
	Recoveries      uint64

	// PerRank carries each daemon's full counter block.
	PerRank []mds.Counters

	// Transport totals.
	Sent         uint64
	Delivered    uint64
	DroppedDead  uint64
	DroppedLoss  uint64
	DroppedPart  uint64
	DroppedStale uint64

	// Load-exchange plane. HBMode is "allpairs" or "aggregated"; HBMessages
	// and HBBytes count heartbeat-plane traffic (per-peer heartbeats,
	// monitor beacons, load maps) over the whole run; HBPerInterval
	// normalises messages to one balancer interval, the number the
	// complexity claim is about — O(ranks²) all-pairs vs O(ranks)
	// aggregated. LoadMapsRecv counts aggregated maps the ranks folded in.
	HBMode        string
	HBMessages    uint64
	HBBytes       uint64
	HBPerInterval float64
	LoadMapsRecv  uint64

	// Self-healing (zero unless the monitor was enabled). MonFailures is
	// rank-failed declarations; MonTakeovers, standby promotions;
	// StaleBeacons, beacons rejected by the epoch/sequence filters;
	// StaleRejects, namespace writes a fenced daemon refused; SelfFences,
	// daemons that discovered they were replaced and fenced themselves;
	// Reassigns, bounds moved off dead ranks: failed ranks with no standby
	// left, and draining ranks that crashed mid-leave.
	MonFailures  uint64
	MonTakeovers uint64
	StaleBeacons uint64
	StaleRejects uint64
	SelfFences   uint64
	Reassigns    uint64
	StandbysLeft int
	// Takeovers records each promotion with its measured MTTR
	// (declare→serving), which must fit the grace + replay budget.
	Takeovers []TakeoverEvent

	// Replication plane (all zero unless Config.Replication). ReplicaReads
	// counts reads served from a replica holder instead of forwarding;
	// ReplicaHitRate is that as a fraction of completed ops. Grants/Revokes/
	// RevokeAcks/ForcedRevokes trace the replicate-revoke protocol;
	// WriteStalls counts mutations parked behind a revoke round and
	// WriteConflicts counts writes that applied while a replica was still
	// granted (must be zero — the consistency invariant). ReplicaRouted and
	// Coalesced are client-side: reads sent to a non-auth holder by the
	// power-of-two-choices router, and duplicate lookups absorbed by the
	// singleflight table. RevokeMeanMs is mean revoke-round latency and
	// Invalidations counts replicas dropped instantly by namespace
	// mutations, migrations and membership changes.
	ReplicaReads          uint64
	ReplicaGrants         uint64
	ReplicaRevokes        uint64
	ReplicaRevokeAcks     uint64
	ReplicaWriteStalls    uint64
	ReplicaWriteConflicts uint64
	ReplicaForcedRevokes  uint64
	ReplicaRouted         uint64
	Coalesced             uint64
	ReplicaHitRate        float64
	RevokeMeanMs          float64
	Invalidations         uint64

	// WedgedMigrations is non-zero when drain timed out with two-phase
	// commits still in flight.
	WedgedMigrations int
	// InvariantViolation is the post-drain namespace check failure (""=ok).
	InvariantViolation string

	// Elastic membership (zero unless the coordinator was enabled).
	Membership []elastic.Event
	ElasticOps elastic.Counters
	// FinalRanks / PeakRanks bracket the active rank count over the run.
	FinalRanks int
	PeakRanks  int
}

// collect assembles the report after the actors have stopped.
func (rt *Runtime) collect(wedged int) *Report {
	rep := &Report{
		Duration:         rt.gen.cfg.Duration,
		Issued:           rt.gen.issued.Load(),
		Completed:        rt.gen.completed.Load(),
		Errors:           rt.gen.errors.Load(),
		Sheds:            rt.transport.Sheds.Load(),
		Timeouts:         rt.gen.timeouts.Load(),
		Flushes:          rt.gen.flushes.Load(),
		Forwards:         rt.gen.forwards.Load(),
		Sent:             rt.transport.Sent.Load(),
		Delivered:        rt.transport.Delivered.Load(),
		DroppedDead:      rt.transport.DroppedDead.Load(),
		DroppedLoss:      rt.transport.DroppedLoss.Load(),
		DroppedPart:      rt.transport.DroppedPart.Load(),
		DroppedStale:     rt.transport.DroppedStale.Load(),
		HBMessages:       rt.transport.HBMsgs.Load(),
		HBBytes:          rt.transport.HBBytes.Load(),
		WedgedMigrations: wedged,
	}
	rep.HBMode = "allpairs"
	if rt.cfg.HBAggregated {
		rep.HBMode = "aggregated"
	}
	hbIv := rt.cfg.MDS.HeartbeatInterval.Duration()
	if hbIv <= 0 {
		hbIv = 10 * time.Second // mds.Config default
	}
	if rep.Duration > 0 {
		rep.HBPerInterval = float64(rep.HBMessages) * hbIv.Seconds() / rep.Duration.Seconds()
	}
	rep.Latency = rt.gen.lat.Snapshot()
	rep.P50 = rep.Latency.Percentile(50) / 1000
	rep.P95 = rep.Latency.Percentile(95) / 1000
	rep.P99 = rep.Latency.Percentile(99) / 1000
	rep.Mean = rep.Latency.Mean() / 1000
	rep.IssueLagMean, rep.IssueLagMax, _ = rt.gen.issueLag()
	if s := rep.Duration.Seconds(); s > 0 {
		rep.Throughput = float64(rep.Completed) / s
	}
	fold := func(c mds.Counters) {
		rep.Exports += c.Exports
		rep.InodesMoved += c.InodesMoved
		rep.PolicyErrors += c.PolicyErrors
		rep.PolicyFallbacks += c.PolicyFallbacks
		rep.Crashes += c.Crashes
		rep.Recoveries += c.Recoveries
		rep.StaleRejects += c.StaleRejects
		rep.SelfFences += c.SelfFences
		rep.LoadMapsRecv += c.LoadMapsRecv
		rep.ReplicaReads += c.ReplicaReads
		rep.ReplicaGrants += c.ReplicaGrants
		rep.ReplicaRevokes += c.ReplicaRevokes
		rep.ReplicaRevokeAcks += c.ReplicaRevokeAcks
		rep.ReplicaWriteStalls += c.ReplicaWriteStalls
		rep.ReplicaWriteConflicts += c.ReplicaWriteConflicts
		rep.ReplicaForcedRevokes += c.ReplicaForcedRevokes
	}
	// Per-rank counters are folded shard by shard: snapshot the membership
	// once, then copy each daemon's counter block under that rank's own
	// shard lock. Nothing freezes the whole cluster — at 100+ ranks a
	// global pause here stalled every rank for the length of the pass.
	mdss := rt.members()
	rt.memberMu.RLock()
	retired := append([]mds.Counters(nil), rt.retired...)
	rt.memberMu.RUnlock()
	for r, m := range mdss {
		rt.shards[r].Lock()
		c := m.Counters
		rt.shards[r].Unlock()
		rep.PerRank = append(rep.PerRank, c)
		fold(c)
	}
	// Daemons retired by a shrink still count toward run totals.
	for _, c := range retired {
		fold(c)
	}
	if rt.mon != nil {
		// Monitor and takeover state live on the controller actor; the
		// actors have stopped, so its shard is uncontended here. Zombie
		// counters fold under each zombie's rank shard — a superseded
		// daemon keeps mutating them until it self-fences, so they are
		// snapshotted now, not at takeover time (counter conservation).
		cs := rt.ctrlShard()
		cs.Lock()
		rep.MonFailures = rt.mon.Failures
		rep.MonTakeovers = rt.mon.Takeovers
		rep.StaleBeacons = rt.mon.StaleBeacons
		rep.Reassigns = rt.reassigns
		rep.StandbysLeft = rt.membership.Standbys()
		for _, to := range rt.membership.Takeovers {
			rep.Takeovers = append(rep.Takeovers, TakeoverEvent{
				Rank:           int(to.Rank),
				Epoch:          to.Epoch,
				JournalEntries: to.Entries,
				Replay:         to.Replay.Duration(),
				MTTR:           (to.Serving - to.Declared).Duration(),
			})
		}
		zombies := append([]zombieMDS(nil), rt.zombies...)
		cs.Unlock()
		for _, z := range zombies {
			rt.shards[z.rank].Lock()
			c := z.m.Counters
			rt.shards[z.rank].Unlock()
			fold(c)
		}
	}
	if rt.repReg != nil {
		rep.ReplicaRouted = rt.gen.replicaRouted.Load()
		rep.Coalesced = rt.gen.coalesced.Load()
		st := rt.repReg.Stats()
		rep.Invalidations = st.Invalidations
		rep.RevokeMeanMs = float64(st.RevokeMean) / float64(time.Millisecond)
		if rep.Completed > 0 {
			rep.ReplicaHitRate = float64(rep.ReplicaReads) / float64(rep.Completed)
		}
	}
	rep.FinalRanks = len(mdss)
	rep.PeakRanks = len(mdss)
	if rt.coord != nil {
		cs := rt.ctrlShard()
		cs.Lock()
		rep.Membership = append(rep.Membership, rt.coord.Events...)
		rep.ElasticOps = rt.coord.Counters
		rep.Reassigns = rt.reassigns // forced leaves reassign without a monitor
		cs.Unlock()
		for _, e := range rep.Membership {
			if e.Active > rep.PeakRanks {
				rep.PeakRanks = e.Active
			}
		}
	}
	return rep
}

// Write renders a human-readable summary.
func (r *Report) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "duration %v\n", r.Duration)
	fmt.Fprintf(bw, "issued %d  completed %d (%.1f op/s)  sheds %d  errors %d  timeouts %d\n",
		r.Issued, r.Completed, r.Throughput, r.Sheds, r.Errors, r.Timeouts)
	fmt.Fprintf(bw, "latency ms: p50 %.3f  p95 %.3f  p99 %.3f  mean %.3f  (n=%d)  issue lag ms: mean %.3f  max %.3f\n",
		r.P50, r.P95, r.P99, r.Mean, r.Latency.N(), r.IssueLagMean, r.IssueLagMax)
	fmt.Fprintf(bw, "balancing: %d exports, %d inodes moved, %d forwards, %d policy errors, %d fallbacks\n",
		r.Exports, r.InodesMoved, r.Forwards, r.PolicyErrors, r.PolicyFallbacks)
	fmt.Fprintf(bw, "transport: %d sent, %d delivered, %d dropped-dead, %d dropped-loss\n",
		r.Sent, r.Delivered, r.DroppedDead, r.DroppedLoss)
	if r.HBMessages > 0 {
		fmt.Fprintf(bw, "load exchange: mode %s, %d hb msgs (%.1f/interval), %d hb bytes, %d load maps folded\n",
			r.HBMode, r.HBMessages, r.HBPerInterval, r.HBBytes, r.LoadMapsRecv)
	}
	if r.DroppedPart > 0 || r.DroppedStale > 0 {
		fmt.Fprintf(bw, "fencing: %d dropped-partition, %d dropped-stale-epoch, %d stale-beacons, %d stale-rejects, %d self-fences\n",
			r.DroppedPart, r.DroppedStale, r.StaleBeacons, r.StaleRejects, r.SelfFences)
	}
	if r.Crashes > 0 || r.Recoveries > 0 {
		fmt.Fprintf(bw, "faults: %d crashes, %d recoveries\n", r.Crashes, r.Recoveries)
	}
	if r.MonFailures > 0 || len(r.Takeovers) > 0 {
		fmt.Fprintf(bw, "monitor: %d failures declared, %d takeovers, %d reassigns, %d standbys left\n",
			r.MonFailures, r.MonTakeovers, r.Reassigns, r.StandbysLeft)
		for _, t := range r.Takeovers {
			fmt.Fprintf(bw, "  rank %d -> epoch %d: mttr %v (replay %v, %d journal entries)\n",
				t.Rank, t.Epoch, t.MTTR.Round(time.Millisecond), t.Replay.Round(time.Millisecond), t.JournalEntries)
		}
	}
	if len(r.Membership) > 0 {
		fmt.Fprintf(bw, "elastic: %d grows, %d shrinks (%d forced, %d join aborts, %d leave aborts), peak %d ranks, final %d\n",
			r.ElasticOps.Grows, r.ElasticOps.Shrinks, r.ElasticOps.ForcedLeaves,
			r.ElasticOps.JoinAborts, r.ElasticOps.LeaveAborts, r.PeakRanks, r.FinalRanks)
		for _, e := range r.Membership {
			fmt.Fprintf(bw, "  %s\n", e)
		}
	}
	if r.ReplicaGrants > 0 || r.ReplicaReads > 0 || r.Coalesced > 0 {
		fmt.Fprintf(bw, "replication: %d replica reads (%.1f%% of completed), %d grants, %d revokes (%d acks, %d forced, mean %.3f ms), %d invalidations\n",
			r.ReplicaReads, r.ReplicaHitRate*100, r.ReplicaGrants,
			r.ReplicaRevokes, r.ReplicaRevokeAcks, r.ReplicaForcedRevokes,
			r.RevokeMeanMs, r.Invalidations)
		fmt.Fprintf(bw, "  client: %d replica-routed reads, %d coalesced lookups; %d write stalls, %d write conflicts\n",
			r.ReplicaRouted, r.Coalesced, r.ReplicaWriteStalls, r.ReplicaWriteConflicts)
	}
	if r.WedgedMigrations > 0 {
		fmt.Fprintf(bw, "WEDGED: %d migrations still in flight after drain\n", r.WedgedMigrations)
	}
	if r.InvariantViolation != "" {
		fmt.Fprintf(bw, "INVARIANT VIOLATION: %s\n", r.InvariantViolation)
	}
	return bw.Flush()
}
