package main

import (
	"fmt"
	"math"
	"time"

	"mantle/internal/mds"
)

type metricDef struct{ name, unit string }

// perLayer lists the per-layer metrics in print order; BENCHMARK.json
// carries the same names.
var perLayer = append(append([]metricDef(nil), repCounters...), ladderTimes...)

// repCounters come from one repetition's public reports (cluster.Result,
// live.Report, mds.Counters, runtime.MemStats) and are 0 for a layer the
// workload does not pass through.
var repCounters = []metricDef{
	{"go.mallocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "fraction"},
	{"sim.ops_s", "1/s"},
	{"mds.hits_per_op", "count"},
	{"mds.forwards_per_op", "count"},
	{"mds.deferred", "count"},
	{"mds.exports", "count"},
	{"mds.splits", "count"},
	{"client.forwards_per_op", "count"},
	{"client.flushes", "count"},
	{"client.gave_up", "count"},
	{"live.msgs_per_op", "count"},
	{"live.forwards_per_op", "count"},
	{"live.hb_msgs_per_interval", "count"},
	{"live.exports", "count"},
	{"live.inodes_moved", "count"},
	{"live.p95_ms", "ms"},
	{"live.p99_ms", "ms"},
	{"live.mean_ms", "ms"},
	{"live.sheds", "count"},
	{"live.timeouts", "count"},
	{"live.errors", "count"},
	{"live.drain_ms", "ms"},
	{"replica.hit_frac", "fraction"},
	{"replica.routed_frac", "fraction"},
	{"replica.coalesced_frac", "fraction"},
	{"replica.grants", "count"},
	{"replica.revokes", "count"},
	{"replica.revoke_mean_ms", "ms"},
	{"replica.write_stalls", "count"},
	{"replica.write_conflicts", "count"},
}

// ladderTimes come from the layer ladder and do not depend on which
// workload's repetition ran before it, only on the stream it replays.
var ladderTimes = []metricDef{
	{"workload.compile_gen_ns_per_op", "ns"},
	{"namespace.resolve_ns", "ns"},
	{"namespace.create_ns", "ns"},
	{"namespace.create_unsharded_ns", "ns"},
	{"namespace.recordop_ns", "ns"},
	{"namespace.authload_us_64", "us"},
	{"namespace.children_us_10k", "us"},
	{"rados.journal_append_ns", "ns"},
	{"rados.placement_ns", "ns"},
	{"sim.event_ns", "ns"},
	{"sim.ticker_ns", "ns"},
	{"sim.wheel_arm_ns", "ns"},
	{"simnet.send_deliver_ns", "ns"},
	{"telemetry.observe_ns", "ns"},
	{"lua.run_ns", "ns"},
	{"lua.compile_us", "us"},
	{"core.compile_policy_us", "us"},
	{"core.metaload_ns", "ns"},
	{"core.mdsload_us_64", "us"},
	{"core.hooks_us_64", "us"},
	{"core.hooks_us_5", "us"},
	{"core.hooks_allocs_64", "count"},
	{"balancer.choose_frags_ns", "ns"},
	{"replica.grant_revoke_ns", "ns"},
	{"mds.serve_ns_per_op", "ns"},
	{"mds.tick_us_64", "us"},
	{"mds.tick_us_8", "us"},
	{"cluster.new_ms_64", "ms"},
	{"live.new_ms", "ms"},
	{"live.idle_cpu_ms_per_s", "ms/s"},
	{"trace.tick_ladder_us_64", "us"},
	{"trace.overhead_frac", "fraction"},
}

// ladderTicks is how many 64-rank balancing decisions the traced walk makes.
const ladderTicks = 20

// runTraced gives the per-layer numbers of one workload: the counters of
// one repetition, the ladder, and a Chrome trace of the walked ops and
// ticks. End-to-end metrics are never taken from this mode.
func runTraced(w *workloadDef, seed int64, sz sizes, out string) (*result, error) {
	if _, _, err := oneRep(w, seed, sz.warm()); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r, _, err := oneRep(w, seed, sz)
	if err != nil {
		return nil, fmt.Errorf("repetition: %w", err)
	}
	vals := counterMetrics(r)
	res := &result{Correct: true, Attempted: r.attempted, Failed: r.attempted - r.ok, Metrics: map[string]metric{}}
	r = nil // drops the cluster or runtime before the ladder allocates

	// The same walk with the recorder off, on, off: the difference is what
	// recording spans costs.
	ops := w.stream(seed, sz)
	off1, _ := walkOps(nil, ops)
	tr := newTracer()
	on, built := walkOps(tr, ops)
	off2, _ := walkOps(nil, ops)
	vals["trace.overhead_frac"] = float64(on)/math.Min(float64(off1), float64(off2)) - 1
	fullTick := walkTicks(tr, 64, ladderTicks)
	self, _ := tr.selfTimes()
	// What a rank of an idle cluster runs of the ladder each tick: the env,
	// MDSLoad for every rank, and a When that says no.
	idleTick := (self["balancer.env_build"] + self["core.mdsload"] + self["core.when"]) / ladderTicks
	vals["trace.tick_ladder_us_64"] = float64(idleTick) / float64(time.Microsecond)

	for k, v := range ladder(ops, built, sz) {
		vals[k] = v
	}

	fmt.Printf("%-32s %16s %s\n", "metric", "value", "unit")
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: no finite value", m.name)
		}
		fmt.Printf("%-32s %16.4f %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	fmt.Printf("walked %d ops of the workload's stream and %d ticks of 64 ranks; self time by span:\n", len(ops), ladderTicks)
	tr.printSelfTimes()
	fmt.Printf("tick: env build + MDSLoad x 64 + When sum to %.1f us (trace.tick_ladder_us_64); a rank-tick of an idle 64-rank cluster takes %.1f us (mds.tick_us_64): the ladder explains %.2f of it. A tick that also decides (Where, HowMuch, ChooseFrags over 1000 candidates) walks in %.1f us.\n",
		vals["trace.tick_ladder_us_64"], vals["mds.tick_us_64"], vals["trace.tick_ladder_us_64"]/vals["mds.tick_us_64"],
		float64(fullTick)/float64(time.Microsecond))
	if err := tr.writeChrome(out); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("Chrome trace of the first %d ops and the ticks: %s\n", chromeOps, out)
	return res, nil
}

// counterMetrics turns one repetition's public counters into per-layer
// metrics.
func counterMetrics(r *repResult) map[string]float64 {
	ops := float64(r.ok)
	v := map[string]float64{
		"go.mallocs_per_op":     float64(r.mem.mallocs) / ops,
		"go.alloc_bytes_per_op": float64(r.mem.bytes) / ops,
		"go.gc_cycles":          float64(r.mem.gcCycles),
		"go.gc_cpu_frac":        r.mem.gcCPUFrac,
	}
	for _, m := range repCounters {
		if _, ok := v[m.name]; !ok {
			v[m.name] = 0
		}
	}
	var perRank []mds.Counters
	if s := r.sim; s != nil {
		perRank = s.MDSCounters
		v["sim.ops_s"] = ops / r.wall.Seconds()
		fw := 0
		for _, f := range s.ClientForwards {
			fw += f
		}
		v["client.forwards_per_op"] = float64(fw) / ops
		v["client.flushes"] = float64(s.TotalFlushes)
		v["client.gave_up"] = float64(s.TotalGaveUp)
	}
	if l := r.live; l != nil {
		perRank = l.PerRank
		v["client.forwards_per_op"] = float64(l.Forwards) / ops
		v["client.flushes"] = float64(l.Flushes)
		v["client.gave_up"] = float64(l.Timeouts)
		v["live.msgs_per_op"] = float64(l.Sent) / ops
		v["live.forwards_per_op"] = float64(l.Forwards) / ops
		v["live.hb_msgs_per_interval"] = l.HBPerInterval
		v["live.exports"] = float64(l.Exports)
		v["live.inodes_moved"] = float64(l.InodesMoved)
		v["live.p95_ms"] = l.P95
		v["live.p99_ms"] = l.P99
		v["live.mean_ms"] = l.Mean
		v["live.sheds"] = float64(l.Sheds)
		v["live.timeouts"] = float64(l.Timeouts)
		v["live.errors"] = float64(l.Errors)
		v["live.drain_ms"] = float64(r.wall-l.Duration) / float64(time.Millisecond)
		v["replica.hit_frac"] = l.ReplicaHitRate
		v["replica.routed_frac"] = float64(l.ReplicaRouted) / ops
		v["replica.coalesced_frac"] = float64(l.Coalesced) / ops
		v["replica.grants"] = float64(l.ReplicaGrants)
		v["replica.revokes"] = float64(l.ReplicaRevokes)
		v["replica.revoke_mean_ms"] = l.RevokeMeanMs
		v["replica.write_stalls"] = float64(l.ReplicaWriteStalls)
		v["replica.write_conflicts"] = float64(l.ReplicaWriteConflicts)
	}
	var sum mds.Counters
	for _, c := range perRank {
		sum.Hits += c.Hits
		sum.Forwards += c.Forwards
		sum.Deferred += c.Deferred
		sum.Exports += c.Exports
		sum.Splits += c.Splits
	}
	v["mds.hits_per_op"] = float64(sum.Hits) / ops
	v["mds.forwards_per_op"] = float64(sum.Forwards) / ops
	v["mds.deferred"] = float64(sum.Deferred)
	v["mds.exports"] = float64(sum.Exports)
	v["mds.splits"] = float64(sum.Splits)
	return v
}
