// Package flight bridges the telemetry flight-recorder record types and the
// balancer API: snapshotting a live balancer environment into a record, and
// re-feeding recorded environments through an alternate policy ("what-if"
// replay). It lives apart from package telemetry so that low-level packages
// the balancer depends on (rados) can import telemetry without a cycle.
package flight

import (
	"fmt"
	"sort"

	"mantle/internal/balancer"
	"mantle/internal/namespace"
	"mantle/internal/telemetry"
)

// EnvRecordOf snapshots a balancer environment (after MDSLoad scalarised the
// per-rank loads).
func EnvRecordOf(e *balancer.Env) telemetry.EnvRecord {
	rec := telemetry.EnvRecord{
		WhoAmI:       int(e.WhoAmI),
		Total:        e.Total,
		AuthMetaLoad: e.AuthMetaLoad,
		AllMetaLoad:  e.AllMetaLoad,
		MDSs:         make([]telemetry.RankMetrics, len(e.MDSs)),
	}
	for i, m := range e.MDSs {
		rec.MDSs[i] = telemetry.RankMetrics{
			Auth: m.Auth, All: m.All, CPU: m.CPU,
			Mem: m.Mem, Queue: m.Queue, Req: m.Req, Load: m.Load,
		}
	}
	return rec
}

// ToEnv rebuilds a balancer environment for replay. Load and Total are left
// zero: a replaying policy recomputes them with its own mdsload hook, exactly
// as the live rebalance does.
func ToEnv(e telemetry.EnvRecord, state balancer.StateStore) *balancer.Env {
	env := &balancer.Env{
		WhoAmI:       namespace.Rank(e.WhoAmI),
		AuthMetaLoad: e.AuthMetaLoad,
		AllMetaLoad:  e.AllMetaLoad,
		State:        state,
		MDSs:         make([]balancer.MDSMetrics, len(e.MDSs)),
	}
	for i, m := range e.MDSs {
		env.MDSs[i] = balancer.MDSMetrics{
			Auth: m.Auth, All: m.All, CPU: m.CPU,
			Mem: m.Mem, Queue: m.Queue, Req: m.Req,
		}
	}
	return env
}

// TargetsOf converts a targets map into a rank-sorted slice so the JSON
// encoding is deterministic.
func TargetsOf(t balancer.Targets) []telemetry.Target {
	out := make([]telemetry.Target, 0, len(t))
	for r, amt := range t {
		out = append(out, telemetry.Target{Rank: int(r), Load: amt})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// ReplayOutcome is one heartbeat's what-if result: the recorded entry next
// to the verdicts an alternate policy produces from the same environment.
type ReplayOutcome struct {
	// Rec is the recorded heartbeat.
	Rec telemetry.HeartbeatRecord
	// When is the alternate policy's migration verdict.
	When bool
	// Targets is the alternate where verdict (nil unless When).
	Targets []telemetry.Target
	// Selectors is the alternate how-much verdict (nil unless When).
	Selectors []string
	// Errors lists alternate-policy hook failures; any failure aborts the
	// tick with When=false, mirroring the live MDS.
	Errors []string
}

// WhenDiffers reports whether the alternate policy's migration verdict
// disagrees with the recorded one.
func (o ReplayOutcome) WhenDiffers() bool { return o.When != o.Rec.When }

// TargetsDiffer reports whether the two policies chose different
// destinations or amounts (only meaningful when both fired).
func (o ReplayOutcome) TargetsDiffer() bool {
	if len(o.Targets) != len(o.Rec.Targets) {
		return true
	}
	for i, t := range o.Targets {
		r := o.Rec.Targets[i]
		if t.Rank != r.Rank || t.Load != r.Load {
			return true
		}
	}
	return false
}

// Differs reports whether the alternate policy would have acted differently
// on this heartbeat.
func (o ReplayOutcome) Differs() bool { return o.WhenDiffers() || (o.When && o.TargetsDiffer()) }

// Replay re-feeds recorded environments through an alternate policy — the
// what-if analysis: "would this other balancer have migrated here?" without
// rerunning the simulation. factory builds one policy instance per recorded
// rank (per-rank state, like the live cluster); instances and their
// WRstate/RDstate persist across the records of a rank, so stateful policies
// (Fill & Spill) replay faithfully. Records are processed in log order.
func Replay(records []telemetry.HeartbeatRecord, factory func(rank int) (balancer.Balancer, error)) ([]ReplayOutcome, error) {
	type instance struct {
		bal   balancer.Balancer
		state balancer.StateStore
	}
	instances := map[int]*instance{}
	get := func(rank int) (*instance, error) {
		if inst, ok := instances[rank]; ok {
			return inst, nil
		}
		bal, err := factory(rank)
		if err != nil {
			return nil, fmt.Errorf("flight: replay policy for rank %d: %w", rank, err)
		}
		inst := &instance{bal: bal, state: &balancer.MemState{}}
		instances[rank] = inst
		return inst, nil
	}
	out := make([]ReplayOutcome, 0, len(records))
	for _, rec := range records {
		inst, err := get(rec.Rank)
		if err != nil {
			return nil, err
		}
		o := ReplayOutcome{Rec: rec}
		env := ToEnv(rec.Env, inst.state)
		fail := func(err error) {
			o.Errors = append(o.Errors, err.Error())
			o.When = false
			o.Targets = nil
			o.Selectors = nil
		}
		if err := balancer.ScoreAll(inst.bal, env); err != nil {
			fail(err)
		} else {
			ok, err := inst.bal.When(env)
			switch {
			case err != nil:
				fail(err)
			case ok:
				o.When = true
				targets, err := inst.bal.Where(env)
				if err == nil {
					err = targets.Validate(env)
				}
				if err != nil {
					fail(err)
					break
				}
				o.Targets = TargetsOf(targets)
				sels, err := inst.bal.HowMuch(env)
				if err != nil {
					fail(err)
					break
				}
				o.Selectors = sels
			}
		}
		out = append(out, o)
	}
	return out, nil
}
