package cluster

import (
	"fmt"

	"mantle/internal/core"
	"mantle/internal/faults"
	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// ApplyFaults validates a fault plan and schedules its events on the
// engine, at their virtual times counted from the call. Call after New and
// before Run. An empty plan schedules nothing and seeds nothing, so the run
// stays bit-identical to one without a plan.
func (c *Cluster) ApplyFaults(p faults.Plan) error {
	return faults.Apply((*faultTarget)(c), p)
}

// faultTarget adapts the cluster to faults.Target.
type faultTarget Cluster

func (t *faultTarget) After(d sim.Time, fn func()) { t.Engine.Schedule(d, fn) }
func (t *faultTarget) ProvisionedRanks() int       { return len(t.mdsAddrs) }
func (t *faultTarget) ActiveRanks() int            { return len(t.MDSs) }
func (t *faultTarget) RankAddr(r int) simnet.Addr  { return t.mdsAddrs[r] }
func (t *faultTarget) Links() faults.Links         { return t.Net }
func (t *faultTarget) CrashRank(r int)             { t.MDSs[r].Crash() }
func (t *faultTarget) RecoverRank(r int)           { t.MDSs[r].Recover(nil) }
func (t *faultTarget) ClearOSDFault()              { t.Rados.ClearFault() }

func (t *faultTarget) MonAddr() (simnet.Addr, bool) { return monAddr, t.Monitor != nil }

func (t *faultTarget) SetOSDFault(slowFactor, errorProb float64, seed int64) {
	t.Rados.SetFault(slowFactor, errorProb, seed)
}

func (t *faultTarget) Grow() {
	if t.Elastic != nil {
		t.Elastic.Grow()
	}
}

func (t *faultTarget) Shrink() {
	if t.Elastic != nil {
		t.Elastic.Shrink()
	}
}

func (t *faultTarget) InjectBrokenPolicy(r int, mode string) {
	// Injection can only fail if the script does not compile;
	// BrokenPolicy's scripts compile by construction.
	if err := (*Cluster)(t).InjectPolicy(namespace.Rank(r), core.BrokenPolicy(mode)); err != nil {
		panic(fmt.Sprintf("cluster: bad_policy on rank %d: %v", r, err))
	}
}
