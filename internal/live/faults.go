package live

import (
	"fmt"
	"time"

	"mantle/internal/balancer"
	"mantle/internal/core"
	"mantle/internal/faults"
	"mantle/internal/rados"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// ApplyFaults schedules a fault plan against the live runtime through the
// same applier the simulator runs (faults.Apply), driven off the wall clock
// instead of the virtual one: event times count from the call. Wildcard
// rank references expand against live membership at fire time, and
// faults.Mon as a link endpoint targets the monitor's address (expanding to
// nothing when self-healing is off). The plan's seed steers the transport's
// loss draws and the OSD error stream, but wall-clock runs are not
// reproducible. Call between New and Run, or mid-run to fire a plan from
// now.
func (rt *Runtime) ApplyFaults(p faults.Plan) error {
	return faults.Apply((*faultTarget)(rt), p)
}

// faultTarget adapts the runtime to faults.Target.
type faultTarget Runtime

func (t *faultTarget) rt() *Runtime { return (*Runtime)(t) }

func (t *faultTarget) After(d sim.Time, fn func()) { time.AfterFunc(d.Duration(), fn) }

// ProvisionedRanks is the whole address table: elastic growth may activate
// slots beyond the initial set before an event fires.
func (t *faultTarget) ProvisionedRanks() int      { return len(t.mdsAddrs) }
func (t *faultTarget) ActiveRanks() int           { return t.rt().ActiveRanks() }
func (t *faultTarget) RankAddr(r int) simnet.Addr { return t.mdsAddrs[r] }
func (t *faultTarget) Links() faults.Links        { return t.transport }
func (t *faultTarget) CrashRank(r int)            { t.rt().CrashRank(r) }
func (t *faultTarget) RecoverRank(r int)          { t.rt().RecoverRank(r, nil) }

func (t *faultTarget) MonAddr() (simnet.Addr, bool) { return liveMonAddr, t.mon != nil }

// SetOSDFault fans the fault out as posted closures: each rank owns a
// private object-store instance mutated on its actor.
func (t *faultTarget) SetOSDFault(slowFactor, errorProb float64, seed int64) {
	t.withStores(func(store *rados.Cluster) { store.SetFault(slowFactor, errorProb, seed) })
}

func (t *faultTarget) ClearOSDFault() { t.withStores((*rados.Cluster).ClearFault) }

// withStores posts fn against every active rank's object store on that
// rank's actor (membership snapshotted at call time).
func (t *faultTarget) withStores(fn func(*rados.Cluster)) {
	t.memberMu.RLock()
	stores := append([]*rados.Cluster(nil), t.radoses...)
	actors := append([]*actor(nil), t.actors...)
	t.memberMu.RUnlock()
	for i, store := range stores {
		store := store
		actors[i].post(func() { fn(store) })
	}
}

func (t *faultTarget) Grow() {
	if t.coord != nil {
		t.controller.post(func() { t.coord.Grow() })
	}
}

func (t *faultTarget) Shrink() {
	if t.coord != nil {
		t.controller.post(func() { t.coord.Shrink() })
	}
}

// InjectBrokenPolicy pushes a deliberately broken balancer version onto the
// rank's Versioned stack, on the rank's actor.
func (t *faultTarget) InjectBrokenPolicy(r int, mode string) {
	lb, err := core.NewLuaBalancer(core.BrokenPolicy(mode), core.Options{})
	if err != nil {
		// BrokenPolicy scripts compile by construction.
		panic(fmt.Sprintf("live: bad_policy on rank %d: %v", r, err))
	}
	t.memberMu.RLock()
	if r >= len(t.mdss) {
		t.memberMu.RUnlock()
		return
	}
	m, a := t.mdss[r], t.actors[r]
	t.memberMu.RUnlock()
	a.post(func() {
		if vb, ok := m.Balancer().(*balancer.Versioned); ok {
			vb.Push(lb)
		}
	})
}
