package mds

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/core"
	"mantle/internal/namespace"
	"mantle/internal/sim"
)

// refPriced is priced as it was before the batch: one Node.Load per
// directory unit, each a write hold and an op-log flush of its own.
func refPriced(m *MDS, units []exportUnit) []exportUnit {
	now := m.engine.Now()
	for i := range units {
		u := &units[i]
		if !u.isFrag {
			u.load = m.metaLoadOf(u.dir.Load(now))
		} else if fs, ok := u.dir.FragStateOf(u.frag); ok {
			u.load = m.metaLoadOf(fs.Counters.Snapshot(now))
		}
	}
	return units
}

// recordingBal prices with the CephFS scalarisation and logs every snapshot
// it is handed, by its bits, in call order.
type recordingBal struct {
	balancer.NoBalancer
	log *strings.Builder
}

func (b recordingBal) MetaLoad(s namespace.CounterSnapshot) (float64, error) {
	for _, v := range []float64{s.IRD, s.IWR, s.Readdir, s.Fetch, s.Store} {
		fmt.Fprintf(b.log, "%x ", math.Float64bits(v))
	}
	b.log.WriteString("\n")
	return s.CephLoad(), nil
}

// pricedTree builds one tree in a fresh 4-rank harness: nested bounds, a
// fragmented directory with three frags on rank 1 (one frozen), a frozen
// directory, the root's own children and a fragmented child, with heat
// still in the op log when the ranks price their units.
func pricedTree(t *testing.T, log *strings.Builder) *harness {
	st := &scanTree{t: t}
	st.h = newHarness(t, 4, func() balancer.Balancer { return recordingBal{log: log} }, nil)
	ns := st.h.ns
	ns.SetAuthOverride(ns.Root(), 1)
	n1 := st.dir("/n1", 1)
	n2 := st.dir("/n1/n2", 2)
	n3 := st.dir("/n1/n2/n3", 1)
	st.heat(n2, 25, 4)
	st.heat(n3, 8, 3)
	st.heat(n1, 4, 9)
	f := st.dir("/f", namespace.RankNone)
	st.heat(f, 120, 7)
	frags := st.split(f)
	ns.SetFragAuth(f, frags[0], 1)
	ns.SetFragAuth(f, frags[1], 1)
	ns.SetFragAuth(f, frags[2], 1)
	ns.FreezeFrag(f, frags[2], true)
	st.heat(f, 40, 11)
	z := st.dir("/z", 1)
	st.heat(z, 500, 0)
	ns.Freeze(z, true)
	a := st.dir("/a", namespace.RankNone)
	st.heat(st.dir("/a/x", namespace.RankNone), 9, 2)
	st.heat(a, 6, 1)
	d := st.dir("/d", namespace.RankNone)
	st.heat(d, 16, 5)
	df := st.split(d)
	ns.SetFragAuth(d, df[0], 2)
	st.h.engine.Schedule(3*sim.Second, func() {})
	st.h.engine.RunUntilIdle()
	// Fresh heat the batch's single flush must fold before any snapshot.
	now := st.h.engine.Now()
	for i := 0; i < 12; i++ {
		ns.RecordOp(n3, nameOf(i), namespace.OpIWR, now)
		ns.RecordOp(a, nameOf(i), namespace.OpIRD, now)
	}
	if ns.PendingHits() == 0 {
		t.Fatal("no heat left in the op log: the tree does not exercise the flush")
	}
	return st.h
}

// pricedRound prices every rank's top-level units and then every divisible
// unit's children, and renders units and loads by their bits.
func pricedRound(h *harness, price func(*MDS, []exportUnit) []exportUnit) string {
	var b strings.Builder
	for _, m := range h.mdss {
		units := price(m, m.ownedUnits())
		for _, u := range units {
			if m.divisible(u) {
				units = append(units, price(m, m.childUnits(nil, u.dir))...)
			}
		}
		for _, u := range units {
			fmt.Fprintf(&b, "rank %d %s frag=%v/%v load=%x\n", m.rank, u.dir.Path(), u.isFrag, u.frag, math.Float64bits(u.load))
		}
	}
	return b.String()
}

// TestPricedMatchesPerUnitLoads: pricing from one Loads batch gives every
// unit the load, and hands the policy the snapshots, that one Node.Load per
// unit did, bit for bit and in the same order.
func TestPricedMatchesPerUnitLoads(t *testing.T) {
	var gotLog, wantLog strings.Builder
	got := pricedRound(pricedTree(t, &gotLog), (*MDS).priced)
	want := pricedRound(pricedTree(t, &wantLog), refPriced)
	if got != want {
		t.Fatalf("batched pricing:\n%s\nper-unit pricing:\n%s", got, want)
	}
	if gotLog.String() != wantLog.String() {
		t.Fatalf("the policy saw other snapshots:\nbatched:\n%s\nper-unit:\n%s", gotLog.String(), wantLog.String())
	}
	for _, want := range []string{"frag=true", "/n1/n2/n3", "/a/x"} {
		if !strings.Contains(got, want) {
			t.Errorf("no unit matching %q was priced:\n%s", want, got)
		}
	}
	if strings.Contains(got, "/z") {
		t.Errorf("the frozen directory was priced:\n%s", got)
	}
}

// TestPricedFragRaceRemoteCharges: on the live host a replica holder's reads
// are charged to the authority's fragment counters through the op log, and
// the holder's next counter read folds them in under the write lock on its
// own goroutine. The authority pricing its fragment units at the same time
// must read those counters under the same lock. Run under -race.
func TestPricedFragRaceRemoteCharges(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	h.ns.EnableSharding(2)
	for _, m := range h.mdss {
		m.nsv = h.ns.View(int(m.rank))
	}
	reg := enableReplication(h)
	d, err := h.ns.CreatePath("/hot", true)
	if err != nil {
		t.Fatal(err)
	}
	h.ns.SplitDir(d, namespace.RootFrag, 2, 0)
	reg.Grant("/hot", 1)
	auth, holder := h.mdss[0], h.mdss[1]
	if units := auth.childUnits(nil, d); len(units) != 4 || !units[0].isFrag {
		t.Fatalf("rank 0 should own four fragment units, got %+v", units)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			holder.nsv.RecordOpRemote(d, nameOf(i), namespace.OpIRD, 0)
			if _, held := holder.replicaLoad(); held != 1 {
				t.Errorf("holder holds %d replicas", held)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		auth.priced(auth.childUnits(nil, d))
	}
	<-done
	var load float64
	for _, u := range auth.priced(auth.childUnits(nil, d)) {
		load += u.load
	}
	if load == 0 {
		t.Fatal("the holder's reads never reached the fragments' price")
	}
}

// TestFirstHeartbeatPricesWithOwnScalars: a fresh rank's first heartbeat
// prices its units with metaload before any tick has bound the policy's
// environment. A metaload that reads whoami (documented in its environment)
// must price them, not fail on a nil global.
func TestFirstHeartbeatPricesWithOwnScalars(t *testing.T) {
	h := newHarness(t, 2, func() balancer.Balancer {
		lb, err := core.NewLuaBalancer(core.Policy{MetaLoad: "IWR + IRD + whoami"}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return balancer.NewVersioned(lb)
	}, nil)
	h.do(0, OpMkdir, "/a")
	for i := 0; i < 20; i++ {
		h.do(0, OpCreate, "/a/"+nameOf(i))
	}
	m := h.mdss[0]
	m.balancerTick()
	if m.Counters.PolicyErrors != 0 {
		t.Fatalf("the first heartbeat's metaload failed %d times", m.Counters.PolicyErrors)
	}
	if hb := m.LastHeartbeat(); hb.Auth <= 20 {
		t.Fatalf("rank 0 reported auth load %v, want the creates' heat plus whoami", hb.Auth)
	}
}
