package mds

import (
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/mon"
	"mantle/internal/replica"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// enableReplication wires a shared registry into every rank of the harness
// with a never-grant hook (tests drive grants directly via the registry).
func enableReplication(h *harness) *replica.Registry {
	reg := replica.NewRegistry()
	for _, m := range h.mdss {
		m.SetReplication(&Replication{
			Reg:         reg,
			When:        func(balancer.ReplicaEnv) (int, error) { return 0, nil },
			MaxReplicas: 2,
		})
	}
	return reg
}

func TestReplicaReadServedLocally(t *testing.T) {
	h := newHarness(t, 2, noBal, func(c *Config) { c.HBAggregated = true })
	reg := enableReplication(h)
	h.do(0, OpMkdir, "/a")
	h.do(0, OpCreate, "/a/f")
	// Without a replica, a read at the wrong rank forwards to the auth.
	if rep := h.do(1, OpGetattr, "/a/f"); rep.Err != "" || rep.Forwards != 1 {
		t.Fatalf("pre-grant read: err=%q forwards=%d", rep.Err, rep.Forwards)
	}
	reg.Grant("/a", 1)
	// The holder's aggregated beacon carries its replica count, taken
	// from the same registry scan that prices its replica load.
	const monAddr = simnet.Addr(500)
	var beacons []*mon.Beacon
	h.net.Register(monAddr, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) {
		if b, ok := msg.(*mon.Beacon); ok {
			beacons = append(beacons, b)
		}
	}))
	h.mdss[1].SetMonitor(monAddr)
	h.mdss[1].balancerTick()
	h.engine.RunUntilIdle()
	if len(beacons) != 1 || beacons[0].Load == nil || beacons[0].Load.Replicas != 1 {
		t.Fatalf("beacons %+v, want one carrying Replicas = 1", beacons)
	}
	rep := h.do(1, OpGetattr, "/a/f")
	if rep.Err != "" || rep.Forwards != 0 {
		t.Fatalf("replica read: err=%q forwards=%d", rep.Err, rep.Forwards)
	}
	if h.mdss[1].Counters.ReplicaReads != 1 {
		t.Fatalf("ReplicaReads = %d", h.mdss[1].Counters.ReplicaReads)
	}
	// The read reply carries the holder set so clients learn replica routes.
	found := false
	for _, hint := range rep.Hints {
		if hint.DirPath == "/a" && len(hint.Replicas) == 1 && hint.Replicas[0] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no replica hint in %+v", rep.Hints)
	}
	// Mutations never use the replica path: a create at rank 1 forwards
	// (and, being a write under /a, revokes the replica first).
	if rep := h.do(1, OpCreate, "/a/g"); rep.Err != "" || rep.Forwards != 1 {
		t.Fatalf("mutation: err=%q forwards=%d", rep.Err, rep.Forwards)
	}
	if reg.HasHolders("/a") {
		t.Fatal("replica survived the create")
	}
}

// revokeBeforeWrite pins the consistency invariant for one mutation type:
// the write stalls until the holder acks the revoke, and applies with zero
// holders left (ReplicaWriteConflicts would count a violation).
func revokeBeforeWrite(t *testing.T, op OpType, path, dst string) {
	t.Helper()
	h := newHarness(t, 2, noBal, nil)
	reg := enableReplication(h)
	h.do(0, OpMkdir, "/a")
	h.do(0, OpCreate, "/a/f")
	reg.Grant("/a", 1)
	rep := h.do(0, op, path, dst)
	if rep == nil || rep.Err != "" {
		t.Fatalf("%v: %+v", op, rep)
	}
	m0 := h.mdss[0]
	if m0.Counters.ReplicaWriteStalls != 1 {
		t.Fatalf("write stalls = %d, want 1", m0.Counters.ReplicaWriteStalls)
	}
	if m0.Counters.ReplicaRevokes != 1 {
		t.Fatalf("revokes = %d, want 1", m0.Counters.ReplicaRevokes)
	}
	if h.mdss[1].Counters.ReplicaRevokeAcks != 1 {
		t.Fatalf("acks = %d, want 1", h.mdss[1].Counters.ReplicaRevokeAcks)
	}
	if m0.Counters.ReplicaWriteConflicts != 0 {
		t.Fatalf("CONSISTENCY: %d writes applied over a live replica", m0.Counters.ReplicaWriteConflicts)
	}
	if m0.Counters.ReplicaForcedRevokes != 0 {
		t.Fatalf("forced revokes = %d, want 0", m0.Counters.ReplicaForcedRevokes)
	}
	if reg.HasHolders("/a") {
		t.Fatal("replica survived the write")
	}
}

func TestRenameRevokesBeforeWrite(t *testing.T) {
	revokeBeforeWrite(t, OpRename, "/a/f", "/a/g")
}

func TestUnlinkRevokesBeforeWrite(t *testing.T) {
	revokeBeforeWrite(t, OpUnlink, "/a/f", "")
}

func TestCreateRevokesBeforeWrite(t *testing.T) {
	revokeBeforeWrite(t, OpCreate, "/a/new", "")
}

func TestSetattrRevokesBeforeWrite(t *testing.T) {
	revokeBeforeWrite(t, OpSetattr, "/a/f", "")
}

func TestRenameOfDirInvalidatesSubtreeReplicas(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	reg := enableReplication(h)
	h.ns.SetInvalidateHook(func(p string) { reg.InvalidateSubtree(p) })
	h.do(0, OpMkdir, "/a")
	h.do(0, OpMkdir, "/a/sub")
	h.do(0, OpCreate, "/a/sub/f")
	reg.Grant("/a/sub", 1)
	if rep := h.do(0, OpRename, "/a/sub", "/a/moved"); rep.Err != "" {
		t.Fatalf("rename: %s", rep.Err)
	}
	if reg.HasHolders("/a/sub") || reg.HasHolders("/a/moved") {
		t.Fatal("stale replica under a renamed directory")
	}
	if h.mdss[0].Counters.ReplicaWriteConflicts != 0 {
		t.Fatalf("conflicts = %d", h.mdss[0].Counters.ReplicaWriteConflicts)
	}
}

func TestHolderCrashMidRevokeForcesCompletion(t *testing.T) {
	h := newHarness(t, 2, noBal, func(c *Config) { c.ReplicaRevokeTimeout = 2 * sim.Second })
	reg := enableReplication(h)
	h.do(0, OpMkdir, "/a")
	h.do(0, OpCreate, "/a/f")
	// Crash the holder first so it never acks, then grant behind the
	// registry's back — the shape of a holder dying with the revoke on the
	// wire (its DropRank already ran, the grant raced in after).
	h.mdss[1].Crash()
	reg.Grant("/a", 1)
	rep := h.do(0, OpRename, "/a/f", "/a/g")
	if rep == nil || rep.Err != "" {
		t.Fatalf("rename: %+v", rep)
	}
	m0 := h.mdss[0]
	if m0.Counters.ReplicaForcedRevokes != 1 {
		t.Fatalf("forced revokes = %d, want 1", m0.Counters.ReplicaForcedRevokes)
	}
	if m0.Counters.ReplicaWriteConflicts != 0 {
		t.Fatalf("conflicts = %d", m0.Counters.ReplicaWriteConflicts)
	}
	if reg.HasHolders("/a") {
		t.Fatal("replica survived the forced revoke")
	}
}

func TestCrashDropsHolderships(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	reg := enableReplication(h)
	h.do(0, OpMkdir, "/a")
	reg.Grant("/a", 1)
	h.mdss[1].Crash()
	if reg.HasHolders("/a") {
		t.Fatal("crashed rank still holds a replica")
	}
	// The write must not stall on the dead holder.
	rep := h.do(0, OpCreate, "/a/f")
	if rep.Err != "" || h.mdss[0].Counters.ReplicaWriteStalls != 0 {
		t.Fatalf("err=%q stalls=%d", rep.Err, h.mdss[0].Counters.ReplicaWriteStalls)
	}
}

func TestRetireDropsHolderships(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	reg := enableReplication(h)
	h.do(0, OpMkdir, "/a")
	reg.Grant("/a", 1)
	h.mdss[1].Retire()
	if reg.HasHolders("/a") {
		t.Fatal("retired rank still holds a replica")
	}
}

func TestMigrationExportInvalidatesReplicas(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	reg := enableReplication(h)
	h.do(0, OpMkdir, "/move")
	for i := 0; i < 20; i++ {
		h.do(0, OpCreate, "/move/"+nameOf(i))
	}
	reg.Grant("/move", 1)
	d, _ := h.ns.Resolve("/move")
	h.mdss[0].startExport(exportUnit{dir: d, load: 10}, 1)
	// Replicas die at export start, before the freeze even lifts: the
	// importer rebuilds heat and the policy re-grants if still warranted.
	if reg.HasHolders("/move") {
		t.Fatal("replica survived migration export")
	}
	h.engine.RunUntilIdle()
	if got := h.ns.EffectiveAuth(d); got != 1 {
		t.Fatalf("auth = %d", got)
	}
}

func TestDisabledReplicationIsInert(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	h.do(0, OpMkdir, "/a")
	h.do(0, OpCreate, "/a/f")
	h.do(1, OpGetattr, "/a/f")
	h.do(0, OpRename, "/a/f", "/a/g")
	for r, m := range h.mdss {
		c := m.Counters
		if c.ReplicaReads != 0 || c.ReplicaGrants != 0 || c.ReplicaRevokes != 0 ||
			c.ReplicaWriteStalls != 0 || c.ReplicaWriteConflicts != 0 {
			t.Fatalf("rank %d replica counters moved with replication off: %+v", r, c)
		}
	}
	for _, rep := range h.replies {
		for _, hint := range rep.Hints {
			if hint.Replicas != nil {
				t.Fatalf("replica hint with replication off: %+v", hint)
			}
		}
	}
}
