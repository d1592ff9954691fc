package live

import (
	"fmt"
	"testing"
	"time"

	"mantle/internal/mds"
)

// lenientReplicate grants aggressively so short test runs reliably exercise
// the grant/serve/revoke cycle (the default script's heat thresholds are
// tuned for longer epochs).
const lenientReplicate = `
if replicas < max_replicas and rd > wr then return 1 end
return 0`

func replicaConfig(ranks int, rate float64, dur time.Duration) Config {
	cfg := testConfig(ranks, rate, dur)
	cfg.Replication = true
	cfg.ReplicaPolicy = lenientReplicate
	cfg.Load.HotDir = true
	cfg.Load.HotFrac = 0.9
	cfg.Load.HotFiles = 64
	cfg.Load.WriteRatio = 0.5
	return cfg
}

// TestLiveReplicaHotDir is the headline scenario: a 90%-hot single directory
// with replication on. Replicas must be granted, reads must be served from
// them (both MDS-side and via client replica routing), duplicate lookups
// must coalesce, and the consistency invariant must hold.
func TestLiveReplicaHotDir(t *testing.T) {
	rt, err := New(replicaConfig(3, 4000, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if rep.ReplicaGrants == 0 {
		t.Fatalf("no replicas granted (report: %+v)", rep)
	}
	if rep.ReplicaReads == 0 {
		t.Fatal("no reads served from replicas")
	}
	if rep.ReplicaRouted == 0 {
		t.Fatal("client never routed a read to a replica")
	}
	if rep.Coalesced == 0 {
		t.Fatal("no duplicate lookups coalesced")
	}
	if rep.ReplicaWriteConflicts != 0 {
		t.Fatalf("CONSISTENCY: %d writes applied over live replicas", rep.ReplicaWriteConflicts)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
	if rep.WedgedMigrations != 0 {
		t.Fatalf("wedged migrations: %d", rep.WedgedMigrations)
	}
	// Accounting must still balance: coalesced waiters complete or time out
	// like any other op.
	got := rt.gen.completed.Load() + rt.gen.errors.Load() + rt.gen.shedSeen.Load() + rt.gen.timeouts.Load()
	if got != rep.Issued {
		t.Fatalf("accounting: %d resolved, %d issued", got, rep.Issued)
	}
}

// TestLiveReplicaConsistencySoak overlaps hot-directory read traffic and
// replica grants with a hostile mutation stream aimed at the replicated
// directory (creates, renames, unlinks) plus a holder crash/recovery —
// the race-enabled pin of revoke-before-write. Run under -race via the
// hotspot-smoke CI job.
func TestLiveReplicaConsistencySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	dur := 2 * time.Second
	if raceEnabled {
		dur = 3 * time.Second
	}
	cfg := replicaConfig(3, 3000, dur)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	mutDone := make(chan struct{})
	go func() {
		defer close(mutDone)
		// Mutations ride the normal transport from a registered client
		// address; their replies carry IDs the generator never issued, so
		// the reply handler drops them after hint learning is skipped.
		addr := rt.gen.addrs[0]
		id := uint64(1) << 60
		seq := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			var req *mds.Request
			switch seq % 3 {
			case 0:
				req = &mds.Request{Op: mds.OpCreate, Path: fmt.Sprintf("/hot/x%d", seq)}
			case 1:
				req = &mds.Request{Op: mds.OpRename,
					Path:    fmt.Sprintf("/hot/x%d", seq-1),
					DstPath: fmt.Sprintf("/hot/y%d", seq)}
			default:
				req = &mds.Request{Op: mds.OpUnlink, Path: fmt.Sprintf("/hot/y%d", seq-1)}
			}
			req.ID = id
			req.Client = addr
			id++
			seq++
			rt.transport.Send(addr, rt.mdsAddrs[0], req)
		}
	}()
	go func() {
		// Crash a replica-holding peer mid-run: in-flight revokes must
		// resolve via DropRank/force-complete, never by a stale read.
		time.Sleep(dur / 3)
		rt.CrashRank(2)
		time.Sleep(dur / 6)
		rt.RecoverRank(2, nil)
	}()
	rep, err := rt.Run()
	close(stop)
	<-mutDone
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.ReplicaGrants == 0 {
		t.Fatal("soak never granted a replica")
	}
	if rep.ReplicaRevokes == 0 && rep.Invalidations == 0 {
		t.Fatal("soak never revoked or invalidated — the mutation stream missed the replicas")
	}
	if rep.ReplicaWriteConflicts != 0 {
		t.Fatalf("CONSISTENCY: %d writes applied over live replicas", rep.ReplicaWriteConflicts)
	}
	if rep.Crashes != 1 || rep.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", rep.Crashes, rep.Recoveries)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
	if rep.WedgedMigrations != 0 {
		t.Fatalf("wedged migrations: %d", rep.WedgedMigrations)
	}
}

// TestLiveReplicationDisabledInert pins disabled-mode passivity at the live
// tier: the hot-directory workload with replication off must leave every
// replication counter at zero and no replica hints in flight. (Simulation
// passivity — bit-identical digests — is pinned by the cluster package's
// golden digest test; the MDS replica pointer is never set there.)
func TestLiveReplicationDisabledInert(t *testing.T) {
	cfg := replicaConfig(2, 1500, 500*time.Millisecond)
	cfg.Replication = false
	cfg.ReplicaPolicy = ""
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt.repReg != nil {
		t.Fatal("registry allocated with replication off")
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if rep.ReplicaReads != 0 || rep.ReplicaGrants != 0 || rep.ReplicaRevokes != 0 ||
		rep.ReplicaWriteStalls != 0 || rep.ReplicaRouted != 0 || rep.Coalesced != 0 ||
		rep.Invalidations != 0 {
		t.Fatalf("replication counters moved while disabled: %+v", rep)
	}
}

// TestLiveReplicaPolicyValidation pins the constructor's hook-compile error
// path: a broken when_replicate must fail New, not panic a rank later.
func TestLiveReplicaPolicyValidation(t *testing.T) {
	cfg := replicaConfig(2, 1000, time.Second)
	cfg.ReplicaPolicy = "return ("
	if _, err := New(cfg); err == nil {
		t.Fatal("broken when_replicate accepted")
	}
}

// TestTakeoverReplacementKeepsReplication pins that a standby promoted into
// a replicated cluster serves with replication on: a mutation into a
// replicated directory the replacement owns must go through
// revoke-before-write, not apply under the replica another rank serves.
func TestTakeoverReplacementKeepsReplication(t *testing.T) {
	cfg := replicaConfig(3, 3000, 2500*time.Millisecond)
	cfg.Standbys = 1
	cfg.MonGrace = 600 * time.Millisecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A directory rank 1 owns; rank 0 holds a replica of it once rank 1's
	// replacement serves.
	const dir = "/owned1"
	n, err := rt.ns.CreatePath(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	rt.ns.SetAuthOverride(n, 1)
	orig := rt.MDS(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(800 * time.Millisecond)
		rt.CrashRank(1)
		for deadline := time.Now().Add(1500 * time.Millisecond); rt.MDS(1) == orig; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				return
			}
		}
		rt.repReg.Grant(dir, 0)
		addr := rt.gen.addrs[0]
		rt.transport.Send(addr, rt.mdsAddrs[1],
			&mds.Request{ID: 1 << 60, Client: addr, Op: mds.OpCreate, Path: dir + "/f"})
	}()
	rep, err := rt.Run()
	<-done
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	repl := rt.MDS(1)
	if rep.MonTakeovers != 1 || repl == orig {
		t.Fatalf("takeovers = %d, rank 1 replaced = %v; want one takeover", rep.MonTakeovers, repl != orig)
	}
	for r := 0; r < rt.ActiveRanks(); r++ {
		if !rt.MDS(r).Replicating() {
			t.Fatalf("rank %d serves without replication after the takeover", r)
		}
	}
	if repl.Counters.ReplicaWriteStalls == 0 {
		t.Fatal("the replacement applied a mutation into a replicated directory without revoking")
	}
	if rep.ReplicaWriteConflicts != 0 {
		t.Fatalf("CONSISTENCY: %d writes applied over live replicas", rep.ReplicaWriteConflicts)
	}
	if rep.InvariantViolation != "" {
		t.Fatalf("invariants: %s", rep.InvariantViolation)
	}
}
