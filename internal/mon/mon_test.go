package mon

import (
	"testing"

	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

func newMonRig(t *testing.T, numRanks int, cfg Config, takeover TakeoverFunc) (*sim.Engine, *simnet.Network, *Monitor) {
	t.Helper()
	e := sim.NewEngine(1)
	n := simnet.New(e, simnet.Config{Latency: 100})
	m := New(simnet.Addr(100), e, n, numRanks, cfg, takeover)
	return e, n, m
}

func beacon(n *simnet.Network, monAddr simnet.Addr, rank namespace.Rank, seq uint64) {
	n.Send(simnet.Addr(int(rank)), monAddr, &Beacon{Rank: rank, Seq: seq})
}

func TestHealthyRanksNeverDeclared(t *testing.T) {
	cfg := Config{CheckInterval: sim.Second, Grace: 3 * sim.Second}
	var failed []namespace.Rank
	e, n, m := newMonRig(t, 2, cfg, func(r namespace.Rank) bool {
		failed = append(failed, r)
		return true
	})
	m.Start()
	// Both ranks beacon every second for 10 seconds.
	for s := 1; s <= 10; s++ {
		s := s
		e.Schedule(sim.Time(s)*sim.Second, func() {
			beacon(n, m.Addr(), 0, uint64(s))
			beacon(n, m.Addr(), 1, uint64(s))
		})
	}
	e.Run(10 * sim.Second)
	m.Stop()
	if len(failed) != 0 || m.Failures != 0 {
		t.Fatalf("healthy ranks declared failed: %v", failed)
	}
}

func TestSilentRankDeclaredAndTakenOver(t *testing.T) {
	cfg := Config{CheckInterval: sim.Second, Grace: 2500 * sim.Millisecond}
	var failed []namespace.Rank
	e, n, m := newMonRig(t, 2, cfg, func(r namespace.Rank) bool {
		failed = append(failed, r)
		return true
	})
	m.Start()
	// Rank 0 beacons; rank 1 goes silent after t=1s. Once the takeover
	// fires, the promoted standby beacons again (len(failed) flags it).
	for s := 1; s <= 8; s++ {
		s := s
		e.Schedule(sim.Time(s)*sim.Second, func() {
			beacon(n, m.Addr(), 0, uint64(s))
			if s <= 1 || len(failed) > 0 {
				beacon(n, m.Addr(), 1, uint64(s))
			}
		})
	}
	e.Run(8 * sim.Second)
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed = %v, want [1]", failed)
	}
	if m.Takeovers != 1 || m.Failures != 1 {
		t.Fatalf("takeovers=%d failures=%d", m.Takeovers, m.Failures)
	}
	if len(m.FailedRanks()) != 0 {
		t.Fatalf("rank still marked failed after takeover: %v", m.FailedRanks())
	}
}

func TestTakeoverRetriedWhenNoStandby(t *testing.T) {
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	available := 0
	attempts := 0
	e, _, m := newMonRig(t, 1, cfg, func(r namespace.Rank) bool {
		attempts++
		if available > 0 {
			available--
			return true
		}
		return false
	})
	m.Start()
	// No beacons at all; a standby appears at t=6s. (Stop right after
	// the retry succeeds: the promoted standby in this rig never beacons,
	// so running longer would legitimately re-declare the rank.)
	e.Schedule(6*sim.Second, func() { available = 1 })
	e.Run(7 * sim.Second)
	if attempts < 3 {
		t.Fatalf("attempts = %d, want retries", attempts)
	}
	if m.Takeovers != 1 {
		t.Fatalf("takeovers = %d", m.Takeovers)
	}
	if len(m.FailedRanks()) != 0 {
		t.Fatal("rank still failed after late standby")
	}
}

func TestRecoveredRankClearsFailedState(t *testing.T) {
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	e, n, m := newMonRig(t, 1, cfg, func(r namespace.Rank) bool { return false })
	m.Start()
	e.Run(5 * sim.Second) // silence → failed, no standby
	if len(m.FailedRanks()) != 1 {
		t.Fatal("rank not failed")
	}
	beacon(n, m.Addr(), 0, 9)
	e.Run(6 * sim.Second)
	if len(m.FailedRanks()) != 0 {
		t.Fatal("beacon did not clear failed state")
	}
}

func TestFlappingRankInsideOneSweep(t *testing.T) {
	// A rank that goes silent and beacons again before the sweep notices
	// must never be declared failed: the sweep sees only the latest
	// timestamp, not the gap.
	cfg := Config{CheckInterval: 2 * sim.Second, Grace: 3 * sim.Second}
	e, n, m := newMonRig(t, 1, cfg, func(r namespace.Rank) bool { return true })
	onFails := 0
	m.OnFail = func(namespace.Rank) { onFails++ }
	m.Start()
	// Beacons at t=1s, silence until a recovery beacon at t=3.9s (inside
	// the grace window measured from 1s), then regular beacons.
	e.Schedule(1*sim.Second, func() { beacon(n, m.Addr(), 0, 1) })
	e.Schedule(3900*sim.Millisecond, func() { beacon(n, m.Addr(), 0, 2) })
	for s := 5; s <= 10; s++ {
		s := s
		e.Schedule(sim.Time(s)*sim.Second, func() { beacon(n, m.Addr(), 0, uint64(s)) })
	}
	e.Run(10 * sim.Second)
	if m.Failures != 0 || onFails != 0 || len(m.FailedRanks()) != 0 {
		t.Fatalf("flapping rank declared failed: failures=%d onFails=%d", m.Failures, onFails)
	}
}

func TestAllRanksFailed(t *testing.T) {
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	e, _, m := newMonRig(t, 3, cfg, nil) // no takeover function at all
	var onFailed []namespace.Rank
	m.OnFail = func(r namespace.Rank) { onFailed = append(onFailed, r) }
	m.Start()
	e.Run(10 * sim.Second) // total silence
	m.Stop()
	if got := m.FailedRanks(); len(got) != 3 {
		t.Fatalf("FailedRanks = %v, want all three", got)
	}
	if m.Failures != 3 {
		t.Fatalf("failures = %d, want one declaration per rank", m.Failures)
	}
	// OnFail fires exactly once per rank, in deterministic rank order.
	if len(onFailed) != 3 || onFailed[0] != 0 || onFailed[1] != 1 || onFailed[2] != 2 {
		t.Fatalf("OnFail sequence = %v", onFailed)
	}
}

func TestOnFailSkippedWhenStandbyAbsorbs(t *testing.T) {
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	e, _, m := newMonRig(t, 1, cfg, func(r namespace.Rank) bool { return true })
	onFails := 0
	m.OnFail = func(namespace.Rank) { onFails++ }
	m.Start()
	e.Run(5 * sim.Second)
	if m.Takeovers == 0 {
		t.Fatal("standby never promoted")
	}
	if onFails != 0 {
		t.Fatalf("OnFail fired %d times despite successful takeover", onFails)
	}
}

func TestMonitorRestartGrantsFreshGrace(t *testing.T) {
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	e, n, m := newMonRig(t, 2, cfg, nil)
	m.Start()
	e.Schedule(1*sim.Second, func() {
		beacon(n, m.Addr(), 0, 1)
		beacon(n, m.Addr(), 1, 1)
	})
	e.Run(1500 * sim.Millisecond)
	m.Stop()
	// The monitor is down for 20s; the ranks keep running but their
	// beacons are of course not observed. On restart, stale pre-Stop
	// timestamps must not mass-fail the cluster before one fresh grace.
	e.Run(21500 * sim.Millisecond)
	m.Start()
	restart := e.Now()
	for s := 1; s <= 5; s++ {
		s := s
		e.Schedule(sim.Time(s)*sim.Second, func() {
			beacon(n, m.Addr(), 0, uint64(s))
			beacon(n, m.Addr(), 1, uint64(s))
		})
	}
	e.Run(restart + 5*sim.Second)
	m.Stop()
	if m.Failures != 0 || len(m.FailedRanks()) != 0 {
		t.Fatalf("restart mass-failed live ranks: failures=%d failed=%v", m.Failures, m.FailedRanks())
	}
}

func TestMonitorRestartStillDetectsSilence(t *testing.T) {
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	e, n, m := newMonRig(t, 2, cfg, nil)
	m.Start()
	e.Run(500 * sim.Millisecond)
	m.Stop()
	e.Run(5 * sim.Second)
	m.Start() // rank 1 stays silent after restart; rank 0 beacons
	restart := e.Now()
	for s := 1; s <= 5; s++ {
		s := s
		e.Schedule(sim.Time(s)*sim.Second, func() { beacon(n, m.Addr(), 0, uint64(s)) })
	}
	e.Run(restart + 5*sim.Second)
	m.Stop()
	got := m.FailedRanks()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("FailedRanks after restart = %v, want [1]", got)
	}
}

func beaconE(n *simnet.Network, monAddr simnet.Addr, rank namespace.Rank, seq, epoch uint64) {
	n.Send(simnet.Addr(int(rank)), monAddr, &Beacon{Rank: rank, Seq: seq, Epoch: epoch})
}

func TestSweepRearmsOnRepeatedTakeoverFailure(t *testing.T) {
	// With the standby pool dry, every sweep must retry the takeover —
	// the declaration is not forgotten — while OnFail fires exactly once,
	// at the declaration, never on retries.
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	attempts := 0
	e, _, m := newMonRig(t, 1, cfg, func(r namespace.Rank) bool {
		attempts++
		return false
	})
	onFails := 0
	m.OnFail = func(namespace.Rank) { onFails++ }
	m.Start()
	e.Run(12 * sim.Second) // total silence, ~9 sweeps past grace
	m.Stop()
	if attempts < 8 {
		t.Fatalf("attempts = %d, want a retry on every sweep", attempts)
	}
	if m.Failures != 1 {
		t.Fatalf("failures = %d, want a single declaration", m.Failures)
	}
	if onFails != 1 {
		t.Fatalf("OnFail fired %d times, want once per declaration", onFails)
	}
	if len(m.FailedRanks()) != 1 {
		t.Fatal("rank no longer marked failed despite no standby")
	}
}

func TestStaleEpochBeaconCannotResurrect(t *testing.T) {
	// A fenced daemon's late beacons (stale epoch) must not clear the
	// failed flag or refresh liveness; the promoted replacement's beacons
	// (higher epoch, sequence restarted) must.
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	e, n, m := newMonRig(t, 1, cfg, nil)
	var epochs []uint64
	m.OnEpoch = func(r namespace.Rank, ep uint64) { epochs = append(epochs, ep) }
	m.SetEpoch(0, 1) // daemon constructed at epoch 1
	m.Start()
	e.Schedule(1*sim.Second, func() { beaconE(n, m.Addr(), 0, 1, 1) })
	// Silence past grace: declared failed at ~t=4s, epoch bumped to 2.
	e.Run(5 * sim.Second)
	if m.Failures != 1 || len(m.FailedRanks()) != 1 {
		t.Fatalf("failures=%d failed=%v, want declaration", m.Failures, m.FailedRanks())
	}
	if len(epochs) != 1 || epochs[0] != 2 || m.EpochOf(0) != 2 {
		t.Fatalf("epochs=%v EpochOf=%d, want bump to 2", epochs, m.EpochOf(0))
	}
	// The partitioned-but-alive zombie heals and floods stale beacons.
	for s := 0; s < 4; s++ {
		seq := uint64(2 + s)
		e.Schedule(sim.Time(s)*250*sim.Millisecond, func() { beaconE(n, m.Addr(), 0, seq, 1) })
	}
	e.Run(7 * sim.Second)
	if len(m.FailedRanks()) != 1 {
		t.Fatal("stale-epoch beacons resurrected a fenced rank")
	}
	if m.StaleBeacons != 4 {
		t.Fatalf("StaleBeacons = %d, want 4", m.StaleBeacons)
	}
	// The replacement at epoch 2 announces itself with a restarted
	// sequence; that must clear the failed state.
	beaconE(n, m.Addr(), 0, 1, 2)
	e.Run(7*sim.Second + 200*sim.Millisecond)
	if len(m.FailedRanks()) != 0 {
		t.Fatal("replacement's first beacon did not clear the failed flag")
	}
}

func TestDuplicateBeaconSeqDoesNotRefreshLiveness(t *testing.T) {
	// A delayed duplicate (same epoch, seq <= last accepted) proves
	// nothing about liveness at its arrival time; if it refreshed
	// lastSeen, a dead rank replaying old traffic would never be
	// declared.
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	e, n, m := newMonRig(t, 1, cfg, nil)
	m.SetEpoch(0, 1)
	m.Start()
	e.Schedule(1*sim.Second, func() { beaconE(n, m.Addr(), 0, 5, 1) })
	// Reordered duplicate arrives just inside the grace window.
	e.Schedule(2900*sim.Millisecond, func() { beaconE(n, m.Addr(), 0, 3, 1) })
	e.Run(5 * sim.Second)
	if m.StaleBeacons != 1 {
		t.Fatalf("StaleBeacons = %d, want the duplicate dropped", m.StaleBeacons)
	}
	if m.Failures != 1 || len(m.FailedRanks()) != 1 {
		t.Fatalf("failures=%d failed=%v: duplicate refreshed liveness", m.Failures, m.FailedRanks())
	}
}

func TestEpochZeroBeaconsBypassFiltering(t *testing.T) {
	// Simulator daemons (epoch 0) predate fencing: duplicate or replayed
	// sequences must behave exactly as before the epoch layer existed.
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	e, n, m := newMonRig(t, 1, cfg, nil)
	m.Start()
	for s := 1; s <= 6; s++ {
		s := s
		// Sequence number never advances — a recovered daemon restarting
		// its counter — yet liveness must keep refreshing.
		e.Schedule(sim.Time(s)*sim.Second, func() { beacon(n, m.Addr(), 0, 1) })
	}
	e.Run(6 * sim.Second)
	m.Stop()
	if m.StaleBeacons != 0 || m.Failures != 0 {
		t.Fatalf("epoch-0 beacons filtered: stale=%d failures=%d", m.StaleBeacons, m.Failures)
	}
}

func TestSetEpochPrimesFencingBeforeFirstBeacon(t *testing.T) {
	// A daemon that dies before its first beacon must still be fenced at
	// an epoch above its own: without priming, the declaration would bump
	// 0 -> 1 and collide with the daemon's construction epoch.
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	e, _, m := newMonRig(t, 1, cfg, nil)
	m.SetEpoch(0, 1)
	m.SetEpoch(0, 1) // idempotent; lower-or-equal is ignored
	m.Start()
	e.Run(5 * sim.Second) // silence from birth
	if m.EpochOf(0) != 2 {
		t.Fatalf("EpochOf = %d, want declaration to supersede the primed epoch", m.EpochOf(0))
	}
}

func TestPromotedGrantsFreshGraceAfterSlowReplay(t *testing.T) {
	// A takeover whose journal replay outlasts the sweep's double-grace
	// allowance: without Promoted the silent-while-replaying replacement
	// is re-declared before its first beacon, churning the standby pool.
	cfg := Config{CheckInterval: sim.Second, Grace: 2 * sim.Second}
	takeovers := 0
	e, n, m := newMonRig(t, 1, cfg, nil)
	m.takeover = func(r namespace.Rank) bool {
		takeovers++
		// Declaration lands at t=3s; the sweep's allowance stretches to
		// t=8s. Replay finishes at t=7.5s, but the replacement's first
		// beacon rides its first balancer tick at t=8.5s — without
		// Promoted, the t=8s sweep re-declares into that gap.
		e.Schedule(4500*sim.Millisecond, func() { m.Promoted(r) })
		for s := 0; s < 10; s++ {
			s := s
			e.Schedule(5500*sim.Millisecond+sim.Time(s)*sim.Second, func() {
				beacon(n, m.Addr(), r, uint64(s+1))
			})
		}
		return true
	}
	m.Start()
	e.Run(15 * sim.Second) // silence from birth: one declaration at t=3s
	m.Stop()
	if m.Failures != 1 || takeovers != 1 {
		t.Fatalf("slow replay re-declared the replacement: failures=%d takeovers=%d",
			m.Failures, takeovers)
	}
	if m.RankFailed(0) {
		t.Fatal("promoted rank still marked failed")
	}
}

// TestPromotedNeverLowersDeadline pins how Promoted and the sweep's own
// post-takeover allowance combine: the rank's deadline is the later of
// declaration + 2×Grace and promotion + Grace. A replay shorter than Grace
// leaves the allowance as the sweep set it; a longer one moves the deadline
// to promotion + Grace, so the replacement's first beacon is not preempted.
func TestPromotedNeverLowersDeadline(t *testing.T) {
	const grace = 2 * sim.Second
	for _, tc := range []struct {
		name        string
		replay      sim.Time
		firstBeacon sim.Time // 0: the replacement never beacons
		redeclared  sim.Time // 0: never re-declared
	}{
		{"replay shorter than grace", sim.Second, 0, 8 * sim.Second},
		{"replay between grace and twice grace", 3 * sim.Second, 0, 9 * sim.Second},
		{"first beacon before promotion plus grace", 3 * sim.Second, 8500 * sim.Millisecond, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, n, m := newMonRig(t, 1, Config{CheckInterval: sim.Second, Grace: grace}, nil)
			var declared []sim.Time
			m.takeover = func(r namespace.Rank) bool {
				declared = append(declared, e.Now())
				if len(declared) > 1 {
					return true
				}
				e.Schedule(tc.replay, func() { m.Promoted(r) })
				for s := 0; tc.firstBeacon > 0 && s < 5; s++ {
					s := s
					e.Schedule(tc.firstBeacon-e.Now()+sim.Time(s)*sim.Second, func() {
						beacon(n, m.Addr(), r, uint64(s+1))
					})
				}
				return true
			}
			m.Start()
			e.Run(12 * sim.Second)
			m.Stop()
			// Silent from birth: declared on the t=3s sweep, so the
			// sweep's allowance runs to 3s + 2×Grace = 7s.
			if len(declared) == 0 || declared[0] != 3*sim.Second {
				t.Fatalf("declarations at %v, want the first at 3s", declared)
			}
			if tc.redeclared == 0 {
				if len(declared) != 1 || m.RankFailed(0) {
					t.Fatalf("replacement re-declared before its first beacon: declarations at %v", declared)
				}
				return
			}
			if len(declared) < 2 || declared[1] != tc.redeclared {
				t.Fatalf("declarations at %v, want the second at %v", declared, tc.redeclared)
			}
		})
	}
}
