package faults

import (
	"fmt"
	"reflect"
	"testing"

	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// fakeTarget records what a plan does to a host. After either runs the
// callback at once or queues it for step; rank-indexed calls fail the test
// (or the fuzz input) when the index is not an active rank at call time.
type fakeTarget struct {
	t           testing.TB
	provisioned int
	active      int
	mon         bool
	immediate   bool
	pending     []func()
	log         []string
}

// monAddr is where the fake's monitor lives when it has one.
const monAddr = simnet.Addr(1 << 15)

func (f *fakeTarget) After(d sim.Time, fn func()) {
	if d < 0 {
		f.t.Fatalf("After(%v): negative delay", d)
	}
	if f.immediate {
		fn()
		return
	}
	f.pending = append(f.pending, fn)
}

// step runs the callbacks queued so far; ones they queue wait for the next
// step.
func (f *fakeTarget) step() {
	batch := f.pending
	f.pending = nil
	for _, fn := range batch {
		fn()
	}
}

func (f *fakeTarget) rank(op string, r int) {
	if r < 0 || r >= f.active {
		f.t.Fatalf("%s(%d) with %d active ranks", op, r, f.active)
	}
	f.log = append(f.log, fmt.Sprintf("%s %d", op, r))
}

func (f *fakeTarget) ProvisionedRanks() int { return f.provisioned }
func (f *fakeTarget) ActiveRanks() int      { return f.active }
func (f *fakeTarget) RankAddr(r int) simnet.Addr {
	if r < 0 || r >= f.active {
		f.t.Fatalf("RankAddr(%d) with %d active ranks", r, f.active)
	}
	return simnet.Addr(r)
}
func (f *fakeTarget) MonAddr() (simnet.Addr, bool)          { return monAddr, f.mon }
func (f *fakeTarget) Links() Links                          { return (*fakeLinks)(f) }
func (f *fakeTarget) CrashRank(r int)                       { f.rank("crash", r) }
func (f *fakeTarget) RecoverRank(r int)                     { f.rank("recover", r) }
func (f *fakeTarget) InjectBrokenPolicy(r int, mode string) { f.rank("bad_policy "+mode, r) }
func (f *fakeTarget) SetOSDFault(s, e float64, seed int64)  { f.note("osd %v %v %d", s, e, seed) }
func (f *fakeTarget) ClearOSDFault()                        { f.note("osd clear") }

// Grow and Shrink move the active set, so later events expand against the
// new membership.
func (f *fakeTarget) Grow() {
	if f.active < f.provisioned {
		f.active++
	}
	f.note("grow")
}

func (f *fakeTarget) Shrink() {
	if f.active > 0 {
		f.active--
	}
	f.note("shrink")
}

func (f *fakeTarget) note(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf(format, args...))
}

// fakeLinks records the transport calls of a fakeTarget.
type fakeLinks fakeTarget

func (l *fakeLinks) f() *fakeTarget                 { return (*fakeTarget)(l) }
func (l *fakeLinks) SetFaultSeed(seed int64)        { l.f().note("seed %d", seed) }
func (l *fakeLinks) Partition(from, to simnet.Addr) { l.f().note("cut %d->%d", from, to) }
func (l *fakeLinks) Heal(from, to simnet.Addr)      { l.f().note("heal %d->%d", from, to) }
func (l *fakeLinks) HealAll()                       { l.f().note("heal all") }
func (l *fakeLinks) SetDefaultLinkFault(lf simnet.LinkFault) {
	l.f().note("default %v", lf.LossProb)
}
func (l *fakeLinks) SetLinkFault(from, to simnet.Addr, lf simnet.LinkFault) {
	l.f().note("link %d->%d %v", from, to, lf.LossProb)
}

func newFake(t testing.TB, ranks int) *fakeTarget {
	return &fakeTarget{t: t, provisioned: ranks, active: ranks}
}

// fireNow applies a one-event plan and fires that event, leaving its undo
// (if any) queued.
func fireNow(t *testing.T, f *fakeTarget, ev Event) {
	t.Helper()
	if err := Apply(f, Plan{Events: []Event{ev}}); err != nil {
		t.Fatal(err)
	}
	f.step()
	f.log = nil
}

// TestMonEndpointExpansion: Mon expands to the monitor's address when the
// host has one and to nothing otherwise, so one plan runs against monitored
// and unmonitored configurations alike.
func TestMonEndpointExpansion(t *testing.T) {
	f := newFake(t, 2)
	if links := linksOf(f, Mon, 0, false); len(links) != 0 {
		t.Fatalf("monitor links on a monitorless host: %v", links)
	}
	f.mon = true
	links := linksOf(f, Mon, Wildcard, true)
	want := [][2]simnet.Addr{{monAddr, 0}, {0, monAddr}, {monAddr, 1}, {1, monAddr}}
	if !reflect.DeepEqual(links, want) {
		t.Fatalf("links = %v, want %v", links, want)
	}
}

// TestLinkLossClearUsesFireTimeLinks: the clear undoes exactly the links set
// at fire time, even after the rank on one end has left the active set.
func TestLinkLossClearUsesFireTimeLinks(t *testing.T) {
	f := newFake(t, 3)
	fireNow(t, f, Event{Kind: KindLinkLoss, From: 2, To: 0, Symmetric: true, LossProb: 1, Duration: 1})
	f.active = 2 // rank 2 retires before the clear
	f.step()
	want := []string{"link 2->0 0", "link 0->2 0"}
	if !reflect.DeepEqual(f.log, want) {
		t.Fatalf("clear = %q, want %q", f.log, want)
	}
}

// TestPartitionHealUsesFireTimeLinks: a wildcard partition's heal undoes the
// cuts made at fire time, not the links of the membership at heal time.
func TestPartitionHealUsesFireTimeLinks(t *testing.T) {
	f := newFake(t, 3)
	f.active = 2
	fireNow(t, f, Event{Kind: KindPartition, From: 0, To: Wildcard, HealAfter: 1})
	f.active = 3 // a rank grows in before the heal
	f.step()
	if want := []string{"heal 0->1"}; !reflect.DeepEqual(f.log, want) {
		t.Fatalf("heal = %q, want %q", f.log, want)
	}
}

// TestCrashHealReexpandsWildcard: a wildcard crash's recovery expands the
// wildcard again at heal time, so it recovers the ranks that exist then.
func TestCrashHealReexpandsWildcard(t *testing.T) {
	f := newFake(t, 3)
	if err := Apply(f, Plan{Events: []Event{{Kind: KindCrash, Rank: Wildcard, HealAfter: 1}}}); err != nil {
		t.Fatal(err)
	}
	f.step()
	f.active = 2
	f.step()
	want := []string{"seed 1", "crash 0", "crash 1", "crash 2", "recover 0", "recover 1"}
	if !reflect.DeepEqual(f.log, want) {
		t.Fatalf("log = %q, want %q", f.log, want)
	}
}

// TestDirectedRefsToInactiveRanksExpandToNothing: a rank that is provisioned
// but not active when the event fires is skipped, on every rank-taking
// kind and on either end of a link.
func TestDirectedRefsToInactiveRanksExpandToNothing(t *testing.T) {
	f := newFake(t, 4)
	f.active = 2
	for _, ev := range []Event{
		{Kind: KindCrash, Rank: 3, HealAfter: 1},
		{Kind: KindRecover, Rank: 2},
		{Kind: KindBadPolicy, Rank: 3, Mode: "error"},
		{Kind: KindPartition, From: 0, To: 3, Symmetric: true, HealAfter: 1},
		{Kind: KindLinkLoss, From: 2, To: Wildcard, LossProb: 0.5, Duration: 1},
	} {
		fireNow(t, f, ev)
		f.step()
		if len(f.log) != 0 {
			t.Errorf("%s: touched %q", ev.Kind, f.log)
		}
	}
}

// TestApplyEmptyPlanTouchesNothing: an empty plan neither seeds the links
// nor schedules anything.
func TestApplyEmptyPlanTouchesNothing(t *testing.T) {
	f := newFake(t, 2)
	if err := Apply(f, Plan{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if len(f.log) != 0 || len(f.pending) != 0 {
		t.Fatalf("empty plan: log %q, %d pending", f.log, len(f.pending))
	}
}

// FuzzPlan drives operator-written plan JSON through Parse, Validate and
// Apply on a recording host whose clock fires every callback at once. No
// input may panic, and no input that validates may hand the host a rank
// index outside the active set.
func FuzzPlan(f *testing.F) {
	for _, seed := range []string{
		// docs/ROBUSTNESS.md's example plan.
		`{"name":"example","seed":7,"events":[
			{"at":1.0,"kind":"crash","rank":1,"heal_after":3},
			{"at":2.0,"kind":"partition","from":0,"to":1,"symmetric":true,"heal_after":4},
			{"at":0.5,"kind":"link_loss","from":-1,"to":-1,"loss_prob":0.1,"extra_latency_ms":0.5,"duration":6},
			{"at":0.5,"kind":"osd_slow","slow_factor":15,"error_prob":0.05,"duration":5},
			{"at":3.0,"kind":"bad_policy","rank":-1,"mode":"error"}]}`,
		// CI's mantle-sim fault plan.
		`{"name":"ci","seed":7,"events":[
			{"at":1,"kind":"crash","rank":1,"heal_after":2},
			{"at":0.5,"kind":"link_loss","from":-1,"to":-1,"loss_prob":0.05,"duration":4},
			{"at":2,"kind":"bad_policy","rank":0,"mode":"garbage"}]}`,
		// CI's mantle-serve plans: monitor cut, crash cycle, isolation.
		`{"name":"mon-cut","seed":7,"events":[
			{"at":1,"kind":"partition","from":1,"to":-2,"symmetric":true,"heal_after":3},
			{"at":0.5,"kind":"osd_slow","slow_factor":3,"duration":2}]}`,
		`{"name":"crash-cycle","events":[
			{"at":0.8,"kind":"crash","rank":1,"heal_after":0.3},
			{"at":1.9,"kind":"crash","rank":2,"heal_after":0.3}]}`,
		`{"name":"isolate","events":[
			{"at":1.5,"kind":"partition","from":1,"to":-1,"symmetric":true,"heal_after":2},
			{"at":1.5,"kind":"partition","from":1,"to":-2,"symmetric":true,"heal_after":2},
			{"at":5,"kind":"heal_all"},{"at":6,"kind":"grow"},{"at":7,"kind":"shrink"},
			{"at":8,"kind":"recover","rank":-1}]}`,
	} {
		f.Add([]byte(seed), uint8(3), uint8(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, provisioned, active uint8) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		ft := newFake(t, int(provisioned%16))
		ft.active = int(active) % (ft.provisioned + 1)
		ft.mon = active%2 == 0
		ft.immediate = true
		valid := p.Validate(ft.provisioned) == nil
		if err := Apply(ft, p); (err == nil) != valid {
			t.Fatalf("Apply err = %v, Validate valid = %v", err, valid)
		}
	})
}
