// Package faults is the deterministic fault-injection harness: a Plan is a
// seedable list of timed events — rank crashes and recoveries, directed or
// symmetric network partitions, probabilistic per-link message loss and
// latency, slow or erroring OSD ops, deliberately broken Lua balancer
// versions and elastic grow/shrink — driven off the host's clock. One
// applier (Apply) drives either host through the small Target surface: the
// simulator on its virtual clock, the serving runtime on the wall clock.
// Plans load from JSON (the `-faults` flag of mantle-sim and mantle-serve)
// or are generated pseudo-randomly for chaos soaks, and compose: applying an
// empty plan schedules nothing, consumes no randomness, and leaves a run
// bit-identical to one with no plan at all.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// Event kinds understood by Apply.
const (
	KindCrash     = "crash"      // rank dies; heal_after > 0 schedules Recover
	KindRecover   = "recover"    // rank replays its journal and rejoins
	KindPartition = "partition"  // cut from -> to (symmetric cuts both ways)
	KindHealAll   = "heal_all"   // restore every cut link
	KindLinkLoss  = "link_loss"  // probabilistic loss / extra latency on a link
	KindOSDSlow   = "osd_slow"   // multiply OSD latency, optionally error ops
	KindBadPolicy = "bad_policy" // inject a broken balancer version, unlinted
	KindGrow      = "grow"       // elastic: activate one more rank
	KindShrink    = "shrink"     // elastic: drain and retire the top rank
)

// Wildcard as a rank or link endpoint expands to every MDS rank at fire time.
const Wildcard = -1

// Mon as a link endpoint of partition and link_loss events targets the
// monitor's address — the asymmetric rank↔monitor cuts that make a loaded
// rank go beacon-silent without dying. Expands to nothing when the run has
// no monitor.
const Mon = -2

// Event is one scheduled fault. Times are seconds of virtual time; rank and
// link endpoints are MDS ranks (Wildcard = all).
type Event struct {
	At   float64 `json:"at"`
	Kind string  `json:"kind"`

	// Rank targets crash, recover and bad_policy.
	Rank int `json:"rank,omitempty"`

	// From/To are the link endpoints of partition and link_loss events.
	From      int  `json:"from,omitempty"`
	To        int  `json:"to,omitempty"`
	Symmetric bool `json:"symmetric,omitempty"`

	// HealAfter undoes a crash or partition this many seconds later
	// (0 = permanent). Duration bounds link_loss and osd_slow the same way.
	HealAfter float64 `json:"heal_after,omitempty"`
	Duration  float64 `json:"duration,omitempty"`

	// Link-loss knobs.
	LossProb       float64 `json:"loss_prob,omitempty"`
	ExtraLatencyMs float64 `json:"extra_latency_ms,omitempty"`

	// OSD knobs.
	SlowFactor float64 `json:"slow_factor,omitempty"`
	ErrorProb  float64 `json:"error_prob,omitempty"`

	// Mode selects the core.BrokenPolicy flavour for bad_policy:
	// "error" (Lua runtime error) or "garbage" (absurd targets).
	Mode string `json:"mode,omitempty"`
}

// Plan is a named, seedable fault schedule.
type Plan struct {
	Name string `json:"name,omitempty"`
	// Seed drives every probabilistic fault draw (link loss, OSD errors)
	// through RNGs separate from the engine's, so two runs of the same plan
	// are identical and faultless runs consume no randomness.
	Seed   int64   `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// Parse decodes a plan from JSON, rejecting unknown fields so typos in
// hand-written plans fail loudly instead of silently doing nothing.
func Parse(data []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("faults: %w", err)
	}
	return p, nil
}

// Load reads a plan file written by hand or by Plan.Save.
func Load(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("faults: %w", err)
	}
	return Parse(data)
}

// Save writes the plan as indented JSON.
func (p Plan) Save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// maxSeconds bounds every time and duration in a plan (extra_latency_ms
// included): far beyond any run, and far below where the clock's int64
// microseconds overflow — an overflowed time would wrap negative and fire
// at once.
const maxSeconds = 1e9

// Validate checks every event against the cluster size before anything is
// scheduled, so a bad plan fails at load time, not mid-run.
func (p Plan) Validate(numRanks int) error {
	for i, ev := range p.Events {
		for _, f := range []struct {
			name string
			sec  float64
		}{{"at", ev.At}, {"heal_after", ev.HealAfter}, {"duration", ev.Duration}, {"extra_latency_ms", ev.ExtraLatencyMs / 1e3}} {
			// Written so that NaN fails too.
			if !(f.sec >= 0 && f.sec <= maxSeconds) {
				return fmt.Errorf("faults: event %d: %s is a negative time, NaN or beyond %g s", i, f.name, float64(maxSeconds))
			}
		}
		rankOK := func(r int) bool { return r == Wildcard || (r >= 0 && r < numRanks) }
		// Link endpoints additionally accept the monitor.
		endOK := func(r int) bool { return r == Mon || rankOK(r) }
		switch ev.Kind {
		case KindCrash, KindRecover:
			if !rankOK(ev.Rank) {
				return fmt.Errorf("faults: event %d: rank %d out of range", i, ev.Rank)
			}
		case KindPartition, KindLinkLoss:
			if !endOK(ev.From) || !endOK(ev.To) {
				return fmt.Errorf("faults: event %d: link %d->%d out of range", i, ev.From, ev.To)
			}
			if ev.Kind == KindLinkLoss && (ev.LossProb < 0 || ev.LossProb > 1) {
				return fmt.Errorf("faults: event %d: loss_prob %v outside [0,1]", i, ev.LossProb)
			}
		case KindHealAll, KindGrow, KindShrink:
		case KindOSDSlow:
			if ev.SlowFactor < 0 || ev.ErrorProb < 0 || ev.ErrorProb > 1 {
				return fmt.Errorf("faults: event %d: bad OSD knobs (%v, %v)", i, ev.SlowFactor, ev.ErrorProb)
			}
		case KindBadPolicy:
			if !rankOK(ev.Rank) {
				return fmt.Errorf("faults: event %d: rank %d out of range", i, ev.Rank)
			}
			if ev.Mode != "error" && ev.Mode != "garbage" {
				return fmt.Errorf("faults: event %d: unknown bad_policy mode %q", i, ev.Mode)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// Links is the fault surface of a transport. *simnet.Network and the live
// transport both provide it.
type Links interface {
	SetFaultSeed(seed int64)
	Partition(from, to simnet.Addr)
	Heal(from, to simnet.Addr)
	HealAll()
	SetLinkFault(from, to simnet.Addr, f simnet.LinkFault)
	SetDefaultLinkFault(f simnet.LinkFault)
}

// Target is the host surface a plan drives: the simulated cluster and the
// live runtime each adapt themselves to it, so both run the same faults.
type Target interface {
	// After runs fn d from now on the host's clock.
	After(d sim.Time, fn func())
	// ProvisionedRanks bounds rank references at validation time: an
	// elastic host may grow past its initial set before an event fires.
	ProvisionedRanks() int
	// ActiveRanks is the current active rank count, read at fire time.
	ActiveRanks() int
	// RankAddr is active rank r's transport address.
	RankAddr(r int) simnet.Addr
	// MonAddr is the monitor's address; ok is false when there is none.
	MonAddr() (addr simnet.Addr, ok bool)
	Links() Links
	CrashRank(r int)
	RecoverRank(r int)
	SetOSDFault(slowFactor, errorProb float64, seed int64)
	ClearOSDFault()
	// Grow and Shrink are no-ops on a host without an elastic coordinator.
	Grow()
	Shrink()
	// InjectBrokenPolicy pushes core.BrokenPolicy(mode) onto rank r.
	InjectBrokenPolicy(r int, mode string)
}

// Apply validates the plan and schedules its events on the target's clock,
// at their times counted from the call. Rank references resolve at fire
// time, so faults compose with failover replacements and elastic
// membership. An empty plan schedules nothing and seeds nothing.
func Apply(t Target, p Plan) error {
	if err := p.Validate(t.ProvisionedRanks()); err != nil {
		return err
	}
	if len(p.Events) == 0 {
		return nil
	}
	// Dedicated fault RNGs: the engine's stream stays untouched.
	t.Links().SetFaultSeed(p.Seed + 1)
	for _, ev := range p.Events {
		ev := ev
		t.After(seconds(ev.At), func() { fire(t, p, ev) })
	}
	return nil
}

func seconds(s float64) sim.Time { return sim.Time(s * float64(sim.Second)) }

// ranksOf expands a possibly-wildcard rank reference against the ranks that
// exist at fire time (the active set moves under an elastic coordinator).
// A directed reference to a rank that does not currently exist expands to
// nothing.
func ranksOf(t Target, r int) []int {
	active := t.ActiveRanks()
	if r != Wildcard {
		if r < 0 || r >= active {
			return nil
		}
		return []int{r}
	}
	out := make([]int, active)
	for i := range out {
		out[i] = i
	}
	return out
}

// endpointsOf expands a link endpoint reference into transport addresses at
// fire time: one rank (if it currently exists), every active rank for
// Wildcard, or the monitor's address for Mon (nothing when the host has no
// monitor).
func endpointsOf(t Target, r int) []simnet.Addr {
	if r == Mon {
		if a, ok := t.MonAddr(); ok {
			return []simnet.Addr{a}
		}
		return nil
	}
	var out []simnet.Addr
	for _, rk := range ranksOf(t, r) {
		out = append(out, t.RankAddr(rk))
	}
	return out
}

// linksOf expands a possibly-wildcard link reference into directed pairs,
// excluding self-links.
func linksOf(t Target, from, to int, symmetric bool) [][2]simnet.Addr {
	var out [][2]simnet.Addr
	for _, f := range endpointsOf(t, from) {
		for _, d := range endpointsOf(t, to) {
			if f == d {
				continue
			}
			out = append(out, [2]simnet.Addr{f, d})
			if symmetric {
				out = append(out, [2]simnet.Addr{d, f})
			}
		}
	}
	return out
}

func fire(t Target, p Plan, ev Event) {
	net := t.Links()
	switch ev.Kind {
	case KindCrash:
		for _, r := range ranksOf(t, ev.Rank) {
			t.CrashRank(r)
		}
		if ev.HealAfter > 0 {
			rank := ev.Rank
			t.After(seconds(ev.HealAfter), func() {
				for _, r := range ranksOf(t, rank) {
					t.RecoverRank(r)
				}
			})
		}
	case KindRecover:
		for _, r := range ranksOf(t, ev.Rank) {
			t.RecoverRank(r)
		}
	case KindPartition:
		links := linksOf(t, ev.From, ev.To, ev.Symmetric)
		for _, l := range links {
			net.Partition(l[0], l[1])
		}
		if ev.HealAfter > 0 {
			t.After(seconds(ev.HealAfter), func() {
				for _, l := range links {
					net.Heal(l[0], l[1])
				}
			})
		}
	case KindHealAll:
		net.HealAll()
	case KindLinkLoss:
		f := simnet.LinkFault{
			LossProb:     ev.LossProb,
			ExtraLatency: sim.Time(ev.ExtraLatencyMs * float64(sim.Millisecond)),
		}
		if ev.From == Wildcard && ev.To == Wildcard {
			net.SetDefaultLinkFault(f)
			if ev.Duration > 0 {
				t.After(seconds(ev.Duration), func() {
					net.SetDefaultLinkFault(simnet.LinkFault{})
				})
			}
			return
		}
		// Capture the expanded links at fire time, exactly as partition
		// does for its heal: re-expanding at clear time against live
		// membership would leak permanent faults onto links whose rank
		// was retired before the clear (and then afflict a rank regrown
		// at the same address), and would miss links the fault was never
		// set on.
		links := linksOf(t, ev.From, ev.To, ev.Symmetric)
		for _, l := range links {
			net.SetLinkFault(l[0], l[1], f)
		}
		if ev.Duration > 0 {
			t.After(seconds(ev.Duration), func() {
				for _, l := range links {
					net.SetLinkFault(l[0], l[1], simnet.LinkFault{})
				}
			})
		}
	case KindOSDSlow:
		t.SetOSDFault(ev.SlowFactor, ev.ErrorProb, p.Seed+2)
		if ev.Duration > 0 {
			t.After(seconds(ev.Duration), t.ClearOSDFault)
		}
	case KindGrow:
		// No-ops (refused transitions, no coordinator) are deliberate:
		// chaos plans race membership changes against other faults, and
		// a grow landing mid-transition is simply lost, as in a real
		// cluster where the operator's second max_mds bump waits.
		t.Grow()
	case KindShrink:
		t.Shrink()
	case KindBadPolicy:
		for _, r := range ranksOf(t, ev.Rank) {
			t.InjectBrokenPolicy(r, ev.Mode)
		}
	}
}

// RandomPlan builds a pseudo-random but valid plan for chaos soaks: every
// crash recovers, every partition heals, and every probabilistic fault has a
// bounded duration, so a workload can always finish (or fail cleanly) after
// the faults drain. The same seed always yields the same plan.
func RandomPlan(seed int64, numRanks int, horizonSec float64) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Name: fmt.Sprintf("random-%d", seed), Seed: seed}
	at := func() float64 { return rng.Float64() * horizonSec * 0.5 }
	dur := func() float64 { return 0.1*horizonSec + rng.Float64()*horizonSec*0.3 }
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			p.Events = append(p.Events, Event{
				At: at(), Kind: KindCrash, Rank: rng.Intn(numRanks), HealAfter: dur(),
			})
		case 1:
			from := rng.Intn(numRanks)
			to := (from + 1 + rng.Intn(numRanks-1)) % numRanks
			p.Events = append(p.Events, Event{
				At: at(), Kind: KindPartition, From: from, To: to,
				Symmetric: rng.Intn(2) == 0, HealAfter: dur(),
			})
		case 2:
			p.Events = append(p.Events, Event{
				At: at(), Kind: KindLinkLoss, From: Wildcard, To: Wildcard,
				LossProb:       0.05 + rng.Float64()*0.2,
				ExtraLatencyMs: rng.Float64() * 2,
				Duration:       dur(),
			})
		case 3:
			p.Events = append(p.Events, Event{
				At: at(), Kind: KindOSDSlow,
				SlowFactor: 2 + rng.Float64()*8,
				ErrorProb:  rng.Float64() * 0.1,
				Duration:   dur(),
			})
		case 4:
			mode := "error"
			if rng.Intn(2) == 0 {
				mode = "garbage"
			}
			p.Events = append(p.Events, Event{
				At: at(), Kind: KindBadPolicy, Rank: rng.Intn(numRanks), Mode: mode,
			})
		}
	}
	return p
}

// RandomElasticPlan extends RandomPlan with membership churn: paired
// grow/shrink events race the ordinary faults, exercising joins and leaves
// under crashes, partitions and loss. Kept separate from RandomPlan so
// existing seeds keep producing byte-identical plans.
func RandomElasticPlan(seed int64, numRanks int, horizonSec float64) Plan {
	p := RandomPlan(seed, numRanks, horizonSec)
	p.Name = fmt.Sprintf("random-elastic-%d", seed)
	rng := rand.New(rand.NewSource(seed ^ 0x656c6173)) // distinct stream from the base plan
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		growAt := rng.Float64() * horizonSec * 0.4
		p.Events = append(p.Events,
			Event{At: growAt, Kind: KindGrow},
			Event{At: growAt + 0.2*horizonSec + rng.Float64()*horizonSec*0.3, Kind: KindShrink},
		)
	}
	return p
}
