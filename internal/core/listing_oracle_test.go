package core

import (
	"fmt"
	"math"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/namespace"
)

// The paper's balancers ship once, as the Lua of policies/. The Go below
// writes each of them a second time, from the paper's prose and listings,
// as an oracle: FuzzListingDifferential drives a listing and its oracle
// through the same ticks and requires the same answer from every hook and
// the same WRstate/RDstate sequence. The oracles follow the listings as
// printed, including where a listing is stricter than the prose:
//   - Listing 3's when guards whoami < #MDSs, so the last rank never fires;
//   - Listing 1's where ships allmetaload/2, the rank's local metadata load,
//     not its scored MDSs[whoami]["load"];
//   - the too-aggressive when compares with the mean exactly, no slack.

// cephfsOracle is the original hard-coded balancer of Table 1: scalarised
// loads, migrate whenever above the cluster mean, spread to every
// underloaded MDS, big-first dirfrag selection, with the mds_bal_need_min
// 0.8 fudge factor the paper's worked example shows. A cluster load under 1
// does not balance, like mds_bal_min_start.
type cephfsOracle struct{}

func (*cephfsOracle) Name() string { return "cephfs_original" }

func (*cephfsOracle) MetaLoad(d namespace.CounterSnapshot) (float64, error) { return d.CephLoad(), nil }

// MDSLoad is Table 1's MDSload row: 0.8*auth + 0.2*all + request rate + 10*queue length.
func (*cephfsOracle) MDSLoad(rank namespace.Rank, e *balancer.Env) (float64, error) {
	m := e.MDSs[rank]
	return 0.8*m.Auth + 0.2*m.All + m.Req + 10*m.Queue, nil
}

// When migrates if my load exceeds the cluster mean.
func (*cephfsOracle) When(e *balancer.Env) (bool, error) {
	if e.Total < 1 {
		return false, nil
	}
	return e.MDSs[e.WhoAmI].Load > e.Total/float64(len(e.MDSs)), nil
}

// Where makes every MDS below the mean an importer of its deficit, scaled
// so the exporter never ships more than its own excess, fudged by 0.8.
func (*cephfsOracle) Where(e *balancer.Env) (balancer.Targets, error) {
	mean := e.Total / float64(len(e.MDSs))
	excess := e.MDSs[e.WhoAmI].Load - mean
	if excess <= 0 {
		return balancer.Targets{}, nil
	}
	deficit := 0.0
	for i, m := range e.MDSs {
		if namespace.Rank(i) != e.WhoAmI && m.Load < mean {
			deficit += mean - m.Load
		}
	}
	t := balancer.Targets{}
	if deficit <= 0 {
		return t, nil
	}
	scale := math.Min(excess/deficit, 1)
	for i, m := range e.MDSs {
		if namespace.Rank(i) != e.WhoAmI && m.Load < mean {
			t[namespace.Rank(i)] = (mean - m.Load) * scale * 0.8
		}
	}
	return t, nil
}

func (*cephfsOracle) HowMuch(*balancer.Env) ([]string, error) { return []string{"big_first"}, nil }

// greedySpillOracle mimics GIGA+'s uniform splitting (Listing 1): as soon as
// this MDS has load and its right-hand neighbour has none, ship half to the
// neighbour. With Even it searches half-way across the cluster for an idle
// MDS instead (Listing 2), so four MDS nodes end up with a quarter each. A
// rank has load above 0.01.
type greedySpillOracle struct{ Even bool }

func (b *greedySpillOracle) Name() string {
	if b.Even {
		return "greedy_spill_even"
	}
	return "greedy_spill"
}

// MetaLoad counts inode writes only (create-intensive focus).
func (*greedySpillOracle) MetaLoad(d namespace.CounterSnapshot) (float64, error) { return d.IWR, nil }

func (*greedySpillOracle) MDSLoad(rank namespace.Rank, e *balancer.Env) (float64, error) {
	return e.MDSs[rank].All, nil
}

// target finds the destination rank per the listing, or -1 for none.
func (b *greedySpillOracle) target(e *balancer.Env) namespace.Rank {
	n := len(e.MDSs)
	me := int(e.WhoAmI)
	t := me + 1
	if b.Even {
		// Aim half-way across the ranks after me, then walk back toward
		// me past busy ranks.
		t = me + (n-me)/2
		if t >= n {
			t = me
		}
		for t != me && e.MDSs[t].Load >= 0.01 {
			t--
		}
		if t == me {
			return -1
		}
	} else if t >= n {
		return -1
	}
	if e.MDSs[me].Load > 0.01 && e.MDSs[t].Load < 0.01 {
		return namespace.Rank(t)
	}
	return -1
}

func (b *greedySpillOracle) When(e *balancer.Env) (bool, error) { return b.target(e) >= 0, nil }

// Where ships half of the local load to the chosen target: Listing 1 halves
// allmetaload, Listing 2 the rank's scored load.
func (b *greedySpillOracle) Where(e *balancer.Env) (balancer.Targets, error) {
	amt := e.AllMetaLoad / 2
	if b.Even {
		amt = e.MDSs[e.WhoAmI].Load / 2
	}
	if amt <= 0 {
		return balancer.Targets{}, nil
	}
	return balancer.Targets{b.target(e): amt}, nil
}

func (*greedySpillOracle) HowMuch(*balancer.Env) ([]string, error) { return []string{"half"}, nil }

// fillAndSpillOracle (Listing 3, a LARD variant) lets an MDS fill to a known
// capacity before spilling a fraction of its load to its neighbour: it
// waits for three consecutive samples of CPU over 85 %, remembered in the
// state store (the WRstate/RDstate example of §3.1).
type fillAndSpillOracle struct{ SpillFraction float64 }

func (*fillAndSpillOracle) Name() string { return "fill_and_spill" }

func (*fillAndSpillOracle) MetaLoad(d namespace.CounterSnapshot) (float64, error) {
	return d.IRD + d.IWR, nil
}

func (*fillAndSpillOracle) MDSLoad(rank namespace.Rank, e *balancer.Env) (float64, error) {
	return e.MDSs[rank].All, nil
}

func (*fillAndSpillOracle) When(e *balancer.Env) (bool, error) {
	wait := 2.0
	if v, ok := e.State.Read().(float64); ok {
		wait = v
	}
	fire := false
	switch {
	case e.MDSs[e.WhoAmI].CPU <= 85:
		e.State.Write(2.0)
	case wait > 0:
		e.State.Write(wait - 1)
	default:
		e.State.Write(2.0)
		fire = true
	}
	return fire && int(e.WhoAmI)+1 < len(e.MDSs), nil
}

func (b *fillAndSpillOracle) Where(e *balancer.Env) (balancer.Targets, error) {
	amt := e.MDSs[e.WhoAmI].Load * b.SpillFraction
	if amt <= 0 {
		return balancer.Targets{}, nil
	}
	return balancer.Targets{e.WhoAmI + 1: amt}, nil
}

// HowMuch prefers small units so the spill is fine-grained.
func (*fillAndSpillOracle) HowMuch(*balancer.Env) ([]string, error) {
	return []string{"small_first", "big_small", "big_first"}, nil
}

// adaptableOracle is the adaptable load sharing of Listing 4: migrate only
// from the rank that holds the majority of the cluster load, fill every
// underloaded rank to the mean, and try the full selector toolbox.
// MinOffload is Figure 10's conservative floor; TooAggressive migrates on
// any load above the mean (Figure 10, bottom).
type adaptableOracle struct {
	MinOffload    float64
	TooAggressive bool
}

func (*adaptableOracle) Name() string { return "adaptable" }

func (*adaptableOracle) MetaLoad(d namespace.CounterSnapshot) (float64, error) {
	return d.IWR + d.IRD, nil
}

func (*adaptableOracle) MDSLoad(rank namespace.Rank, e *balancer.Env) (float64, error) {
	return e.MDSs[rank].All, nil
}

func (b *adaptableOracle) When(e *balancer.Env) (bool, error) {
	my := e.MDSs[e.WhoAmI].Load
	if my <= b.MinOffload || e.Total <= 0 {
		return false, nil
	}
	if b.TooAggressive {
		return my > e.Total/float64(len(e.MDSs)), nil
	}
	biggest := 0.0
	for _, m := range e.MDSs {
		biggest = math.Max(biggest, m.Load)
	}
	return my > e.Total/2 && my >= biggest, nil
}

func (*adaptableOracle) Where(e *balancer.Env) (balancer.Targets, error) {
	mean := e.Total / float64(len(e.MDSs))
	t := balancer.Targets{}
	for i, m := range e.MDSs {
		if namespace.Rank(i) != e.WhoAmI && m.Load < mean {
			t[namespace.Rank(i)] = mean - m.Load
		}
	}
	return t, nil
}

func (*adaptableOracle) HowMuch(*balancer.Env) ([]string, error) {
	return []string{"half", "small", "big", "big_small"}, nil
}

// listingPairs are the shipped listings, each beside its oracle.
var listingPairs = []struct {
	policy Policy
	oracle func() balancer.Balancer
}{
	{DefaultPolicy(), func() balancer.Balancer { return &cephfsOracle{} }},
	{GreedySpillPolicy(), func() balancer.Balancer { return &greedySpillOracle{} }},
	{GreedySpillEvenPolicy(), func() balancer.Balancer { return &greedySpillOracle{Even: true} }},
	{FillAndSpillPolicy(), func() balancer.Balancer { return &fillAndSpillOracle{SpillFraction: 0.25} }},
	{FillAndSpillPolicyWithFraction(0.10), func() balancer.Balancer { return &fillAndSpillOracle{SpillFraction: 0.10} }},
	{AdaptablePolicy(), func() balancer.Balancer { return &adaptableOracle{} }},
	{ConservativePolicy(100), func() balancer.Balancer { return &adaptableOracle{MinOffload: 100} }},
	{TooAggressivePolicy(), func() balancer.Balancer { return &adaptableOracle{TooAggressive: true} }},
}

// Metric values a tick draws from: loads clustered at the listings' 0.01
// spill threshold and around the means the tests use, and CPU around Fill &
// Spill's 85 %. Half the ticks scale their loads by 1e-9, so that a rank
// can sit above the mean by less than any slack a comparison might add.
var (
	oracleLoads = [16]float64{0, 0.005, 0.0099999, 0.01, 0.0100001, 0.02, 0.5, 1, 2, 3, 10, 33, 34, 50, 100, 1000}
	oracleCPUs  = [8]float64{0, 50, 84, 84.9999, 85, 85.0001, 86, 100}
)

// oracleTick draws one tick from s: 1–8 ranks, the deciding rank and the
// load scale from one byte, each rank's metrics from one byte, and a
// dirfrag's counters.
func oracleTick(s *script) (*balancer.Env, namespace.CounterSnapshot) {
	h := s.byte()
	n := 1 + int(h%8)
	e := &balancer.Env{WhoAmI: namespace.Rank(int(h/8) % n)}
	scale := 1.0
	if h >= 128 {
		scale = 1e-9
	}
	for r := 0; r < n; r++ {
		b := s.byte()
		l := oracleLoads[b%16] * scale
		e.MDSs = append(e.MDSs, balancer.MDSMetrics{Auth: l, All: l, CPU: oracleCPUs[b/16%8], Req: float64(b % 3), Queue: float64(b >> 7)})
	}
	m := s.byte()
	own := e.MDSs[e.WhoAmI]
	e.AuthMetaLoad, e.AllMetaLoad = own.Auth, own.All
	if m&1 != 0 {
		e.AllMetaLoad = oracleLoads[m/16] * scale
	}
	d := namespace.CounterSnapshot{IRD: oracleLoads[m%16], IWR: oracleLoads[m/16], Readdir: float64(m % 5), Fetch: float64(m % 3), Store: float64(m % 7)}
	return e, d
}

// hookRun is one side's answers to a tick, formatted so that two sides
// compare with ==; floats print as their bits.
func hookRun(b balancer.Balancer, tick *balancer.Env, state *balancer.MemState, d namespace.CounterSnapshot) (string, bool) {
	e := *tick
	e.MDSs = append([]balancer.MDSMetrics(nil), tick.MDSs...)
	e.State = state
	meta, err := b.MetaLoad(d)
	out := fmt.Sprintf("metaload %x %v\n", math.Float64bits(meta), err)
	if err := balancer.ScoreAll(b, &e); err != nil {
		return out + fmt.Sprintf("mdsload %v\n", err), false
	}
	for _, m := range e.MDSs {
		out += fmt.Sprintf("load %x\n", math.Float64bits(m.Load))
	}
	out += fmt.Sprintf("total %x\n", math.Float64bits(e.Total))
	fired, err := b.When(&e)
	out += fmt.Sprintf("when %v %v state %#v\n", fired, err, state.Read())
	if !fired || err != nil {
		return out, false
	}
	targets, err := b.Where(&e)
	for r := range e.MDSs {
		if amt, ok := targets[namespace.Rank(r)]; ok {
			out += fmt.Sprintf("target %d %x\n", r, math.Float64bits(amt))
		}
	}
	how, herr := b.HowMuch(&e)
	return out + fmt.Sprintf("where %v, %d targets; howmuch %v %v state %#v\n", err, len(targets), how, herr, state.Read()), true
}

// runListingDifferential plays data as a sequence of ticks against every
// listing and its oracle, one balancer each for the whole run, and returns
// how often each listing's when fired.
func runListingDifferential(t *testing.T, data []byte) map[string]int {
	fired := map[string]int{}
	for _, pair := range listingPairs {
		lb, err := NewLuaBalancer(pair.policy, Options{})
		if err != nil {
			t.Fatal(err)
		}
		oracle := pair.oracle()
		var lState, oState balancer.MemState
		s := &script{data: data}
		for step := 0; s.more(); step++ {
			e, d := oracleTick(s)
			got, ok := hookRun(lb, e, &lState, d)
			want, _ := hookRun(oracle, e, &oState, d)
			if got != want {
				t.Fatalf("%s tick %d %+v:\nlisting:\n%s\noracle:\n%s", pair.policy.Name, step, e, got, want)
			}
			if ok {
				fired[pair.policy.Name]++
			}
		}
	}
	return fired
}

// TestListingDifferential is the seeded run of FuzzListingDifferential, and
// checks that the seeds make every listing migrate.
func TestListingDifferential(t *testing.T) {
	fired := map[string]int{}
	for seed := int64(1); seed <= 20; seed++ {
		for k, n := range runListingDifferential(t, randomScript(seed, 600)) {
			fired[k] += n
		}
	}
	for _, pair := range listingPairs {
		if fired[pair.policy.Name] == 0 {
			t.Errorf("the seeded ticks never made %s migrate", pair.policy.Name)
		}
	}
}

func FuzzListingDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomScript(seed, maxFuzzScript))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzScript {
			data = data[:maxFuzzScript]
		}
		runListingDifferential(t, data)
	})
}
