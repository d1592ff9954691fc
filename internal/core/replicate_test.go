package core

import (
	"math/rand"
	"strings"
	"testing"

	"mantle/internal/balancer"
)

func replicaEnv(heat, rd, wr float64, replicas int) balancer.ReplicaEnv {
	return balancer.ReplicaEnv{
		WhoAmI:      0,
		Active:      3,
		MaxReplicas: 2,
		Total:       300,
		MDSs: []balancer.MDSMetrics{
			{Load: 200}, {Load: 60}, {Load: 40},
		},
		Path:     "/hot",
		Heat:     heat,
		Rd:       rd,
		Wr:       wr,
		Replicas: replicas,
	}
}

func TestDefaultReplicateVerdicts(t *testing.T) {
	hook, err := NewReplicateHook("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Read-hot fragment well above the mean, no replicas yet: grant.
	v, err := hook.Eval(replicaEnv(250, 1000, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if v != ReplicateGrant {
		t.Fatalf("hot read env verdict = %d, want grant", v)
	}
	// Cooled-off fragment still holding a replica: revoke.
	v, err = hook.Eval(replicaEnv(10, 50, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v != ReplicateRevoke {
		t.Fatalf("cold env verdict = %d, want revoke", v)
	}
	// Write-heavy fragment: never grant (revoke-per-write would thrash).
	v, err = hook.Eval(replicaEnv(250, 100, 200, 0))
	if err != nil {
		t.Fatal(err)
	}
	if v == ReplicateGrant {
		t.Fatal("write-heavy env granted a replica")
	}
	// At the replica cap: hold.
	v, err = hook.Eval(replicaEnv(250, 1000, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if v == ReplicateGrant {
		t.Fatal("granted past max_replicas")
	}
}

func TestCustomReplicateScript(t *testing.T) {
	hook, err := NewReplicateHook("return heat > 100 and 1 or 0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := hook.Eval(replicaEnv(250, 10, 1, 0)); v != ReplicateGrant {
		t.Fatalf("verdict = %d, want grant", v)
	}
	if v, _ := hook.Eval(replicaEnv(50, 10, 1, 0)); v != ReplicateHold {
		t.Fatalf("verdict = %d, want hold", v)
	}
}

func TestReplicatePolicyFileSection(t *testing.T) {
	src := `-- [when]
return true
-- [when_replicate]
return replicas < max_replicas and 1 or 0
`
	p, err := ParsePolicyFile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.WhenReplicate, "max_replicas") {
		t.Fatalf("WhenReplicate not parsed: %q", p.WhenReplicate)
	}
	out := FormatPolicyFile(p)
	rt, err := ParsePolicyFile("t", out)
	if err != nil {
		t.Fatal(err)
	}
	if rt.WhenReplicate != p.WhenReplicate {
		t.Fatalf("roundtrip lost when_replicate: %q vs %q", rt.WhenReplicate, p.WhenReplicate)
	}
}

func TestValidateCatchesBadReplicateHook(t *testing.T) {
	p := Policy{Name: "bad", WhenReplicate: "return ("}
	if rep := Validate(p); rep.OK() {
		t.Fatal("validate accepted a syntactically broken when_replicate")
	}
	good := Policy{Name: "good", WhenReplicate: builtin("replicate").WhenReplicate}
	if rep := Validate(good); !rep.OK() {
		t.Fatalf("validate rejected the default script: %s", rep)
	}
}

// replicateOracle is the default when_replicate rule as it was written in Go
// source before policies/replicate.lua became the default: the same
// branches, with the file's hot_factor and read_ratio as literals.
const replicateOracle = `
local mean = total / active
if replicas > 0 and (heat < mean / 2 or wr * 2 > rd) then
	return -1
end
if replicas < max_replicas and heat > 2 * mean and rd > 4 * wr then
	return 1
end
return 0`

// TestDefaultReplicateMatchesOracle: the default hook votes as the oracle
// does on the validator's envs and on seeded random ones whose heat, rd and
// wr sit near the thresholds.
func TestDefaultReplicateMatchesOracle(t *testing.T) {
	def, err := NewReplicateHook("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewReplicateHook(replicateOracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	envs := syntheticReplicateEnvs()
	rng := rand.New(rand.NewSource(1))
	pick := func(vals ...float64) float64 { return vals[rng.Intn(len(vals))] }
	for i := 0; i < 4000; i++ {
		n := 1 + rng.Intn(6)
		e := balancer.ReplicaEnv{WhoAmI: 0, Active: n, MaxReplicas: 2, Path: "/hot", Replicas: rng.Intn(4)}
		for r := 0; r < n; r++ {
			l := pick(0, 1, 10, 50, 100*rng.Float64())
			e.MDSs = append(e.MDSs, balancer.MDSMetrics{Auth: l, All: l, Load: l})
			e.Total += l
		}
		mean := e.Total / float64(n)
		e.Heat = pick(0, mean/2, 2*mean, 2*mean+1e-9, 4*mean*rng.Float64())
		e.Wr = pick(0, 1, 10, 100*rng.Float64())
		e.Rd = pick(0, 2*e.Wr, 4*e.Wr, 4*e.Wr+1, 1000*rng.Float64())
		envs = append(envs, e)
	}
	seen := map[int]int{}
	for i, e := range envs {
		got, gerr := def.Eval(e)
		want, werr := oracle.Eval(e)
		if got != want || (gerr == nil) != (werr == nil) {
			t.Fatalf("env %d %+v: policies/replicate.lua votes %d (%v), the oracle %d (%v)", i, e, got, gerr, want, werr)
		}
		seen[got]++
	}
	for _, v := range []int{ReplicateGrant, ReplicateRevoke, ReplicateHold} {
		if seen[v] == 0 {
			t.Errorf("no env drew the vote %d: %v", v, seen)
		}
	}
}
