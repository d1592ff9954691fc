package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mantle/policies"
)

// policyFiles parses every embedded policies/*.lua once, keyed by file name;
// the package doc there says where each listing departs from the paper's
// text. A Policy is a value, so each caller gets its own copy.
var policyFiles = sync.OnceValue(func() map[string]Policy {
	m := map[string]Policy{}
	files, _ := policies.Files.ReadDir(".") // an embedded directory reads without error
	for _, f := range files {
		src, _ := policies.Files.ReadFile(f.Name())
		p, err := ParsePolicyFile(strings.TrimSuffix(f.Name(), ".lua"), string(src))
		if err != nil {
			panic(err)
		}
		m[p.Name] = p
	}
	return m
})

// builtin returns a copy of policies/<name>.lua.
func builtin(name string) Policy {
	p, ok := policyFiles()[name]
	if !ok {
		panic("core: no policies/" + name + ".lua")
	}
	return p
}

// override returns hook with its one occurrence of old replaced by new. A
// variant that overrode nothing would ship the file's value under its own
// name, so a miss panics.
func override(hook, old, new string) string {
	if strings.Count(hook, old) != 1 {
		panic(fmt.Sprintf("core: override %q does not occur once in %q", old, hook))
	}
	return strings.Replace(hook, old, new, 1)
}

// DefaultPolicy is the original CephFS balancer of Table 1. Hooks left empty
// in an injected Policy fall back to these.
func DefaultPolicy() Policy { return builtin("cephfs_original") }

// GreedySpillPolicy is Listing 1: spill half to the next rank once it idles.
func GreedySpillPolicy() Policy { return builtin("greedy_spill") }

// GreedySpillEvenPolicy is Listing 2: spill half-way across the cluster.
func GreedySpillEvenPolicy() Policy { return builtin("greedy_spill_even") }

// FillAndSpillPolicy is Listing 3: spill a quarter after three hot rounds.
func FillAndSpillPolicy() Policy { return builtin("fill_and_spill") }

// FillAndSpillPolicyWithFraction varies the spilled share (Figure 8 compares
// 10 %, 25 % and 50 % spills).
func FillAndSpillPolicyWithFraction(frac float64) Policy {
	p := FillAndSpillPolicy()
	p.Name = fmt.Sprintf("fill_and_spill_%d", int(frac*100+0.5))
	p.Where = override(p.Where, `MDSs[whoami]["load"]/4`, fmt.Sprintf(`MDSs[whoami]["load"]*%g`, frac))
	return p
}

// AdaptablePolicy is Listing 4: the majority holder fills others to the mean.
func AdaptablePolicy() Policy { return builtin("adaptable") }

// ConservativePolicy is the Figure 10 top-graph variant: Listing 4 plus a
// minimum-offload floor, so nothing moves until one rank is severely loaded.
func ConservativePolicy(minOffload float64) Policy {
	p := builtin("adaptable_conservative")
	p.When = override(p.When, "myLoad > 100 and", fmt.Sprintf("myLoad > %g and", minOffload))
	return p
}

// TooAggressivePolicy is Figure 10's bottom graph: migrate on any imbalance.
func TooAggressivePolicy() Policy { return builtin("adaptable_too_aggressive") }

// CoalescePolicy brings metadata home after a flash crowd (§3): a rank other
// than the first whose load stays under idleThreshold for two straight
// rounds sends everything it owns back to the first rank.
func CoalescePolicy(idleThreshold float64) Policy {
	p := builtin("coalesce_home")
	p.When = override(p.When, `["load"] < 10 and`, fmt.Sprintf(`["load"] < %g and`, idleThreshold))
	return p
}

// BrokenPolicy returns a deliberately faulty balancer version for fault
// injection — the untrusted-script scenario §3 versions balancers against.
// Mode "error" raises a Lua runtime error from the when hook; mode "garbage"
// compiles and runs cleanly but emits absurd targets (orders of magnitude
// more load than the cluster holds), which only target sanity checks catch.
// These policies intentionally fail core.Validate; inject them without
// linting, as a hostile or buggy operator would.
func BrokenPolicy(mode string) Policy {
	p := DefaultPolicy()
	p.Name = "broken_" + mode
	switch mode {
	case "error":
		p.When = `return nil + 1`
	case "garbage":
		p.When = `if total >= 0 then`
		p.Where = `
for i = 1, #MDSs do
  if i ~= whoami then targets[i] = total*1000 + 1000000 end
end`
	default:
		panic(fmt.Sprintf("core: unknown broken-policy mode %q", mode))
	}
	return p
}

// Policies returns the built-in balancers by name: every policies/ file with
// a when hook.
func Policies() map[string]Policy {
	m := map[string]Policy{}
	for name, p := range policyFiles() {
		if p.When != "" {
			m[name] = p
		}
	}
	return m
}

// PolicyNames lists the built-in balancer names in sorted order.
func PolicyNames() []string {
	m := Policies()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
