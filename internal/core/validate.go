package core

import (
	"fmt"
	"strings"

	"mantle/internal/balancer"
	"mantle/internal/lua"
	"mantle/internal/namespace"
)

// ValidationReport is the result of dry-running a policy against synthetic
// cluster states — the "simulator that checks the logic before injecting
// policies in the running cluster" that §4.4 of the paper describes.
type ValidationReport struct {
	// Problems lists everything that failed; empty means the policy is
	// safe to inject.
	Problems []string
	// WhenTrueStates counts synthetic states in which the policy chose
	// to migrate (useful to spot never-fires / always-fires policies).
	WhenTrueStates int
	// StatesTried is the number of synthetic cluster states evaluated.
	StatesTried int
	// Runs says, for each hook of a policy that compiled, whether it runs
	// as a kernel (Go arithmetic for a load hook, Go statements for a
	// decision) or on the interpreter.
	Runs []string
}

// OK reports whether validation found no problems.
func (r *ValidationReport) OK() bool { return len(r.Problems) == 0 }

// String renders the report for the CLI.
func (r *ValidationReport) String() string {
	var b strings.Builder
	if r.OK() {
		fmt.Fprintf(&b, "policy OK: %d/%d synthetic states would migrate\n", r.WhenTrueStates, r.StatesTried)
	} else {
		fmt.Fprintf(&b, "policy has %d problem(s):\n", len(r.Problems))
		for _, p := range r.Problems {
			fmt.Fprintf(&b, "  - %s\n", p)
		}
	}
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%s\n", run)
	}
	return b.String()
}

// runs describes how each hook of b runs, and why a hook that compiles to a
// kernel runs on the interpreter all the same.
func (b *LuaBalancer) runs() []string {
	var kernel [numHooks]bool
	kernel[hookMetaLoad], kernel[hookMDSLoad] = b.Kernels()
	kernel[hookWhen], kernel[hookWhere], kernel[hookHowMuch] = b.DecisionKernels()
	lines := make([]string, 0, numHooks)
	for h := hookMetaLoad; h < numHooks; h++ {
		line := hookNames[h] + " runs on the interpreter"
		switch {
		case kernel[h] && h == hookMetaLoad, kernel[h] && h == hookMDSLoad:
			line = hookNames[h] + " runs as a kernel (Go arithmetic)"
		case kernel[h]:
			line = hookNames[h] + " runs as a kernel (Go statements)"
		case h == hookMDSLoad && b.metaKernel == nil && lua.CompileKernel(b.chunks[h], b.vm.MaxSteps, mdsLoadInputs) != nil:
			line += ": it is kernel arithmetic, but an mdsload kernel needs a metaload kernel beside it"
		case h > hookMDSLoad && lua.CompileStmtKernel(b.chunks[h], b.decisionSpec(h)) != nil:
			if b.metaKernel == nil {
				line += ": it compiles to a kernel, but a decision kernel needs a metaload kernel beside it"
			} else {
				line += ": it compiles to a kernel, but it assigns a global a load kernel leaves (IRD IWR READDIR FETCH STORE i)"
			}
		}
		lines = append(lines, line)
	}
	return lines
}

// syntheticEnvs builds a spread of cluster states: idle, balanced, skewed,
// one-hot, and every rank as the decider, for sizes 1..5. Load and Total are
// left zero, as the cluster presents them to mds_bal_mdsload: Validate
// scores them with the policy's own hook.
func syntheticEnvs(state balancer.StateStore) []*balancer.Env {
	var envs []*balancer.Env
	shapes := [][]float64{
		{0},
		{100},
		{100, 0},
		{50, 50},
		{0.005, 0.002},
		{100, 0, 0, 0},
		{25, 25, 25, 25},
		{60, 30, 5, 5},
		{10, 80, 5, 5, 0},
	}
	for _, loads := range shapes {
		for who := range loads {
			e := &balancer.Env{WhoAmI: namespace.Rank(who), State: state}
			for _, l := range loads {
				cpu := l
				if cpu > 100 {
					cpu = 100
				}
				e.MDSs = append(e.MDSs, balancer.MDSMetrics{
					Auth: l, All: l, CPU: cpu,
					Mem: 10, Queue: l / 10, Req: l * 2,
				})
			}
			e.AuthMetaLoad = loads[who]
			e.AllMetaLoad = loads[who]
			envs = append(envs, e)
		}
	}
	return envs
}

// CheckPolicyFile is the shared `mantle-policy check` path: parse an
// injectable policy file and lint it against synthetic cluster states. A
// parse failure returns an error; a lint failure returns a non-OK report.
// name labels the policy (usually the file basename without extension).
func CheckPolicyFile(name, src string) (Policy, *ValidationReport, error) {
	p, err := ParsePolicyFile(name, src)
	if err != nil {
		return Policy{}, nil, err
	}
	return p, Validate(p), nil
}

// Validate compiles the policy with a tight step budget and dry-runs every
// hook against synthetic cluster states, collecting runtime errors, bad
// return types, invalid targets and unknown selector names.
func Validate(p Policy) *ValidationReport {
	rep := &ValidationReport{}
	lb, err := NewLuaBalancer(p, Options{MaxSteps: 200_000})
	if err != nil {
		rep.Problems = append(rep.Problems, err.Error())
		return rep
	}
	rep.Runs = lb.runs()
	seen := map[string]bool{}
	add := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if !seen[msg] {
			seen[msg] = true
			rep.Problems = append(rep.Problems, msg)
		}
	}

	// Metaload over representative counter snapshots, on a rank that has
	// not ticked yet, as a fresh rank's first heartbeat runs it.
	lb.Seed(0)
	for _, d := range []namespace.CounterSnapshot{
		{},
		{IWR: 100},
		{IRD: 50, IWR: 25, Readdir: 10, Fetch: 2, Store: 1},
	} {
		if v, err := lb.MetaLoad(d); err != nil {
			add("%s", err)
		} else if v < 0 {
			add("mantle: mds_bal_metaload returned a negative load (%g) for %+v", v, d)
		}
	}

	for _, e := range syntheticEnvs(lb.State()) {
		rep.StatesTried++
		if err := balancer.ScoreAll(lb, e); err != nil {
			add("%s", err)
		}
		ok, err := lb.When(e)
		if err != nil {
			add("%s (state: %d MDSs, whoami=%d)", err, len(e.MDSs), e.WhoAmI+1)
			continue
		}
		if !ok {
			continue
		}
		rep.WhenTrueStates++
		targets, err := lb.Where(e)
		if err != nil {
			add("%s (state: %d MDSs, whoami=%d)", err, len(e.MDSs), e.WhoAmI+1)
			continue
		}
		names, err := lb.HowMuch(e)
		if err != nil {
			add("%s", err)
			continue
		}
		cands := []balancer.FragCandidate{{ID: 0, Load: 5}, {ID: 1, Load: 3}, {ID: 2, Load: 8}}
		if _, _, _, err := balancer.ChooseFrags(names, cands, targets.TotalTarget()); err != nil {
			add("%s", err)
		}
	}

	// The elastic hook is validated only when the policy carries one: most
	// balancing policies have no membership opinion, and a missing hook must
	// not count against them.
	if strings.TrimSpace(p.WhenElastic) != "" {
		validateElastic(p.WhenElastic, add)
	}
	if strings.TrimSpace(p.WhenReplicate) != "" {
		validateReplicate(p.WhenReplicate, add)
	}
	return rep
}
