package core

import (
	"testing"

	"mantle/internal/namespace"
)

// policyFuzzSteps is the step budget of a fuzzed hook run: small, so a
// looping hook costs little beyond the lint's own dry runs.
const policyFuzzSteps = 5000

// FuzzPolicyFile parses arbitrary policy-file text and lints whatever
// parses, as `mantle-policy check` does; neither may panic. Each hook of a
// parsed policy is then compiled with a small step budget and run over the
// lint's synthetic states, and no run may escape that budget. The corpus
// starts from the shipped policies/*.lua.
func FuzzPolicyFile(f *testing.F) {
	for _, p := range policyFiles() {
		f.Add(FormatPolicyFile(p))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePolicyFile("fuzz", src)
		if err != nil {
			return
		}
		if _, rep, err := CheckPolicyFile("fuzz", src); err != nil || rep == nil {
			t.Fatalf("parsed, but the lint refused it: %v", err)
		}
		runBudgeted(t, p)
	})
}

// runBudgeted runs every hook of p that compiles over the synthetic states
// with policyFuzzSteps as the budget, and fails if a run outlasts it.
func runBudgeted(t *testing.T, p Policy) {
	t.Helper()
	opts := Options{MaxSteps: policyFuzzSteps}
	within := func(hook string, h *hookEnv) {
		if s := h.vm.Steps(); s > policyFuzzSteps+1 {
			t.Fatalf("%s ran %d steps on a budget of %d", hook, s, policyFuzzSteps)
		}
	}
	if lb, err := NewLuaBalancer(p, opts); err == nil {
		_, _ = lb.MetaLoad(namespace.CounterSnapshot{IRD: 50, IWR: 25, Readdir: 10})
		within("metaload", &lb.hookEnv)
		for _, e := range syntheticEnvs(lb.State()) {
			for r := range e.MDSs {
				_, _ = lb.MDSLoad(namespace.Rank(r), e)
				within("mdsload", &lb.hookEnv)
			}
			_, _ = lb.When(e)
			within("when", &lb.hookEnv)
			_, _ = lb.Where(e)
			within("where", &lb.hookEnv)
			_, _ = lb.HowMuch(e)
			within("howmuch", &lb.hookEnv)
		}
	}
	if h, err := NewElasticHook(p.WhenElastic, opts); err == nil {
		for _, e := range syntheticElasticEnvs() {
			_, _ = h.Eval(e)
			within("when_elastic", &h.hookEnv)
		}
	}
	if h, err := NewReplicateHook(p.WhenReplicate, opts); err == nil {
		for _, e := range syntheticReplicateEnvs() {
			_, _ = h.Eval(e)
			within("when_replicate", &h.hookEnv)
		}
	}
}
