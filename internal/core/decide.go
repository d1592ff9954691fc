package core

import (
	"slices"

	"mantle/internal/balancer"
	"mantle/internal/lua"
	"mantle/internal/namespace"
)

// decisionScalars are the scalar globals of Table 2 a decision kernel reads,
// in the order decide gathers them.
var decisionScalars = []string{"whoami", "total", "authmetaload", "allmetaload"}

// mdsKeyNames are mdsKeys as strings.
var mdsKeyNames = func() []string {
	names := make([]string, len(mdsKeys))
	for i, k := range mdsKeys {
		names[i] = k.(string)
	}
	return names
}()

// decision is a when, where or howmuch hook compiled to a statement kernel
// (lua.CompileStmtKernel), with the frame it runs in. Like a load kernel it
// stores no global itself; store publishes what its runs left.
type decision struct {
	hook  hook
	k     *lua.StmtKernel
	f     lua.Frame
	in    [4]float64
	names []lua.Value
	// keys are the MDSs fields the kernel reads, by index in mdsKeys.
	keys []int
	// whenSlot is the completion variable's slot in a when kernel, or -1;
	// whenNil says the last run left the variable unset, as the host's
	// reset before a tree-walked when leaves it.
	whenSlot int
	whenNil  bool
	// targets is the table a where kernel stands for, and refill says its
	// last run's stores are owed to it.
	targets *lua.Table
	refill  bool
}

// compileDecision compiles hook h to a statement kernel, or returns nil
// when the tree-walker has to run it.
func (b *LuaBalancer) compileDecision(h hook) *decision {
	k := lua.CompileStmtKernel(b.chunks[h], b.decisionSpec(h))
	if k == nil {
		return nil
	}
	for _, g := range k.Globals {
		if slices.Contains(loadLeaves, lua.Value(g)) {
			// The load kernels' leaves publish in any order, so no other
			// kernel may leave the same names.
			return nil
		}
	}
	d := &decision{hook: h, k: k, whenSlot: k.Slot(whenResultVar), targets: b.targets}
	for _, g := range k.Globals {
		d.names = append(d.names, g)
	}
	for c, used := range k.UsesKey {
		if used {
			d.keys = append(d.keys, c)
		}
	}
	d.f.In = d.in[:]
	d.f.Cols = make([][]float64, len(mdsKeys))
	return d
}

// decisionSpec is what decision hook h may touch as a kernel: the Table 2
// scalars and MDSs, and for where the targets table.
func (b *LuaBalancer) decisionSpec(h hook) lua.KernelSpec {
	spec := lua.KernelSpec{Scalars: decisionScalars, Rows: "MDSs", Keys: mdsKeyNames, MaxSteps: b.vm.MaxSteps}
	if h == hookWhere {
		spec.Out = "targets"
	}
	return spec
}

// decide runs d against e and reports whether the run finished; when it
// bails, nothing has changed and the caller walks the hook instead. A run
// reads #MDSs and MDSs[i][k] from e, which is what a bind would leave only
// while no script has written to the MDSs table.
func (b *LuaBalancer) decide(d *decision, e *balancer.Env) bool {
	if !b.mdssUntouched() {
		return false
	}
	if d.k.ReadsGlobals() {
		b.publish()
	}
	f := &d.f
	d.in = [4]float64{float64(e.WhoAmI) + 1, e.Total, e.AuthMetaLoad, e.AllMetaLoad}
	f.N = len(e.MDSs)
	for _, c := range d.keys {
		f.Cols[c] = mdsColumn(f.Cols[c][:0], e.MDSs, c)
	}
	if !d.k.Run(b.vm, f) {
		return false
	}
	b.skipBind(e)
	b.leave(d)
	return true
}

// whenResult is when's verdict from a finished run: the completion
// variable's truthiness if the run set it, else the returned value's.
func (d *decision) whenResult() bool {
	j := d.whenSlot
	d.whenNil = j < 0 || d.f.RunSet&(1<<j) == 0
	if d.whenNil {
		return d.f.Ret.Truthy()
	}
	return d.k.Truthy(&d.f, j)
}

// whereResult is where's reading of the targets table, from a finished
// run's stores: the last store to each of the keys 1..#MDSs, positive
// amounts only.
func (d *decision) whereResult(e *balancer.Env) (balancer.Targets, error) {
	d.refill = true
	out := make(balancer.Targets, len(d.f.Stores))
	for _, s := range d.f.Stores {
		i := int(s.Key)
		if float64(i) != s.Key || i < 1 || i > len(e.MDSs) {
			continue
		}
		if s.Val > 0 {
			out[namespace.Rank(i-1)] = s.Val
		} else {
			delete(out, namespace.Rank(i-1))
		}
	}
	return validTargets(out, e)
}

// howMuchResult is howmuch's selector list from a finished run.
func (d *decision) howMuchResult() ([]string, error) {
	r := &d.f.Ret
	switch r.Kind {
	case lua.StringsResult:
		return selectorList(append([]string(nil), r.Strs...))
	case lua.NumberResult:
		return nil, errNotSelectors(lua.TypeNumber)
	case lua.BoolResult:
		return nil, errNotSelectors(lua.TypeBool)
	}
	return nil, errNoSelectors()
}

// store publishes the globals d's runs left since the last publish, and
// what the host's own steps around a tree-walked run would have left: a
// when's unset completion variable, a where's refilled targets table.
func (d *decision) store(h *hookEnv) {
	f := &d.f
	for j, name := range d.names {
		if f.Set&(1<<j) != 0 {
			h.vm.Globals.Set(name, d.k.Value(f, j))
		}
	}
	f.Set = 0
	if d.hook == hookWhen && d.whenNil {
		h.vm.Globals.Set(whenResultKey, nil)
	}
	if d.refill {
		d.targets.Reset()
		for _, s := range f.Stores {
			d.targets.Set(lua.Box(s.Key), lua.Box(s.Val))
		}
		h.vm.Globals.Set(targetsKey, d.targets)
		d.refill = false
	}
}

// The global names the host stores around a decision, boxed once.
var (
	whenResultKey lua.Value = whenResultVar
	targetsKey    lua.Value = "targets"
)
