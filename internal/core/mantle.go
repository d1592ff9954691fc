// Package core implements Mantle, the paper's contribution: a programmable
// metadata load balancer whose policy decisions — load calculation, "when"
// to migrate, "where" to send load, and "how much" accuracy — are injectable
// Lua scripts evaluated against the environment of Table 2.
//
// A Policy is five scripts; the built-ins are the files of policies/. A
// LuaBalancer compiles them once and implements balancer.Balancer, the
// interface a Go policy implements too, so the MDS mechanism (dynamic
// subtree partitioning, dirfrag export, heartbeats) is untouched — exactly
// the policy/mechanism split the paper argues for.
// Scripts run on a per-MDS VM whose globals persist across invocations, so
// the paper's listings — which pass values from the "when" hook to the
// "where" hook through globals like `t` and `go_` — work as written.
package core

import (
	"fmt"
	"math"
	"strings"

	"mantle/internal/balancer"
	"mantle/internal/lua"
	"mantle/internal/namespace"
)

// Policy is a set of injectable balancer scripts. Empty fields fall back to
// the original CephFS behaviour for that hook (Table 1), so a policy may
// override only the decisions it cares about.
type Policy struct {
	// Name labels the policy in logs and experiment output.
	Name string
	// MetaLoad computes the load on a dirfrag/subtree
	// (mds_bal_metaload). Environment: IRD, IWR, READDIR, FETCH, STORE,
	// whoami, authmetaload, allmetaload. May be a bare expression such
	// as `IRD + 2*IWR`.
	MetaLoad string
	// MDSLoad computes the load on MDS i (mds_bal_mdsload).
	// Environment: i, MDSs[i]["auth"|"all"|"cpu"|"mem"|"q"|"req"].
	MDSLoad string
	// When decides whether to migrate (mds_bal_when). May be a full
	// chunk returning a boolean, a bare expression, or — as in the
	// paper's listings — a fragment ending in `then`, which Mantle
	// completes.
	When string
	// Where fills the targets[] table with how much load to send to
	// each MDS (mds_bal_where; 1-based indexes as in the paper).
	Where string
	// HowMuch returns the list of dirfrag selectors to try
	// (mds_bal_howmuch), e.g. `{"big_first"}` or `{"half","small"}`.
	HowMuch string
	// WhenElastic decides whether the rank pool grows or shrinks
	// (when_elastic). Evaluated by the elastic coordinator, not by the
	// per-rank balancer; see ElasticHook. Empty = no opinion (a cluster
	// without elasticity enabled ignores it entirely).
	WhenElastic string
	// WhenReplicate decides whether a read-hot directory gains or loses
	// read replicas (when_replicate). Evaluated by the authoritative rank
	// per hot candidate; see ReplicateHook. Empty = no opinion (a cluster
	// without replication enabled ignores it entirely).
	WhenReplicate string
}

// hook identifies one compiled script.
type hook int

const (
	hookMetaLoad hook = iota
	hookMDSLoad
	hookWhen
	hookWhere
	hookHowMuch
	numHooks
)

var hookNames = [numHooks]string{
	"mds_bal_metaload", "mds_bal_mdsload", "mds_bal_when",
	"mds_bal_where", "mds_bal_howmuch",
}

// whenResultVar is the global the "then-fragment" transformation assigns.
const whenResultVar = "__mantle_when"

// DefaultMaxSteps is the per-invocation instruction budget. Generous for a
// balancing decision, far too small for a runaway loop — the safety check
// §4.4 of the paper leaves as future work.
const DefaultMaxSteps = 1_000_000

// Options tunes the sandbox.
type Options struct {
	// MaxSteps bounds each hook invocation (0 = DefaultMaxSteps).
	MaxSteps int64
}

// metaLoadInputs are what a metaload kernel reads, in the order MetaLoad
// gathers them.
var metaLoadInputs = []lua.Input{{Name: "IRD"}, {Name: "IWR"}, {Name: "READDIR"}, {Name: "FETCH"}, {Name: "STORE"}}

// mdsLoadInputs are what an mdsload kernel reads, in the order kernelLoad
// gathers them: i and the four scalars, then MDSs[i][k] for each k in
// mdsKeys.
var mdsLoadInputs = func() []lua.Input {
	in := []lua.Input{{Name: "i"}, {Name: "whoami"}, {Name: "total"}, {Name: "authmetaload"}, {Name: "allmetaload"}}
	for _, k := range mdsKeys {
		in = append(in, lua.Input{Name: "MDSs", Index: "i", Key: k.(string)})
	}
	return in
}()

// loadLeaves are the globals the load kernels leave: metaload's five
// counters, then mdsload's i.
var loadLeaves = []lua.Value{"IRD", "IWR", "READDIR", "FETCH", "STORE", "i"}

// LuaBalancer runs a Policy. It implements balancer.Balancer.
type LuaBalancer struct {
	hookEnv
	policy Policy
	chunks [numHooks]*lua.Chunk
	// metaKernel and mdsKernel are the load hooks compiled to Go arithmetic,
	// and when, where and howMuch the decision hooks compiled to statement
	// kernels; nil for a hook the tree-walker runs.
	metaKernel, mdsKernel   *kernel
	whenK, whereK, howMuchK *decision
	// targets is cleared, not reallocated, for every where hook.
	targets *lua.Table
}

var (
	_ balancer.Balancer = (*LuaBalancer)(nil)
	_ balancer.Scorer   = (*LuaBalancer)(nil)
	_ balancer.Seeder   = (*LuaBalancer)(nil)
)

// NewLuaBalancer compiles the policy. Compilation errors carry the hook
// name, the script line, and the parser message.
func NewLuaBalancer(p Policy, opts Options) (*LuaBalancer, error) {
	b := &LuaBalancer{policy: p, targets: lua.NewTable()}
	b.init(mdsKeys, opts)
	defaults := DefaultPolicy()
	srcs := [numHooks]string{p.MetaLoad, p.MDSLoad, p.When, p.Where, p.HowMuch}
	defs := [numHooks]string{defaults.MetaLoad, defaults.MDSLoad, defaults.When, defaults.Where, defaults.HowMuch}
	for h := hookMetaLoad; h < numHooks; h++ {
		src := strings.TrimSpace(srcs[h])
		if src == "" {
			src = defs[h]
		}
		// A when hook written like the paper's listings ends in `then`;
		// complete it into a chunk that sets the result variable.
		if h == hookWhen && strings.HasSuffix(src, "then") {
			src = whenResultVar + " = false " + src + " " + whenResultVar + " = true end"
		}
		chunk, err := compile(hookNames[h], src)
		if err != nil {
			return nil, err
		}
		b.chunks[h] = chunk
	}
	// A metaload kernel leaves the five counters behind, an mdsload kernel
	// i, a decision kernel the globals its chunk assigns. Every kernel but
	// metaload's skips the bind a tree-walked hook starts with, whose
	// globals only a tree-walked metaload could read before the next bind
	// (every other tree-walked hook binds first), so it needs a metaload
	// kernel beside it.
	b.metaKernel = b.compileKernel(b.chunks[hookMetaLoad], metaLoadInputs, loadLeaves[:5]...)
	if b.metaKernel != nil {
		b.mdsKernel = b.compileKernel(b.chunks[hookMDSLoad], mdsLoadInputs, loadLeaves[5:]...)
		b.whenK = b.compileDecision(hookWhen)
		b.whereK = b.compileDecision(hookWhere)
		b.howMuchK = b.compileDecision(hookHowMuch)
	}
	return b, nil
}

// Kernels reports which load hooks run as Go arithmetic rather than on the
// interpreter.
func (b *LuaBalancer) Kernels() (metaLoad, mdsLoad bool) {
	return b.metaKernel != nil, b.mdsKernel != nil
}

// DecisionKernels reports which decision hooks run as statement kernels
// rather than on the interpreter.
func (b *LuaBalancer) DecisionKernels() (when, where, howMuch bool) {
	return b.whenK != nil, b.whereK != nil, b.howMuchK != nil
}

// Name implements balancer.Balancer.
func (b *LuaBalancer) Name() string {
	if b.policy.Name != "" {
		return b.policy.Name
	}
	return "mantle"
}

// Policy returns the injected scripts.
func (b *LuaBalancer) Policy() Policy { return b.policy }

// State exposes the WRstate/RDstate store.
func (b *LuaBalancer) State() balancer.StateStore { return b.state }

// VM exposes the underlying interpreter for the policy linter.
func (b *LuaBalancer) VM() *lua.VM { return b.vm }

// wantNumberResult checks a load hook's result: a number, and a finite one.
// A NaN passes every comparison a caller clamps with and poisons the sum it
// joins, so it is a policy error like any other bad result.
func wantNumberResult(h hook, v lua.Value, ok bool) (float64, error) {
	if !ok {
		return 0, fmt.Errorf("mantle: %s returned no value", hookNames[h])
	}
	n, isNum := lua.Number(v)
	if !isNum {
		return 0, fmt.Errorf("mantle: %s returned %v, want number", hookNames[h], lua.TypeOf(v))
	}
	return wantFinite(h, n)
}

// wantFinite is wantNumberResult's check of a number, which is all a
// kernel's result needs.
func wantFinite(h hook, n float64) (float64, error) {
	if math.IsNaN(n) || math.IsInf(n, 0) {
		return 0, fmt.Errorf("mantle: %s returned %g, want a finite number", hookNames[h], n)
	}
	return n, nil
}

// Seed implements balancer.Seeder: it publishes the scalars of metaload's
// environment that a tick's bind would, for a rank that has not ticked yet —
// whoami, and both loads zero.
func (b *LuaBalancer) Seed(whoami namespace.Rank) {
	b.setNum("whoami", float64(whoami)+1)
	b.setNum("authmetaload", 0)
	b.setNum("allmetaload", 0)
}

// MetaLoad implements balancer.Balancer by evaluating mds_bal_metaload with
// the dirfrag's counters bound to IRD/IWR/READDIR/FETCH/STORE (handed to
// the kernel, when there is one).
func (b *LuaBalancer) MetaLoad(d namespace.CounterSnapshot) (float64, error) {
	if k := b.metaKernel; k != nil {
		in := k.in[:5]
		in[0], in[1], in[2], in[3], in[4] = d.IRD, d.IWR, d.Readdir, d.Fetch, d.Store
		b.evaluated(k)
		return wantFinite(hookMetaLoad, k.eval(in))
	}
	b.setNum("IRD", d.IRD)
	b.setNum("IWR", d.IWR)
	b.setNum("READDIR", d.Readdir)
	b.setNum("FETCH", d.Fetch)
	b.setNum("STORE", d.Store)
	v, ok, err := b.run(b.chunks[hookMetaLoad])
	if err != nil {
		return 0, err
	}
	return wantNumberResult(hookMetaLoad, v, ok)
}

// MDSLoad implements balancer.Balancer by evaluating mds_bal_mdsload with
// the global i set to the 1-based rank being scored.
func (b *LuaBalancer) MDSLoad(rank namespace.Rank, e *balancer.Env) (float64, error) {
	if b.mdsKernel != nil {
		return b.kernelLoad(e, int(rank))
	}
	b.bindEnv(e)
	return b.mdsLoad(rank)
}

// kernelLoad is MDSLoad through the mdsload kernel, reading e directly.
func (b *LuaBalancer) kernelLoad(e *balancer.Env, r int) (float64, error) {
	b.skipBind(e)
	k := b.mdsKernel
	in := k.in[:5+len(mdsKeys)]
	in[0], in[1], in[2], in[3], in[4] = float64(r)+1, float64(e.WhoAmI)+1, e.Total, e.AuthMetaLoad, e.AllMetaLoad
	vals := mdsValues(&e.MDSs[r])
	copy(in[5:], vals[:])
	b.evaluated(k)
	return wantFinite(hookMDSLoad, k.eval(in))
}

// skipBind is what a kernel, which reads e directly, keeps of the bind its
// tree-walked twin starts with: the two effects that the next bind would not
// redo, the state store and dropping the rank tables of a cluster that
// shrank — a later bind that grows it again makes fresh tables, without the
// keys a script added to the dropped ones.
func (b *LuaBalancer) skipBind(e *balancer.Env) {
	if e.State != nil {
		b.state = e.State
	}
	if len(e.MDSs) < len(b.ranks) {
		b.dropRanks(len(e.MDSs))
	}
}

// ScoreRanks implements balancer.Scorer. A kernel reads each rank from e
// and binds nothing. The tree-walker binds e once: between two ranks the
// environment a loop of MDSLoad calls would bind differs only in the
// previous rank's load and in total, so only those are stored again, with
// the scalars, the MDSs global and any rank table a script clobbered.
func (b *LuaBalancer) ScoreRanks(e *balancer.Env, from int) (int, error) {
	if b.mdsKernel != nil {
		for r := from; r < len(e.MDSs); r++ {
			load, err := b.kernelLoad(e, r)
			if err != nil {
				return r, err
			}
			e.Score(r, load)
		}
		return len(e.MDSs), nil
	}
	// The scalars that stay put are boxed once and stored again per rank.
	who, am, al := lua.Box(float64(e.WhoAmI)+1), lua.Box(e.AuthMetaLoad), lua.Box(e.AllMetaLoad)
	for r := from; r < len(e.MDSs); r++ {
		if r == from {
			b.bindEnv(e)
		} else {
			b.bindScalars(who, lua.Box(e.Total), am, al)
			b.rebindField(r-1, mdsLoadField, e.MDSs[r-1].Load)
		}
		load, err := b.mdsLoad(namespace.Rank(r))
		if err != nil {
			return r, err
		}
		e.Score(r, load)
	}
	return len(e.MDSs), nil
}

// mdsLoad, when, where and howMuch evaluate a hook against the environment
// already bound (the differential test binds it the old way instead).
func (b *LuaBalancer) mdsLoad(rank namespace.Rank) (float64, error) {
	b.setNum("i", float64(rank)+1)
	v, ok, err := b.run(b.chunks[hookMDSLoad])
	if err != nil {
		return 0, err
	}
	return wantNumberResult(hookMDSLoad, v, ok)
}

// When implements balancer.Balancer. A when script may either return a
// value (its truthiness decides) or be a then-fragment that sets the
// completion variable. A kernel reads e directly; the environment is bound
// only for a hook the tree-walker runs.
func (b *LuaBalancer) When(e *balancer.Env) (bool, error) {
	if d := b.whenK; d != nil && b.decide(d, e) {
		return d.whenResult(), nil
	}
	b.bindEnv(e)
	return b.when()
}

func (b *LuaBalancer) when() (bool, error) {
	b.vm.Globals.SetString(whenResultVar, nil)
	v, _, err := b.run(b.chunks[hookWhen])
	if err != nil {
		return false, err
	}
	if set := b.vm.Globals.GetString(whenResultVar); set != nil {
		return lua.Truthy(set), nil
	}
	return lua.Truthy(v), nil
}

// Where implements balancer.Balancer: the script populates the 1-based
// targets[] table, which is read back into rank-keyed Targets.
func (b *LuaBalancer) Where(e *balancer.Env) (balancer.Targets, error) {
	if d := b.whereK; d != nil && b.decide(d, e) {
		return d.whereResult(e)
	}
	b.bindEnv(e)
	return b.where(e)
}

func (b *LuaBalancer) where(e *balancer.Env) (balancer.Targets, error) {
	targets := b.targets
	targets.Reset()
	b.vm.Globals.SetString("targets", targets)
	if _, _, err := b.run(b.chunks[hookWhere]); err != nil {
		return nil, err
	}
	out := balancer.Targets{}
	for i := 1; i <= len(e.MDSs); i++ {
		v := targets.GetInt(i)
		if v == nil {
			continue
		}
		amt, ok := lua.Number(v)
		if !ok {
			return nil, fmt.Errorf("mantle: %s: targets[%d] is %v, want number", hookNames[hookWhere], i, lua.TypeOf(v))
		}
		if amt > 0 {
			out[namespace.Rank(i-1)] = amt
		}
	}
	return validTargets(out, e)
}

// validTargets returns out, or why where's output is not valid for e. Its
// ranks are in range and its amounts positive, as where reads them, so only
// a target of the rank itself can fail out.Validate.
func validTargets(out balancer.Targets, e *balancer.Env) (balancer.Targets, error) {
	if _, self := out[e.WhoAmI]; self {
		return nil, fmt.Errorf("mantle: %s: %w", hookNames[hookWhere], out.Validate(e))
	}
	return out, nil
}

// HowMuch implements balancer.Balancer: the script returns a table of
// selector names (or a single name string).
func (b *LuaBalancer) HowMuch(e *balancer.Env) ([]string, error) {
	if d := b.howMuchK; d != nil && b.decide(d, e) {
		return d.howMuchResult()
	}
	b.bindEnv(e)
	return b.howMuch()
}

func (b *LuaBalancer) howMuch() ([]string, error) {
	first, ok, err := b.run(b.chunks[hookHowMuch])
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errNoSelectors()
	}
	switch v := first.(type) {
	case string:
		return []string{v}, nil
	case *lua.Table:
		names := make([]string, 0, v.Len())
		for i := 1; i <= v.Len(); i++ {
			s, ok := v.GetInt(i).(string)
			if !ok {
				return nil, fmt.Errorf("mantle: %s: element %d is not a string", hookNames[hookHowMuch], i)
			}
			names = append(names, s)
		}
		return selectorList(names)
	default:
		return nil, errNotSelectors(lua.TypeOf(first))
	}
}

// The howmuch errors a tree-walked hook and a kernel share.
func errNoSelectors() error {
	return fmt.Errorf("mantle: %s returned no value", hookNames[hookHowMuch])
}

func errNotSelectors(t lua.Type) error {
	return fmt.Errorf("mantle: %s returned %v, want table of strings", hookNames[hookHowMuch], t)
}

func selectorList(names []string) ([]string, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("mantle: %s returned an empty selector list", hookNames[hookHowMuch])
	}
	return names, nil
}

// bindEnv publishes the Table 2 environment into the VM's globals: whoami
// and the MDSs array are 1-based, matching the paper's scripts. The
// caller-provided state store (the MDS's, possibly RADOS-backed) replaces
// the balancer's private one so WRstate/RDstate persist where the cluster
// says they should.
func (b *LuaBalancer) bindEnv(e *balancer.Env) {
	if e.State != nil {
		b.state = e.State
	}
	b.bindScalars(lua.Box(float64(e.WhoAmI)+1), lua.Box(e.Total), lua.Box(e.AuthMetaLoad), lua.Box(e.AllMetaLoad))
	b.bindRanks(mdsBits(b.spare[:0], e.MDSs))
}

// bindScalars publishes the environment's scalar globals, boxed.
func (b *LuaBalancer) bindScalars(whoami, total, authMetaLoad, allMetaLoad lua.Value) {
	g := b.vm.Globals
	g.Set("whoami", whoami)
	g.Set("total", total)
	g.Set("authmetaload", authMetaLoad)
	g.Set("allmetaload", allMetaLoad)
}
