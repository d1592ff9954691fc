// Package core implements Mantle, the paper's contribution: a programmable
// metadata load balancer whose policy decisions — load calculation, "when"
// to migrate, "where" to send load, and "how much" accuracy — are injectable
// Lua scripts evaluated against the environment of Table 2.
//
// A Policy is five scripts. LuaBalancer compiles them once and implements
// the same balancer.Balancer interface as the Go-native policies, so the MDS
// mechanism (dynamic subtree partitioning, dirfrag export, heartbeats) is
// untouched — exactly the policy/mechanism split the paper argues for.
// Scripts run on a per-MDS VM whose globals persist across invocations, so
// the paper's listings — which pass values from the "when" hook to the
// "where" hook through globals like `t` and `go_` — work as written.
package core

import (
	"fmt"
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

// LuaBalancer runs a Policy. It implements balancer.Balancer.
type LuaBalancer struct {
	hookEnv
	policy Policy
	chunks [numHooks]*lua.Chunk
	// targets is cleared, not reallocated, for every where hook.
	targets *lua.Table
}

var _ balancer.Balancer = (*LuaBalancer)(nil)

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
	return b, nil
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

func wantNumberResult(h hook, vals []lua.Value) (float64, error) {
	if len(vals) == 0 {
		return 0, fmt.Errorf("mantle: %s returned no value", hookNames[h])
	}
	n, ok := lua.Number(vals[0])
	if !ok {
		return 0, fmt.Errorf("mantle: %s returned %v, want number", hookNames[h], lua.TypeOf(vals[0]))
	}
	return n, nil
}

// MetaLoad implements balancer.Balancer by evaluating mds_bal_metaload with
// the dirfrag's counters bound to IRD/IWR/READDIR/FETCH/STORE.
func (b *LuaBalancer) MetaLoad(d namespace.CounterSnapshot) (float64, error) {
	b.setNum("IRD", d.IRD)
	b.setNum("IWR", d.IWR)
	b.setNum("READDIR", d.Readdir)
	b.setNum("FETCH", d.Fetch)
	b.setNum("STORE", d.Store)
	vals, err := b.run(b.chunks[hookMetaLoad])
	if err != nil {
		return 0, err
	}
	return wantNumberResult(hookMetaLoad, vals)
}

// MDSLoad implements balancer.Balancer by evaluating mds_bal_mdsload with
// the global i set to the 1-based rank being scored.
func (b *LuaBalancer) MDSLoad(rank namespace.Rank, e *balancer.Env) (float64, error) {
	b.bindEnv(e)
	return b.mdsLoad(rank)
}

// mdsLoad, when, where and howMuch evaluate a hook against the environment
// already bound (the differential test binds it the old way instead).
func (b *LuaBalancer) mdsLoad(rank namespace.Rank) (float64, error) {
	b.setNum("i", float64(rank)+1)
	vals, err := b.run(b.chunks[hookMDSLoad])
	if err != nil {
		return 0, err
	}
	return wantNumberResult(hookMDSLoad, vals)
}

// When implements balancer.Balancer. A when script may either return a
// value (its truthiness decides) or be a then-fragment that sets the
// completion variable.
func (b *LuaBalancer) When(e *balancer.Env) (bool, error) {
	b.bindEnv(e)
	return b.when()
}

func (b *LuaBalancer) when() (bool, error) {
	b.vm.Globals.SetString(whenResultVar, nil)
	vals, err := b.run(b.chunks[hookWhen])
	if err != nil {
		return false, err
	}
	if v := b.vm.Globals.GetString(whenResultVar); v != nil {
		return lua.Truthy(v), nil
	}
	if len(vals) == 0 {
		return false, nil
	}
	return lua.Truthy(vals[0]), nil
}

// Where implements balancer.Balancer: the script populates the 1-based
// targets[] table, which is read back into rank-keyed Targets.
func (b *LuaBalancer) Where(e *balancer.Env) (balancer.Targets, error) {
	b.bindEnv(e)
	return b.where(e)
}

func (b *LuaBalancer) where(e *balancer.Env) (balancer.Targets, error) {
	targets := b.targets
	targets.Reset()
	b.vm.Globals.SetString("targets", targets)
	if _, err := b.run(b.chunks[hookWhere]); err != nil {
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
	if err := out.Validate(e); err != nil {
		return nil, fmt.Errorf("mantle: %s: %w", hookNames[hookWhere], err)
	}
	return out, nil
}

// HowMuch implements balancer.Balancer: the script returns a table of
// selector names (or a single name string).
func (b *LuaBalancer) HowMuch(e *balancer.Env) ([]string, error) {
	b.bindEnv(e)
	return b.howMuch()
}

func (b *LuaBalancer) howMuch() ([]string, error) {
	vals, err := b.run(b.chunks[hookHowMuch])
	if err != nil {
		return nil, err
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("mantle: %s returned no value", hookNames[hookHowMuch])
	}
	switch v := vals[0].(type) {
	case string:
		return []string{v}, nil
	case *lua.Table:
		var names []string
		for i := 1; i <= v.Len(); i++ {
			s, ok := v.GetInt(i).(string)
			if !ok {
				return nil, fmt.Errorf("mantle: %s: element %d is not a string", hookNames[hookHowMuch], i)
			}
			names = append(names, s)
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("mantle: %s returned an empty selector list", hookNames[hookHowMuch])
		}
		return names, nil
	default:
		return nil, fmt.Errorf("mantle: %s returned %v, want table of strings", hookNames[hookHowMuch], lua.TypeOf(vals[0]))
	}
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
	b.setNum("whoami", float64(e.WhoAmI)+1)
	b.setNum("total", e.Total)
	b.setNum("authmetaload", e.AuthMetaLoad)
	b.setNum("allmetaload", e.AllMetaLoad)
	b.bindRanks(mdsBits(b.spare[:0], e.MDSs))
}
