package core

import (
	"fmt"
	"math"

	"mantle/internal/balancer"
	"mantle/internal/lua"
)

// A hook family's MDSs[i] is described by a field table in two halves: the
// Lua keys, and a function appending every rank's values for those keys, in
// key order, as math.Float64bits. Giving a hook a new per-rank field is one
// more key and one more value. The values are gathered by one plain loop per
// bind, not by a getter per field, because the binder reads every rank's
// values on every hook to find the few that changed.

// mdsKeys and mdsBits are MDSs[i] of the balancing hooks (Table 2) and of
// when_replicate.
var mdsKeys = []lua.Value{"auth", "all", "cpu", "mem", "q", "req", "load"}

func mdsBits(dst []uint64, mdss []balancer.MDSMetrics) []uint64 {
	for i := range mdss {
		m := &mdss[i]
		dst = append(dst, bits(m.Auth), bits(m.All), bits(m.CPU), bits(m.Mem), bits(m.Queue), bits(m.Req), bits(m.Load))
	}
	return dst
}

// elasticKeys and elasticBits are MDSs[i] of when_elastic.
var elasticKeys = []lua.Value{"q", "req", "cpu", "load", "lat"}

func elasticBits(dst []uint64, mdss []ElasticRankMetrics) []uint64 {
	for i := range mdss {
		m := &mdss[i]
		dst = append(dst, bits(m.Queue), bits(m.Req), bits(m.CPU), bits(m.Load), bits(m.LatMS))
	}
	return dst
}

func bits(v float64) uint64 { return math.Float64bits(v) }

// boundRank is one MDSs[i] table. writes is t.Writes() as the binder left
// it: a different count at the next bind means a script wrote to the table,
// so the shadow no longer describes it and every field is stored again.
type boundRank struct {
	t      *lua.Table
	writes uint64
}

// hookEnv is what every hook family evaluates in: a sandboxed VM whose
// globals persist across invocations, the WRstate/RDstate store, and the
// cached MDSs table. The MDSs table and its per-rank tables keep their
// identity across invocations; a bind stores only the fields whose value
// differs from what the table already holds, so scoring N ranks against one
// environment costs N stores, not N².
type hookEnv struct {
	vm    *lua.VM
	state balancer.StateStore
	keys  []lua.Value
	mdss  *lua.Table
	ranks []boundRank
	// shadow holds, rank-major in key order, the bits of the value last
	// stored in every field (bits, so that a NaN equals itself and -0
	// differs from +0); spare is the buffer the next bind's values are
	// gathered into before the two swap.
	shadow, spare []uint64

	// HookErrors counts runtime failures, surfaced by the policy linter,
	// the MDS log and the elastic coordinator.
	HookErrors int
}

// init builds the sandbox for a family whose MDSs[i] carries keys, and
// installs WRstate/RDstate over the private state store.
func (h *hookEnv) init(keys []lua.Value, opts Options) {
	h.vm, h.state, h.keys, h.mdss = lua.NewVM(), &balancer.MemState{}, keys, lua.NewTable()
	h.vm.MaxSteps = DefaultMaxSteps
	if opts.MaxSteps > 0 {
		h.vm.MaxSteps = opts.MaxSteps
	}
	write := lua.GoFunc(func(args []lua.Value) ([]lua.Value, error) {
		if len(args) == 0 {
			h.state.Write(nil)
		} else {
			h.state.Write(args[0])
		}
		return nil, nil
	})
	read := lua.GoFunc(func(args []lua.Value) ([]lua.Value, error) {
		return []lua.Value{h.state.Read()}, nil
	})
	// The paper's Table 2 and listings disagree on capitalisation
	// (WRstate vs WRState); accept both.
	for _, n := range []string{"WRstate", "WRState"} {
		h.vm.Globals.SetString(n, write)
	}
	for _, n := range []string{"RDstate", "RDState"} {
		h.vm.Globals.SetString(n, read)
	}
}

// compile compiles one hook script; errors carry the hook name, the script
// line and the parser message.
func compile(name, src string) (*lua.Chunk, error) {
	chunk, err := lua.CompileExprOrChunk(name, src)
	if err != nil {
		return nil, fmt.Errorf("mantle: compile %s: %w", name, err)
	}
	return chunk, nil
}

// setNum publishes one scalar global. Scripts assign globals freely, so
// scalars are stored on every bind rather than diffed. The name is taken as
// a Value so that a constant at the call site is boxed at compile time, not
// on every call.
func (h *hookEnv) setNum(name lua.Value, v float64) {
	h.vm.Globals.Set(name, lua.Box(v))
}

// bindRanks publishes the ranks whose field values are vals (gathered into
// h.spare[:0] by the family's bits function) as the 1-based global MDSs,
// matching the paper's scripts. Keys a script adds to a rank's table
// persist; a script's write to a bound field is overwritten here, as the
// caller's values are the truth.
func (h *hookEnv) bindRanks(vals []uint64) {
	n := len(h.keys)
	want := len(vals) / n
	// Drop cached ranks beyond the current cluster size (top-down, so the
	// table's array part strips trailing entries).
	for i := len(h.ranks); i > want; i-- {
		h.mdss.SetInt(i, nil)
	}
	if len(h.ranks) > want {
		h.ranks = h.ranks[:want]
	}
	for len(h.ranks) < want {
		// A new table holds nothing: a write count it cannot have forces
		// the first bind to store every field.
		h.ranks = append(h.ranks, boundRank{t: lua.NewTable(), writes: math.MaxUint64})
		h.mdss.SetInt(len(h.ranks), h.ranks[len(h.ranks)-1].t)
	}
	for i := range h.ranks {
		r := &h.ranks[i]
		cur := vals[i*n : (i+1)*n]
		// A table the binder was the last to write was bound last time,
		// so the shadow covers it; for any other, nothing counts as stored.
		var old []uint64
		if r.t.Writes() == r.writes {
			old = h.shadow[i*n : (i+1)*n]
		}
		for f, v := range cur {
			if f >= len(old) || old[f] != v {
				r.t.Set(h.keys[f], lua.Box(math.Float64frombits(v)))
			}
		}
		r.writes = r.t.Writes()
	}
	h.shadow, h.spare = vals, h.shadow
	h.vm.Globals.Set("MDSs", h.mdss)
}

// run evaluates one compiled hook, counting failures.
func (h *hookEnv) run(c *lua.Chunk) ([]lua.Value, error) {
	vals, err := h.vm.Run(c)
	if err != nil {
		h.HookErrors++
		return nil, fmt.Errorf("mantle: %s: %w", c.Name, err)
	}
	return vals, nil
}

// verdict evaluates a hook whose answer is a direction: +1 for a positive
// number, -1 for a negative one, 0 for zero, nil or nothing. Magnitudes
// collapse to one step so every membership or replica change is made, and
// can be judged, on its own.
func (h *hookEnv) verdict(c *lua.Chunk) (int, error) {
	vals, err := h.run(c)
	if err != nil || len(vals) == 0 || vals[0] == nil {
		return 0, err
	}
	n, ok := lua.Number(vals[0])
	switch {
	case !ok:
		h.HookErrors++
		return 0, fmt.Errorf("mantle: %s returned %v, want number", c.Name, lua.TypeOf(vals[0]))
	case n > 0:
		return 1, nil
	case n < 0:
		return -1, nil
	}
	return 0, nil
}
