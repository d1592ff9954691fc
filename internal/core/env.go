package core

import (
	"fmt"
	"math"
	"slices"

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

// mdsLoadField is the index of "load" in mdsKeys.
const mdsLoadField = 6

func mdsBits(dst []uint64, mdss []balancer.MDSMetrics) []uint64 {
	for i := range mdss {
		for _, v := range mdsValues(&mdss[i]) {
			dst = append(dst, bits(v))
		}
	}
	return dst
}

// mdsValues is one rank's MDSs[i] values in mdsKeys order.
func mdsValues(m *balancer.MDSMetrics) [7]float64 {
	return [7]float64{m.Auth, m.All, m.CPU, m.Mem, m.Queue, m.Req, m.Load}
}

// mdsColumn appends field c of mdsValues of every rank to dst.
func mdsColumn(dst []float64, mdss []balancer.MDSMetrics, c int) []float64 {
	dst = slices.Grow(dst, len(mdss))
	for i := range mdss {
		m := &mdss[i]
		switch c {
		case 0:
			dst = append(dst, m.Auth)
		case 1:
			dst = append(dst, m.All)
		case 2:
			dst = append(dst, m.CPU)
		case 3:
			dst = append(dst, m.Mem)
		case 4:
			dst = append(dst, m.Queue)
		case 5:
			dst = append(dst, m.Req)
		default:
			dst = append(dst, m.Load)
		}
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

// kernel is a hook compiled to Go arithmetic (lua.CompileKernel), with the
// buffer its inputs are gathered into. A kernel stores no global; but the
// tree-walked hook it stands for would have left some behind, which a later
// hook may read. Those are in[:len(leaves)], under the names in leaves, and
// stale says the kernel is among the pending: no other kernel leaves those
// names, so where it stands among them does not matter, and the hot path
// checks the flag instead of the list.
type kernel struct {
	eval   lua.Kernel
	in     []float64
	leaves []lua.Value
	stale  bool
}

// compileKernel returns the kernel of chunk over inputs, of which the first
// len(leaves) are left behind as globals, or nil when chunk is no kernel.
func (h *hookEnv) compileKernel(chunk *lua.Chunk, inputs []lua.Input, leaves ...lua.Value) *kernel {
	k := lua.CompileKernel(chunk, h.vm.MaxSteps, inputs)
	if k == nil {
		return nil
	}
	return &kernel{eval: k, in: make([]float64, len(inputs)), leaves: leaves}
}

func (k *kernel) store(h *hookEnv) {
	for j, name := range k.leaves {
		h.setNum(name, k.in[j])
	}
	k.stale = false
}

// evaluated records that k has just evaluated.
func (h *hookEnv) evaluated(k *kernel) {
	if !k.stale {
		k.stale = true
		h.leave(k)
	}
}

// leaver is a kernel whose evaluations leave globals the VM does not hold
// yet: store stores them.
type leaver interface{ store(h *hookEnv) }

// leave records that k has just evaluated: its globals are owed to the VM,
// after those of every kernel that evaluated before it.
func (h *hookEnv) leave(k leaver) {
	n := len(h.pending)
	if n > 0 && h.pending[n-1] == k {
		return
	}
	for i, p := range h.pending {
		if p == k {
			copy(h.pending[i:], h.pending[i+1:])
			h.pending = h.pending[:n-1]
			break
		}
	}
	h.pending = append(h.pending, k)
}

// publish stores the globals every kernel evaluated since the last publish
// would have left, in the order they evaluated, so the next tree-walked
// chunk sees what it would have seen.
func (h *hookEnv) publish() {
	for _, k := range h.pending {
		k.store(h)
	}
	clear(h.pending)
	h.pending = h.pending[:0]
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
	// mdssWrites is h.mdss.Writes() as the binder left it; a different count
	// means a script wrote to MDSs itself, perhaps over a rank's slot. Once
	// one has, mdssTouched stays set: the array part may hold more than the
	// bound ranks, so #MDSs is no longer the cluster size.
	mdssWrites  uint64
	mdssTouched bool
	// pending are the kernels that evaluated since the last publish, in the
	// order of their last evaluation.
	pending []leaver

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
	h.dropRanks(want)
	for len(h.ranks) < want {
		// A new table holds nothing: a write count it cannot have forces
		// the first bind to store every field.
		h.ranks = append(h.ranks, boundRank{t: lua.NewTable(), writes: math.MaxUint64})
		h.setSlot(len(h.ranks), h.ranks[len(h.ranks)-1].t)
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
	h.restoreSlots()
	h.vm.Globals.Set("MDSs", h.mdss)
}

// dropRanks drops the cached rank tables beyond a cluster of n ranks
// (top-down, so the table's array part strips trailing entries), and with
// them every key a script added to those tables.
func (h *hookEnv) dropRanks(n int) {
	for i := len(h.ranks); i > n; i-- {
		h.setSlot(i, nil)
	}
	if len(h.ranks) > n {
		h.ranks = h.ranks[:n]
	}
}

// setSlot stores v in MDSs[i] for the binder, whose writes are no sign of a
// script's.
func (h *hookEnv) setSlot(i int, v lua.Value) {
	ours := h.mdss.Writes() == h.mdssWrites
	h.mdss.SetInt(i, v)
	if ours {
		h.mdssWrites = h.mdss.Writes()
	}
}

// mdssUntouched reports whether no script has ever written to the MDSs
// table: its array part is then exactly the bound rank tables, so a bind for
// any env would leave #MDSs and every MDSs[i][k] as the env says. A kernel
// that reads the env instead of the table relies on it.
func (h *hookEnv) mdssUntouched() bool {
	if h.mdss.Writes() != h.mdssWrites {
		h.mdssTouched = true
	}
	return !h.mdssTouched
}

// restoreSlots puts each bound rank's table back into its MDSs slot if a
// script stored something else there: MDSs[i] is always rank i's table when
// a hook starts, as its fields are always the caller's values. Keys a script
// added to MDSs persist.
func (h *hookEnv) restoreSlots() {
	if h.mdss.Writes() == h.mdssWrites {
		return
	}
	h.mdssTouched = true
	for i, r := range h.ranks {
		if h.mdss.GetInt(i+1) != lua.Value(r.t) {
			h.mdss.SetInt(i+1, r.t)
		}
	}
	h.mdssWrites = h.mdss.Writes()
}

// rebindField is bindRanks for a caller that changed one value since the
// last bind: field f of rank k is now v, and every other value is still the
// one the shadow records. It stores what bindRanks would store — that field
// if it differs, every field of any rank table a script wrote to, and the
// MDSs global — without gathering and comparing every rank's values.
func (h *hookEnv) rebindField(k, f int, v float64) {
	n := len(h.keys)
	changed := h.shadow[k*n+f] != bits(v)
	h.shadow[k*n+f] = bits(v)
	for j := range h.ranks {
		r := &h.ranks[j]
		switch {
		case r.t.Writes() != r.writes:
			for g, b := range h.shadow[j*n : (j+1)*n] {
				r.t.Set(h.keys[g], lua.Box(math.Float64frombits(b)))
			}
		case j == k && changed:
			r.t.Set(h.keys[f], lua.Box(v))
		default:
			continue
		}
		r.writes = r.t.Writes()
	}
	h.restoreSlots()
	h.vm.Globals.Set("MDSs", h.mdss)
}

// run evaluates one compiled hook, counting failures. Every hook reads only
// its first return value, so that is all run reports; ok is false when the
// hook returned nothing.
func (h *hookEnv) run(c *lua.Chunk) (first lua.Value, ok bool, err error) {
	h.publish()
	first, ok, err = h.vm.RunFirst(c)
	if err != nil {
		h.HookErrors++
		return nil, false, fmt.Errorf("mantle: %s: %w", c.Name, err)
	}
	return first, ok, nil
}

// verdict evaluates a hook whose answer is a direction: +1 for a positive
// number, -1 for a negative one, 0 for zero, nil or nothing. Magnitudes
// collapse to one step so every membership or replica change is made, and
// can be judged, on its own.
func (h *hookEnv) verdict(c *lua.Chunk) (int, error) {
	v, _, err := h.run(c)
	if err != nil || v == nil {
		return 0, err
	}
	n, ok := lua.Number(v)
	switch {
	case !ok:
		h.HookErrors++
		return 0, fmt.Errorf("mantle: %s returned %v, want number", c.Name, lua.TypeOf(v))
	case n > 0:
		return 1, nil
	case n < 0:
		return -1, nil
	}
	return 0, nil
}
