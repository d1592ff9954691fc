package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/lua"
	"mantle/internal/namespace"
)

// The binder stores an env field only when its value differs from what the
// table holds. These tests drive it beside the routine it replaced — bind
// every field of every rank on every hook, kept here as the oracle — with
// one random sequence of environment changes and hook calls, and require the
// same hook results and the same environment tables after every step. The
// oracle side runs every hook on the tree-walker; the binder's side runs its
// load hooks as kernels where they compile to one.

// oracleRanks is the old cached MDSs table: the per-rank tables are reused,
// every field is boxed and stored on every bind.
type oracleRanks struct {
	mdss  *lua.Table
	ranks []*lua.Table
}

func (o *oracleRanks) bind(g *lua.Table, n int, fields func(i int, mt *lua.Table)) {
	if o.mdss == nil {
		o.mdss = lua.NewTable()
	}
	for i := len(o.ranks); i > n; i-- {
		o.mdss.SetInt(i, nil)
	}
	if len(o.ranks) > n {
		o.ranks = o.ranks[:n]
	}
	for i := 0; i < n; i++ {
		var mt *lua.Table
		if i < len(o.ranks) {
			mt = o.ranks[i]
			o.mdss.SetInt(i+1, mt)
		} else {
			mt = lua.NewTable()
			o.ranks = append(o.ranks, mt)
			o.mdss.SetInt(i+1, mt)
		}
		fields(i, mt)
	}
	g.SetString("MDSs", o.mdss)
}

func oracleMDSFields(mdss []balancer.MDSMetrics) func(int, *lua.Table) {
	return func(i int, mt *lua.Table) {
		m := mdss[i]
		mt.SetString("auth", lua.Box(m.Auth))
		mt.SetString("all", lua.Box(m.All))
		mt.SetString("cpu", lua.Box(m.CPU))
		mt.SetString("mem", lua.Box(m.Mem))
		mt.SetString("q", lua.Box(m.Queue))
		mt.SetString("req", lua.Box(m.Req))
		mt.SetString("load", lua.Box(m.Load))
	}
}

// oracleBalancer evaluates a LuaBalancer's hooks after binding the old way.
type oracleBalancer struct {
	*LuaBalancer
	oracleRanks
}

func (o *oracleBalancer) bindEnv(e *balancer.Env) {
	if e.State != nil {
		o.state = e.State
	}
	g := o.vm.Globals
	g.SetString("whoami", lua.Box(float64(e.WhoAmI)+1))
	g.SetString("total", lua.Box(e.Total))
	g.SetString("authmetaload", lua.Box(e.AuthMetaLoad))
	g.SetString("allmetaload", lua.Box(e.AllMetaLoad))
	o.bind(g, len(e.MDSs), oracleMDSFields(e.MDSs))
}

type oracleElastic struct {
	*ElasticHook
	oracleRanks
}

func (o *oracleElastic) Eval(e ElasticEnv) (int, error) {
	g := o.vm.Globals
	g.SetString("active", lua.Box(float64(e.Active)))
	g.SetString("min_ranks", lua.Box(float64(e.MinRanks)))
	g.SetString("max_ranks", lua.Box(float64(e.MaxRanks)))
	o.bind(g, len(e.MDSs), func(i int, mt *lua.Table) {
		m := e.MDSs[i]
		mt.SetString("q", lua.Box(m.Queue))
		mt.SetString("req", lua.Box(m.Req))
		mt.SetString("cpu", lua.Box(m.CPU))
		mt.SetString("load", lua.Box(m.Load))
		mt.SetString("lat", lua.Box(m.LatMS))
	})
	return o.verdict(o.chunk)
}

type oracleReplicate struct {
	*ReplicateHook
	oracleRanks
}

func (o *oracleReplicate) Eval(e balancer.ReplicaEnv) (int, error) {
	g := o.vm.Globals
	g.SetString("whoami", lua.Box(float64(e.WhoAmI)+1))
	g.SetString("active", lua.Box(float64(e.Active)))
	g.SetString("max_replicas", lua.Box(float64(e.MaxReplicas)))
	g.SetString("total", lua.Box(e.Total))
	g.SetString("path", e.Path)
	g.SetString("heat", lua.Box(e.Heat))
	g.SetString("rd", lua.Box(e.Rd))
	g.SetString("wr", lua.Box(e.Wr))
	g.SetString("replicas", lua.Box(float64(e.Replicas)))
	o.bind(g, len(e.MDSs), oracleMDSFields(e.MDSs))
	return o.verdict(o.chunk)
}

// pokeLua opens every hook of the differential policies. The test sets the
// globals poke and pokerank; the hook then misbehaves as asked: it writes a
// bound field, deletes one, adds a key of its own to a rank's table or to
// MDSs, overwrites scalar globals the binder publishes, or puts a table of
// its own in a rank's slot. (A slot beyond the cluster is a key of the
// script's own until a bind grows the cluster over it; a tree-walked mdsload
// binds, a kernel does not, so such a key may outlive a scoring round on one
// side only. No kernel reads it.)
const pokeLua = `
local m = MDSs[pokerank]
if m then
	if poke == 1 then m["load"] = 4242 end
	if poke == 2 then m["cpu"] = nil end
	if poke == 3 then m["mine"] = (m["mine"] or 0) + 1 end
end
if poke == 4 then MDSs["note"] = "kept" end
if poke == 5 then total = -7 whoami = 1 active = -7 end
if poke == 6 and m then MDSs[pokerank] = {all = 1, q = 2, load = 3} end
`

// pokeAppendLua appends a table past the last rank, so that #MDSs is no
// longer the cluster size: a decision kernel, which takes #MDSs from the
// env, must bail from then on. Only a family whose mdsload walks (and so
// binds before every score) runs it; beside an mdsload kernel the appended
// table lands at a different index than beside the full rebind.
const pokeAppendLua = `
if poke == 7 then MDSs[#MDSs + 1] = {all = 1, q = 2, load = 3, cpu = 4} end
`

var pokePolicy = Policy{
	Name:     "poke",
	MetaLoad: `IRD + 2*IWR + READDIR + FETCH + STORE`,
	MDSLoad:  pokeLua + `return MDSs[i]["all"] + MDSs[i]["q"] + (MDSs[i]["mine"] or 0)`,
	When:     pokeLua + `return MDSs[whoami]["load"] > total / #MDSs`,
	Where:    pokeLua + `targets[whoami % #MDSs + 1] = MDSs[whoami]["load"] / 2`,
	HowMuch:  pokeLua + `return {"half", "small"}`,
}

// pokeKernelPolicy is pokePolicy with an mdsload that runs as a kernel and
// reads every input a kernel may.
var pokeKernelPolicy = func() Policy {
	p := pokePolicy
	p.Name = "poke_kernel"
	p.MDSLoad = `MDSs[i]["all"] + MDSs[i]["q"] * 0.5 + total / 8 - whoami + authmetaload - allmetaload / 2 + i ^ 2 +
		MDSs[i]["auth"] % 7 + MDSs[i]["cpu"] + MDSs[i]["mem"] + MDSs[i]["req"] - MDSs[i]["load"]`
	return p
}()

// pokeDecisionPolicy is pokePolicy with when, where and howmuch that run as
// statement kernels, beside the poking tree-walked mdsload. The when leaves
// peak for the other two to read; before any when has, they bail, and the
// tree-walker fails on the nil.
var pokeDecisionPolicy = func() Policy {
	p := pokePolicy
	p.Name = "poke_decision"
	p.MDSLoad = pokeAppendLua + p.MDSLoad
	p.When = `
local hi = 0
for r = 1, #MDSs do hi = max(hi, MDSs[r]["load"] + MDSs[r]["q"]) end
peak = hi
if MDSs[whoami]["load"] >= hi / 2 and total > authmetaload - 1 then`
	p.Where = `
local mean = total / #MDSs
for r = 1, #MDSs do
  if r ~= whoami and MDSs[r]["cpu"] < mean + peak then
    targets[r] = mean - MDSs[r]["load"] + allmetaload
  end
end
targets[#MDSs + 1] = 1`
	p.HowMuch = `if peak > total then return {"half"} end return {"small", "big"}`
	return p
}()

const (
	pokeElastic = pokeLua + `
local q = 0
for r = 1, #MDSs do q = q + MDSs[r]["q"] + MDSs[r]["lat"] end
return q / active - 50`
	pokeReplicate = pokeLua + `
local hot = 0
for r = 1, #MDSs do hot = max(hot, MDSs[r]["load"]) end
return heat - hot + total / active - replicas`
)

// dumpEnv renders every global that is not a function or a library, floats
// by their bits, tables recursively in key order.
func dumpEnv(vm *lua.VM) string {
	var b strings.Builder
	var dump func(v lua.Value, depth int)
	dump = func(v lua.Value, depth int) {
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(&b, "%016x", math.Float64bits(x))
		case *lua.Table:
			b.WriteString("{")
			if depth < 3 { // MDSs -> MDSs[i] -> field; a script-made cycle stops here
				for _, k := range x.Keys() {
					fmt.Fprintf(&b, "%v=", k)
					dump(x.Get(k), depth+1)
					b.WriteString(" ")
				}
			}
			b.WriteString("}")
		default:
			fmt.Fprintf(&b, "%v", x)
		}
	}
	for _, k := range vm.Globals.Keys() {
		v := vm.Globals.Get(k)
		if !dumped(k, v) {
			continue
		}
		fmt.Fprintf(&b, "%v=", k)
		dump(v, 0)
		b.WriteString("\n")
	}
	return b.String()
}

// sameEnv reports whether dumpEnv renders both environments alike, without
// rendering them, or is stricter (it never calls a float and a string that
// prints as its bits equal): runDifferential compares after every step, and
// formatting and sorting both environments each time made a step cost
// ~0.1 ms. Globals are string-keyed, so they live in the hash part and need
// no order; a VM with array-part globals is compared by its dump.
func sameEnv(a, b *lua.VM) bool {
	if a.Globals.Len() > 0 || b.Globals.Len() > 0 {
		return dumpEnv(a) == dumpEnv(b)
	}
	n, same := 0, true
	a.Globals.Range(func(k, v lua.Value) bool {
		if dumped(k, v) {
			n++
			same = sameValue(v, b.Globals.Get(k), 0)
		}
		return same
	})
	if !same {
		return false
	}
	b.Globals.Range(func(k, v lua.Value) bool {
		if dumped(k, v) {
			n--
		}
		return true
	})
	return n == 0
}

// dumped reports whether dumpEnv renders the global k holding v.
func dumped(k, v lua.Value) bool {
	switch lua.TypeOf(v) {
	case lua.TypeFunction:
		return false
	case lua.TypeTable:
		return k != "math" && k != "string" && k != "table"
	}
	return true
}

// sameKey compares keys as %v renders them: floats by their bits.
func sameKey(a, b lua.Value) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}

// sameValue is dumpEnv's dump compared rather than rendered.
func sameValue(a, b lua.Value, depth int) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case *lua.Table:
		y, ok := b.(*lua.Table)
		return ok && (depth >= 3 || sameTable(x, y, depth))
	}
	switch b.(type) {
	case float64, *lua.Table:
		return false
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// sameTable is sameValue for two tables above dumpEnv's depth limit. Keys
// orders a table by its key set alone, so tables holding the same keys with
// the same values dump alike: with equal entry counts, finding every entry
// of x in y proves it, with no sort. An array slot holding nil is an entry
// Get cannot tell from a missing one; such tables are compared in order.
func sameTable(x, y *lua.Table, depth int) bool {
	if x.NumEntries() != y.NumEntries() {
		return false
	}
	same, hole := true, false
	x.Range(func(k, v lua.Value) bool {
		if v == nil {
			hole = true
			return false
		}
		w := y.Get(k)
		same = w != nil && sameValue(v, w, depth+1)
		return same
	})
	if !hole {
		return same
	}
	kx, ky := x.Keys(), y.Keys()
	for i, k := range kx {
		if !sameKey(k, ky[i]) || !sameValue(x.Get(k), y.Get(ky[i]), depth+1) {
			return false
		}
	}
	return true
}

// maxFuzzScript bounds the bytes one fuzzed run plays. The engine keeps an
// input that reaches new coverage only after minimising it, and minimising
// tries on the order of n² candidates of an n-byte input, each a whole run
// (~2 ms here): the seeded 200-byte inputs held the engine at 0 execs/s for
// most of a 12 s run. Bytes past the bound are never read, so the engine's
// first minimising pass cuts them off. TestBindEnvDifferential plays its
// longer scripts whole.
const maxFuzzScript = 64

// script doles out the bytes that steer one differential run; a spent script
// reads as zeros.
type script struct {
	data []byte
	// seen counts what the run exercised, by name.
	seen map[string]int
}

func (s *script) more() bool { return len(s.data) > 0 }

func (s *script) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *script) intn(n int) int { return int(s.byte()) % n }

var nanPayload = math.Float64frombits(0x7ff8000000000123)

// float picks from the values the binder could get wrong — both zeros, both
// infinities, two NaNs, numbers inside and just outside the interned-box
// range — or takes eight script bytes as the bits.
func (s *script) float() float64 {
	special := []float64{0, math.Copysign(0, -1), 1, 2, 63, 1023, 1024, 0.5, -1,
		math.NaN(), nanPayload, math.Inf(1), math.Inf(-1), 1e300}
	k := s.intn(len(special) + 2)
	if k < len(special) {
		v := special[k]
		switch {
		case v != v:
			s.seen["nan"]++
		case math.IsInf(v, 0):
			s.seen["inf"]++
		case v == 0 && math.Signbit(v):
			s.seen["negzero"]++
		case v == math.Trunc(v) && v >= 0 && v < 1024:
			s.seen["interned"]++
		}
		return v
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = s.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

func fmtResult(v any, err error) string {
	if f, ok := v.(float64); ok {
		v = fmt.Sprintf("%016x", math.Float64bits(f))
	}
	return fmt.Sprintf("%v / %v", v, err)
}

// family is one hook family under differential test: step applies one
// scripted change or hook call to both sides and returns what each answered.
// A kernel skips the bind its tree-walked twin starts with, so after one the
// two environments may differ until the next binding hook: step sets unbound
// until then. publish stores what the binder's kernels left behind, as the
// next tree-walked hook would, before the environments are compared.
type family struct {
	name         string
	fastVM, slow *lua.VM
	step         func(s *script) (fast, slow string)
	unbound      bool
	publish      func()
}

func setPoke(f *family, s *script) {
	poke, rank := float64(s.intn(8)), float64(s.intn(10))
	for _, vm := range []*lua.VM{f.fastVM, f.slow} {
		vm.Globals.SetString("poke", poke)
		vm.Globals.SetString("pokerank", rank)
	}
	if poke > 0 {
		s.seen[fmt.Sprintf("poke%d", int(poke))]++
	}
}

// mutateMDS changes one scripted field of one scripted rank.
func mutateMDS(s *script, mdss []balancer.MDSMetrics) {
	if len(mdss) == 0 {
		return
	}
	m := &mdss[s.intn(len(mdss))]
	fields := []*float64{&m.Auth, &m.All, &m.CPU, &m.Mem, &m.Queue, &m.Req, &m.Load}
	*fields[s.intn(len(fields))] = s.float()
}

// resizeMDS grows or shrinks the rank slice to a scripted length, new ranks
// arriving with scripted values.
func resizeMDS(s *script, mdss []balancer.MDSMetrics) []balancer.MDSMetrics {
	n := s.intn(9)
	switch {
	case n > len(mdss):
		s.seen["grow"]++
	case n < len(mdss):
		s.seen["shrink"]++
	}
	for len(mdss) < n {
		mdss = append(mdss, balancer.MDSMetrics{Auth: s.float(), All: s.float(), Queue: s.float()})
	}
	return mdss[:n]
}

// balanceFamily drives p on the binder's side against the oracle running p
// with its kernel-shaped load hooks spelled for the tree-walker.
func balanceFamily(t *testing.T, p Policy) *family {
	newSide := func(p Policy) *LuaBalancer {
		b, err := NewLuaBalancer(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fast := newSide(p)
	metaKernel, mdsKernel := fast.Kernels()
	if !metaKernel {
		t.Fatalf("%s: the metaload does not run as a kernel", p.Name)
	}
	whenKernel, whereKernel, howMuchKernel := fast.DecisionKernels()
	tree := p
	tree.MetaLoad = treeSpelling(p.MetaLoad)
	if mdsKernel {
		tree.MDSLoad = treeSpelling(p.MDSLoad)
	}
	if whenKernel {
		tree.When = walkedSpelling(p.When)
	}
	if whereKernel {
		tree.Where = walkedSpelling(p.Where)
	}
	if howMuchKernel {
		tree.HowMuch = walkedSpelling(p.HowMuch)
	}
	slow := &oracleBalancer{LuaBalancer: newSide(tree)}
	if meta, mds := slow.Kernels(); meta || mds {
		t.Fatalf("%s: the oracle runs a kernel", p.Name)
	}
	if when, where, howMuch := slow.DecisionKernels(); when || where || howMuch {
		t.Fatalf("%s: the oracle runs a decision kernel", p.Name)
	}
	e := &balancer.Env{MDSs: make([]balancer.MDSMetrics, 3)}
	f := &family{name: p.Name, fastVM: fast.vm, slow: slow.vm, publish: fast.publish}
	f.step = func(s *script) (string, string) {
		switch s.intn(13) {
		case 0:
			mutateMDS(s, e.MDSs)
		case 1:
			e.Total, e.AuthMetaLoad, e.AllMetaLoad = s.float(), s.float(), s.float()
			e.WhoAmI = namespace.Rank(s.intn(len(e.MDSs) + 1))
		case 2:
			e.MDSs = resizeMDS(s, e.MDSs)
		case 3:
			// The replay pattern: a new Env object, and new backing for
			// its ranks, carrying the same or a changed picture.
			s.seen["fresh"]++
			fresh := *e
			fresh.MDSs = append([]balancer.MDSMetrics(nil), e.MDSs...)
			e = &fresh
		case 4:
			setPoke(f, s)
		case 5, 6, 7:
			// The rebalance pattern: score a rank, then fold the score
			// into the env that the next call is handed.
			if len(e.MDSs) == 0 {
				break
			}
			s.seen["rescore"]++
			f.unbound = mdsKernel
			r := namespace.Rank(s.intn(len(e.MDSs)))
			got, gerr := fast.MDSLoad(r, e)
			slow.bindEnv(e)
			want, werr := slow.mdsLoad(r)
			e.MDSs[r].Load = got
			e.Total += got
			return fmtResult(got, gerr), fmtResult(want, werr)
		case 8:
			// A decision kernel binds only when it bails.
			f.unbound = whenKernel
			got, gerr := fast.When(e)
			sawKernel(s, fast, fast.whenK)
			slow.bindEnv(e)
			want, werr := slow.when()
			return fmtResult(got, gerr), fmtResult(want, werr)
		case 9:
			f.unbound = whereKernel
			got, gerr := fast.Where(e)
			sawKernel(s, fast, fast.whereK)
			slow.bindEnv(e)
			want, werr := slow.where(e)
			return fmtResult(got, gerr), fmtResult(want, werr)
		case 10:
			f.unbound = howMuchKernel
			got, gerr := fast.HowMuch(e)
			sawKernel(s, fast, fast.howMuchK)
			slow.bindEnv(e)
			want, werr := slow.howMuch()
			return fmtResult(got, gerr), fmtResult(want, werr)
		case 11:
			d := namespace.CounterSnapshot{IRD: s.float(), IWR: s.float(), Readdir: s.float()}
			got, gerr := fast.MetaLoad(d)
			want, werr := slow.MetaLoad(d)
			return fmtResult(got, gerr), fmtResult(want, werr)
		case 12:
			// A whole scoring round: ScoreAll from one bind against the
			// old binder run once per rank, from the same env.
			s.seen["scoreall"]++
			if len(e.MDSs) > 0 {
				f.unbound = mdsKernel
			}
			ef, es := cloneEnv(e), cloneEnv(e)
			gerr := balancer.ScoreAll(fast, ef)
			var werr error
			for r := range es.MDSs {
				slow.bindEnv(es)
				load, err := slow.mdsLoad(namespace.Rank(r))
				if err != nil {
					werr = err
					break
				}
				if load < 0 {
					load = 0
				}
				es.MDSs[r].Load = load
				es.Total += load
			}
			e = ef
			return fmtResult(envBits(ef), gerr), fmtResult(envBits(es), werr)
		}
		return "", ""
	}
	return f
}

// sawKernel counts whether a decision hook that compiled to d ran as the
// kernel, which leaves d last among the pending kernels, or bailed to the
// tree-walker, whose run publishes every pending kernel first.
func sawKernel(s *script, b *LuaBalancer, d *decision) {
	if d == nil {
		return
	}
	name := hookNames[d.hook]
	if n := len(b.pending); n > 0 && b.pending[n-1] == leaver(d) {
		s.seen[name+" kernel"]++
	} else {
		s.seen[name+" bailed"]++
	}
}

func elasticFamily(t *testing.T) *family {
	newSide := func() *ElasticHook {
		h, err := NewElasticHook(pokeElastic, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	fast, slow := newSide(), &oracleElastic{ElasticHook: newSide()}
	e := ElasticEnv{Active: 2, MinRanks: 1, MaxRanks: 8, MDSs: make([]ElasticRankMetrics, 2)}
	f := &family{name: "elastic", fastVM: fast.vm, slow: slow.vm, publish: fast.publish}
	f.step = func(s *script) (string, string) {
		switch s.intn(8) {
		case 0, 1:
			if len(e.MDSs) == 0 {
				break
			}
			m := &e.MDSs[s.intn(len(e.MDSs))]
			fields := []*float64{&m.Queue, &m.Req, &m.CPU, &m.Load, &m.LatMS}
			*fields[s.intn(len(fields))] = s.float()
		case 2:
			n := s.intn(9)
			for len(e.MDSs) < n {
				e.MDSs = append(e.MDSs, ElasticRankMetrics{Queue: s.float(), LatMS: s.float()})
			}
			e.MDSs, e.Active = e.MDSs[:n], n
		case 3:
			e.MDSs = append([]ElasticRankMetrics(nil), e.MDSs...)
		case 4:
			setPoke(f, s)
		default:
			got, gerr := fast.Eval(e)
			want, werr := slow.Eval(e)
			return fmtResult(got, gerr), fmtResult(want, werr)
		}
		return "", ""
	}
	return f
}

func replicateFamily(t *testing.T) *family {
	newSide := func() *ReplicateHook {
		h, err := NewReplicateHook(pokeReplicate, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	fast, slow := newSide(), &oracleReplicate{ReplicateHook: newSide()}
	e := balancer.ReplicaEnv{Active: 2, MaxReplicas: 2, Path: "/hot", MDSs: make([]balancer.MDSMetrics, 2)}
	f := &family{name: "replicate", fastVM: fast.vm, slow: slow.vm, publish: fast.publish}
	f.step = func(s *script) (string, string) {
		switch s.intn(8) {
		case 0:
			mutateMDS(s, e.MDSs)
		case 1:
			e.Total, e.Heat, e.Rd, e.Wr = s.float(), s.float(), s.float(), s.float()
			e.Replicas, e.Path = s.intn(3), fmt.Sprintf("/hot%d", s.intn(3))
		case 2:
			e.MDSs = resizeMDS(s, e.MDSs)
			e.Active = len(e.MDSs)
		case 3:
			e.MDSs = append([]balancer.MDSMetrics(nil), e.MDSs...)
		case 4:
			setPoke(f, s)
		default:
			got, gerr := fast.Eval(e)
			want, werr := slow.Eval(e)
			return fmtResult(got, gerr), fmtResult(want, werr)
		}
		return "", ""
	}
	return f
}

// crossCheckEnv makes runDifferential check every sameEnv answer against
// comparing the two dumps.
var crossCheckEnv bool

// runDifferential plays data against all four hook families and returns
// what the run exercised.
func runDifferential(t *testing.T, data []byte) map[string]int {
	seen := map[string]int{}
	for _, f := range []*family{balanceFamily(t, pokePolicy), balanceFamily(t, pokeKernelPolicy), balanceFamily(t, pokeDecisionPolicy),
		elasticFamily(t), replicateFamily(t)} {
		s := &script{data: data, seen: seen}
		for step := 0; s.more(); step++ {
			fast, slow := f.step(s)
			if fast != slow {
				t.Fatalf("%s step %d: binder answered %q, full rebind %q", f.name, step, fast, slow)
			}
			if f.unbound {
				continue
			}
			f.publish()
			same := sameEnv(f.fastVM, f.slow)
			if crossCheckEnv && same != (dumpEnv(f.fastVM) == dumpEnv(f.slow)) {
				t.Fatalf("%s step %d: sameEnv says %v, the dumps disagree", f.name, step, same)
			}
			if !same {
				t.Fatalf("%s step %d: environments differ\nbinder:\n%s\nfull rebind:\n%s", f.name, step, dumpEnv(f.fastVM), dumpEnv(f.slow))
			}
		}
	}
	return seen
}

func randomScript(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestBindEnvDifferential is the seeded run of the fuzz target below, and
// checks that the seeds reach every case the binder has to get right.
func TestBindEnvDifferential(t *testing.T) {
	crossCheckEnv = true
	defer func() { crossCheckEnv = false }()
	seen := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		for k, n := range runDifferential(t, randomScript(seed, 600)) {
			seen[k] += n
		}
	}
	for _, k := range []string{"rescore", "scoreall", "fresh", "grow", "shrink", "nan", "inf", "negzero", "interned",
		"poke1", "poke2", "poke3", "poke4", "poke5", "poke6", "poke7",
		"mds_bal_when kernel", "mds_bal_when bailed", "mds_bal_where kernel", "mds_bal_where bailed",
		"mds_bal_howmuch kernel", "mds_bal_howmuch bailed"} {
		if seen[k] == 0 {
			t.Errorf("the seeded scripts never exercised %q", k)
		}
	}
}

func FuzzBindEnvDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomScript(seed, maxFuzzScript))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzScript {
			data = data[:maxFuzzScript]
		}
		runDifferential(t, data)
	})
}
