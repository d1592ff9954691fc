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
// same hook results and the same environment tables after every step.

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
// MDSs, or overwrites scalar globals the binder publishes.
const pokeLua = `
local m = MDSs[pokerank]
if m then
	if poke == 1 then m["load"] = 4242 end
	if poke == 2 then m["cpu"] = nil end
	if poke == 3 then m["mine"] = (m["mine"] or 0) + 1 end
end
if poke == 4 then MDSs["note"] = "kept" end
if poke == 5 then total = -7 whoami = 1 active = -7 end
`

var pokePolicy = Policy{
	Name:     "poke",
	MetaLoad: `IRD + 2*IWR + READDIR + FETCH + STORE`,
	MDSLoad:  pokeLua + `return MDSs[i]["all"] + MDSs[i]["q"] + (MDSs[i]["mine"] or 0)`,
	When:     pokeLua + `return MDSs[whoami]["load"] > total / #MDSs`,
	Where:    pokeLua + `targets[whoami % #MDSs + 1] = MDSs[whoami]["load"] / 2`,
	HowMuch:  pokeLua + `return {"half", "small"}`,
}

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
		switch lua.TypeOf(v) {
		case lua.TypeFunction:
			continue
		case lua.TypeTable:
			if k == "math" || k == "string" || k == "table" {
				continue
			}
		}
		fmt.Fprintf(&b, "%v=", k)
		dump(v, 0)
		b.WriteString("\n")
	}
	return b.String()
}

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
type family struct {
	name         string
	fastVM, slow *lua.VM
	step         func(s *script) (fast, slow string)
}

func setPoke(f *family, s *script) {
	poke, rank := float64(s.intn(6)), float64(s.intn(10))
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

func balanceFamily(t *testing.T) *family {
	newSide := func() *LuaBalancer {
		b, err := NewLuaBalancer(pokePolicy, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fast, slow := newSide(), &oracleBalancer{LuaBalancer: newSide()}
	e := &balancer.Env{MDSs: make([]balancer.MDSMetrics, 3)}
	f := &family{name: "balance", fastVM: fast.vm, slow: slow.vm}
	f.step = func(s *script) (string, string) {
		switch s.intn(12) {
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
			r := namespace.Rank(s.intn(len(e.MDSs)))
			got, gerr := fast.MDSLoad(r, e)
			slow.bindEnv(e)
			want, werr := slow.mdsLoad(r)
			e.MDSs[r].Load = got
			e.Total += got
			return fmtResult(got, gerr), fmtResult(want, werr)
		case 8:
			got, gerr := fast.When(e)
			slow.bindEnv(e)
			want, werr := slow.when()
			return fmtResult(got, gerr), fmtResult(want, werr)
		case 9:
			got, gerr := fast.Where(e)
			slow.bindEnv(e)
			want, werr := slow.where(e)
			return fmtResult(got, gerr), fmtResult(want, werr)
		case 10:
			got, gerr := fast.HowMuch(e)
			slow.bindEnv(e)
			want, werr := slow.howMuch()
			return fmtResult(got, gerr), fmtResult(want, werr)
		case 11:
			d := namespace.CounterSnapshot{IRD: s.float(), IWR: s.float(), Readdir: s.float()}
			got, gerr := fast.MetaLoad(d)
			want, werr := slow.MetaLoad(d)
			return fmtResult(got, gerr), fmtResult(want, werr)
		}
		return "", ""
	}
	return f
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
	f := &family{name: "elastic", fastVM: fast.vm, slow: slow.vm}
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
	f := &family{name: "replicate", fastVM: fast.vm, slow: slow.vm}
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

// runDifferential plays data against all three hook families and returns
// what the run exercised.
func runDifferential(t *testing.T, data []byte) map[string]int {
	seen := map[string]int{}
	for _, f := range []*family{balanceFamily(t), elasticFamily(t), replicateFamily(t)} {
		s := &script{data: data, seen: seen}
		for step := 0; s.more(); step++ {
			fast, slow := f.step(s)
			if fast != slow {
				t.Fatalf("%s step %d: binder answered %q, full rebind %q", f.name, step, fast, slow)
			}
			if got, want := dumpEnv(f.fastVM), dumpEnv(f.slow); got != want {
				t.Fatalf("%s step %d: environments differ\nbinder:\n%s\nfull rebind:\n%s", f.name, step, got, want)
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
	seen := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		for k, n := range runDifferential(t, randomScript(seed, 600)) {
			seen[k] += n
		}
	}
	for _, k := range []string{"rescore", "fresh", "grow", "shrink", "nan", "inf", "negzero", "interned",
		"poke1", "poke2", "poke3", "poke4", "poke5"} {
		if seen[k] == 0 {
			t.Errorf("the seeded scripts never exercised %q", k)
		}
	}
}

func FuzzBindEnvDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomScript(seed, 200))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runDifferential(t, data) })
}
