package lua_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mantle/internal/lua"
)

// A statement kernel is RunFirst of its chunk without the VM. These tests
// hold the two against each other on generated programs: a run that
// finishes must return the tree-walker's result bits after as many steps
// and leave its globals and stores; a run may also bail, or the compiler
// refuse the chunk.

// stmtSpec is what generated programs may read and write: three scalars,
// the rows R with fields x and y, and the store-only table out.
var stmtSpec = lua.KernelSpec{
	Scalars: []string{"a", "b", "c"},
	Rows:    "R",
	Keys:    []string{"x", "y"},
	Out:     "out",
}

// stmtGen spells programs from fuzz bytes; a spent generator reads zeros,
// which spell leaves and short blocks.
type stmtGen struct {
	data   []byte
	b      strings.Builder
	near   byte
	nums   []string // number locals in scope
	bools  []string
	loops  int
	locals int
	budget int // statements left to spell
}

func (g *stmtGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	c := g.data[0]
	g.data = g.data[1:]
	return c
}

func (g *stmtGen) pick(opts []string) string { return opts[int(g.byte())%len(opts)] }

// nearPick picks one of opts, or of near when the generator says so.
func (g *stmtGen) nearPick(opts, near []string) string {
	if g.byte() < g.near {
		return g.pick(near)
	}
	return g.pick(opts)
}

func (g *stmtGen) w(s ...string) {
	for _, x := range s {
		g.b.WriteString(x)
	}
}

// nearNums and nearBools are leaves outside the grammar, or that bail, in a
// number's or a boolean's place.
var (
	nearNums = []string{"nil", `"5"`, "f(a)", `R[1]["z"]`, "out[1]", "R[1]", "math.ceil(a)", "#out", "{}",
		"math.huge", "max()", "R.x", "(a .. b)", "undefined", "tostring(a)", "max(a, true)", "t1", "R[a]['x']"}
	nearBools = []string{"nil", `"s" == "s"`, "R == R", "(1 < true)", "(true < false)", "(true and 1)", "(false or 2)"}
	numOps    = []string{"+", "-", "*", "/", "%", "^"}
	cmpOps    = []string{"<", "<=", ">", ">=", "==", "~="}
)

func (g *stmtGen) num(depth int) {
	k := g.byte()
	if g.byte() < g.near {
		g.w(g.pick(nearNums))
		return
	}
	if depth > 0 {
		switch k % 10 {
		case 0, 1:
			g.w("(")
			g.num(depth - 1)
			g.w(" ", g.pick(numOps), " ")
			g.num(depth - 1)
			g.w(")")
			return
		case 2:
			g.w("-")
			g.num(depth - 1)
			return
		case 3:
			g.w(g.pick([]string{"max(", "min("}))
			g.num(depth - 1)
			for n := g.byte() % 3; n > 0; n-- {
				g.w(", ")
				g.num(depth - 1)
			}
			g.w(")")
			return
		case 4:
			g.w("math.floor(")
			g.num(depth - 1)
			g.w(")")
			return
		case 5:
			g.w(`R[`)
			g.index(depth - 1)
			g.w(`][`, g.pick([]string{`"x"`, `"y"`, `'x'`}), `]`)
			return
		case 6:
			g.w("(")
			g.num(depth - 1)
			g.w(g.pick([]string{" and ", " or "}))
			g.num(depth - 1)
			g.w(")")
			return
		}
	}
	leaves := []string{"a", "b", "c", "0", "1", "2", "2.5", "-1", ".5", "1e308", "#R", "R[1].x", "e", "g"}
	if len(g.nums) > 0 && k%3 == 0 {
		g.w(g.nums[int(g.byte())%len(g.nums)])
		return
	}
	g.w(leaves[int(g.byte())%len(leaves)])
}

// index spells a row index: mostly a loop variable or a small constant.
func (g *stmtGen) index(depth int) {
	if len(g.nums) > 0 && g.byte()%2 == 0 {
		g.w(g.nums[int(g.byte())%len(g.nums)])
		return
	}
	switch g.byte() % 4 {
	case 0:
		g.w("1")
	case 1:
		g.w("#R")
	case 2:
		g.w("2")
	default:
		g.num(depth)
	}
}

func (g *stmtGen) boolean(depth int) {
	k := g.byte()
	if g.byte() < g.near {
		g.w(g.pick(nearBools))
		return
	}
	if depth > 0 {
		switch k % 6 {
		case 0, 1:
			g.num(depth - 1)
			g.w(" ", g.pick(cmpOps), " ")
			g.num(depth - 1)
			return
		case 2:
			g.w("(")
			g.boolean(depth - 1)
			g.w(g.pick([]string{" and ", " or "}))
			g.boolean(depth - 1)
			g.w(")")
			return
		case 3:
			g.w("not ")
			g.boolean(depth - 1)
			return
		case 4:
			g.w("(")
			g.num(depth - 1)
			g.w(" and ")
			g.boolean(depth - 1)
			g.w(")")
			return
		}
	}
	if len(g.bools) > 0 && k%2 == 0 {
		g.w(g.bools[int(g.byte())%len(g.bools)])
		return
	}
	g.w(g.pick([]string{"true", "false", "h", "(a < b)", "(R[1].y == b)", "(1 == true)"}))
}

func (g *stmtGen) block(depth int) {
	mark := [2]int{len(g.nums), len(g.bools)}
	for n := 1 + int(g.byte()%4); n > 0 && g.budget > 0; n-- {
		g.stmt(depth)
	}
	g.nums, g.bools = g.nums[:mark[0]], g.bools[:mark[1]]
}

func (g *stmtGen) stmt(depth int) {
	g.budget--
	switch k := g.byte() % 17; {
	case k < 2:
		name := fmt.Sprintf("l%d", g.locals)
		g.locals++
		g.w("local ", name, " = ")
		g.num(2)
		g.w("\n")
		g.nums = append(g.nums, name)
	case k == 2:
		name := fmt.Sprintf("f%d", g.locals)
		g.locals++
		g.w("local ", name, " = ")
		g.boolean(2)
		g.w("\n")
		g.bools = append(g.bools, name)
	case k == 3 && len(g.nums) > 0:
		g.w(g.nums[int(g.byte())%len(g.nums)], " = ")
		g.num(2)
		g.w("\n")
	case k == 4:
		g.w(g.nearPick([]string{"g", "t1"}, []string{"a", "max", "R", "MDSs"}), " = ")
		g.num(2)
		g.w("\n")
	case k == 5:
		g.w("h = ")
		g.boolean(2)
		g.w("\n")
	case k == 6:
		g.w(g.nearPick([]string{"out["}, []string{"R[1][", "q[", "out.x["}))
		g.index(1)
		g.w("] = ")
		g.num(2)
		g.w("\n")
	case k == 7 && depth > 0:
		name := fmt.Sprintf("i%d", g.locals)
		g.locals++
		g.w("for ", name, " = ")
		g.w(g.pick([]string{"1", "#R", "0", "a"}), ", ")
		g.w(g.pick([]string{"#R", "1", "3", "b", "#R - 1"}))
		if g.byte()%4 == 0 {
			g.w(", ", g.pick([]string{"-1", "2", "0", "0.5", "c"}))
		}
		g.w(" do\n")
		g.nums = append(g.nums, name)
		g.loops++
		g.block(depth - 1)
		g.loops--
		g.nums = g.nums[:len(g.nums)-1]
		g.w("end\n")
	case k == 8 && depth > 0:
		g.w("while ")
		g.boolean(1)
		g.w(" do\n")
		g.loops++
		g.block(depth - 1)
		g.loops--
		g.w("end\n")
	case k == 9 && depth > 0 || k == 10 && depth > 0:
		g.w("if ")
		g.boolean(2)
		g.w(" then\n")
		g.block(depth - 1)
		for n := g.byte() % 3; n > 0; n-- {
			g.w("elseif ")
			g.boolean(1)
			g.w(" then\n")
			g.block(depth - 1)
		}
		if g.byte()%2 == 0 {
			g.w("else\n")
			g.block(depth - 1)
		}
		g.w("end\n")
	case k == 11 && g.loops > 0:
		g.w("do break end\n")
	case k == 12 && depth > 0:
		g.w("do\n")
		g.block(depth - 1)
		g.w("end\n")
	case k == 13:
		g.w("do return ")
		g.ret()
		g.w(" end\n")
	case k == 15 && depth > 0:
		// A while that ends on its own: its condition runs once more after
		// the last iteration.
		name := fmt.Sprintf("w%d", g.locals)
		g.locals++
		g.w("local ", name, " = 0\nwhile ", name, " < ", g.pick([]string{"1", "2", "3"}), " and ")
		g.boolean(1)
		g.w(" do\n", name, " = ", name, " + 1\n")
		g.nums = append(g.nums, name)
		g.loops++
		g.block(depth - 1)
		g.loops--
		g.w("end\n")
	case k == 14 && g.byte() < g.near:
		g.w(g.pick([]string{"local m\n", "f(1)\n", "max = min\n", "a, b = b\n", "g, l9 = 1, 2\n", "repeat g = 1 until true\n",
			"for k, v in pairs(R) do end\n", "local function z() end\n", "return 1, 2\n"}))
	default:
		g.w("g, t1 = ")
		g.num(1)
		g.w(", ")
		g.num(1)
		g.w("\n")
	}
}

func (g *stmtGen) ret() {
	switch g.byte() % 5 {
	case 0:
		g.boolean(2)
	case 1:
		g.w(g.nearPick([]string{`{"half", "small"}`, `"big"`, `{}`}, []string{`{"a", 1}`, `{x = "a"}`, `{"a", "b"}, 1`}))
	case 2:
	default:
		g.num(2)
	}
}

// source spells a whole program and the budget to run it on.
func (g *stmtGen) source() string {
	g.near = g.byte() / 8
	g.budget = 4 + int(g.byte()%12)
	g.block(2 + int(g.byte()%2))
	if g.byte()%2 == 0 {
		g.w("return ")
		g.ret()
	}
	return g.b.String()
}

// stmtWorld is the VM state a program runs against, built on both sides
// alike: the scalars, rows, an external e, and perhaps a shadowed builtin.
type stmtWorld struct {
	in      []float64
	rows    [][2]float64
	e       lua.Value
	shadow  int
	budget  int64
	prelude map[string]lua.Value
}

func (g *stmtGen) world() stmtWorld {
	w := stmtWorld{in: []float64{g.value(), g.value(), g.value()}, e: g.value()}
	for n := int(g.byte() % 5); n > 0; n-- {
		w.rows = append(w.rows, [2]float64{g.value(), g.value()})
	}
	switch g.byte() % 8 {
	case 0:
		w.e = "7"
	case 1:
		w.e = nil
	}
	w.shadow = int(g.byte() % 12)
	w.budget = []int64{5000, 5000, 1 + int64(g.byte()%120), 400}[g.byte()%4]
	return w
}

func (g *stmtGen) value() float64 {
	special := []float64{0, 1, 2, 3, -1, 0.5, 1e-310, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1e308, 4, 2.5}
	k := int(g.byte())
	if k < 4*len(special) {
		return special[k%len(special)]
	}
	return float64(k-4*len(special)) / 7
}

func (w *stmtWorld) vm() *lua.VM {
	vm := lua.NewVM()
	vm.MaxSteps = w.budget
	gl := vm.Globals
	for i, n := range stmtSpec.Scalars {
		gl.SetString(n, lua.Box(w.in[i]))
	}
	rows := lua.NewTable()
	for i, r := range w.rows {
		t := lua.NewTable()
		t.SetString("x", lua.Box(r[0]))
		t.SetString("y", lua.Box(r[1]))
		rows.SetInt(i+1, t)
	}
	gl.SetString("R", rows)
	gl.SetString("out", lua.NewTable())
	gl.SetString("e", w.e)
	switch w.shadow {
	case 0:
		gl.SetString("max", gl.GetString("min"))
	case 1:
		gl.GetString("math").(*lua.Table).SetString("floor", gl.GetString("max"))
	case 2:
		gl.SetString("min", gl.GetString("math").(*lua.Table).GetString("min"))
	}
	return vm
}

func (w *stmtWorld) frame(k *lua.StmtKernel) *lua.Frame {
	f := &lua.Frame{In: w.in, N: len(w.rows), Cols: make([][]float64, len(stmtSpec.Keys))}
	for c := range stmtSpec.Keys {
		if !k.UsesKey[c] {
			continue
		}
		for _, r := range w.rows {
			f.Cols[c] = append(f.Cols[c], r[c])
		}
	}
	return f
}

// leave stores what a finished run left, as a host publishes it.
func leave(vm *lua.VM, k *lua.StmtKernel, f *lua.Frame) {
	for j, name := range k.Globals {
		if f.RunSet&(1<<j) != 0 {
			vm.Globals.SetString(name, k.Value(f, j))
		}
	}
	out := vm.Globals.GetString("out").(*lua.Table)
	for _, s := range f.Stores {
		out.Set(lua.Box(s.Key), lua.Box(s.Val))
	}
}

// globalsDump renders every global but the functions and libraries, floats
// by their bits, tables one level deep in key order.
func globalsDump(vm *lua.VM) string {
	var b strings.Builder
	var dump func(v lua.Value, depth int)
	dump = func(v lua.Value, depth int) {
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(&b, "%016x", math.Float64bits(x))
		case *lua.Table:
			b.WriteString("{")
			if depth < 2 {
				for _, k := range x.Keys() {
					dump(k, depth+1)
					b.WriteString("=")
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
		if lua.TypeOf(v) == lua.TypeFunction || k == "math" {
			continue
		}
		fmt.Fprintf(&b, "%v=", k)
		dump(v, 0)
		b.WriteString("\n")
	}
	return b.String()
}

// stmtOutcome is what checkStmtKernel saw.
type stmtOutcome int

const (
	stmtRefused stmtOutcome = iota
	stmtBailed
	stmtFinished
)

// checkStmtKernel compiles one generated program and, if the compiler takes
// it and the run finishes, requires the tree-walker's result, steps,
// globals and stores.
func checkStmtKernel(t *testing.T, data []byte) stmtOutcome {
	g := &stmtGen{data: data}
	src := g.source()
	w := g.world()
	chunk, err := lua.Compile("fuzz", src)
	if err != nil {
		return stmtRefused
	}
	spec := stmtSpec
	spec.MaxSteps = w.budget
	k := lua.CompileStmtKernel(chunk, spec)
	if k == nil {
		return stmtRefused
	}
	kvm, tvm := w.vm(), w.vm()
	f := w.frame(k)
	if !k.Run(kvm, f) {
		return stmtBailed
	}
	v, ok, err := tvm.RunFirst(chunk)
	if err != nil {
		t.Fatalf("the kernel finished %q, the tree-walker failed: %v", src, err)
	}
	if f.Steps() != tvm.Steps() {
		t.Fatalf("%q: the kernel ticked %d steps, the tree-walker %d", src, f.Steps(), tvm.Steps())
	}
	if got, want := describeResult(&f.Ret), describeValue(v, ok); got != want {
		t.Fatalf("%q: kernel returned %s, tree-walker %s", src, got, want)
	}
	leave(kvm, k, f)
	if got, want := globalsDump(kvm), globalsDump(tvm); got != want {
		t.Fatalf("%q: globals after the kernel\n%s\nafter the tree-walker\n%s", src, got, want)
	}
	return stmtFinished
}

func describeResult(r *lua.Result) string {
	switch r.Kind {
	case lua.NumberResult:
		return fmt.Sprintf("number %016x", math.Float64bits(r.Num))
	case lua.BoolResult:
		return fmt.Sprintf("boolean %v", r.Bool)
	case lua.StringsResult:
		return fmt.Sprintf("strings %q", r.Strs)
	}
	return "nothing"
}

func describeValue(v lua.Value, ok bool) string {
	if !ok {
		return "nothing"
	}
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("number %016x", math.Float64bits(x))
	case bool:
		return fmt.Sprintf("boolean %v", x)
	case string:
		return fmt.Sprintf("strings %q", []string{x})
	case *lua.Table:
		var strs []string
		for i := 1; i <= x.Len(); i++ {
			s, _ := x.GetInt(i).(string)
			strs = append(strs, s)
		}
		return fmt.Sprintf("strings %q", strs)
	}
	return fmt.Sprintf("%v %v", lua.TypeOf(v), v)
}

func FuzzStmtKernel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(stmtScript(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkStmtKernel(t, data) })
}

func stmtScript(seed int64) []byte {
	data := make([]byte, 400)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestStmtKernelMatchesTree is the seeded run of the fuzz target, and
// checks that the seeds reach every outcome: runs to compare, runs that
// bail, programs refused.
func TestStmtKernelMatchesTree(t *testing.T) {
	var seen [3]int
	const n = 4000
	for seed := int64(1); seed <= n; seed++ {
		seen[checkStmtKernel(t, stmtScript(seed))]++
	}
	t.Logf("refused %d, bailed %d, finished %d of %d generated programs", seen[stmtRefused], seen[stmtBailed], seen[stmtFinished], n)
	for o, c := range seen {
		if c < n/20 {
			t.Errorf("outcome %d reached by %d of %d programs; the generator should reach every outcome", o, c, n)
		}
	}
}
