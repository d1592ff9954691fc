package lua_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mantle/internal/lua"
)

// A kernel is RunFirst of its chunk, computed without the VM. These tests
// hold the two against each other: same result bits on every input, or a
// compiler that refused the chunk.

// kernelInputs are what the generated expressions may read: three globals
// and two fields of the rank table T[k].
var kernelInputs = []lua.Input{
	{Name: "a"}, {Name: "b"}, {Name: "c"},
	{Name: "T", Index: "k", Key: "x"}, {Name: "T", Index: "k", Key: "y"},
}

// kernelGen spells expressions from fuzz bytes; a spent generator reads
// zeros, which spell a leaf.
type kernelGen struct {
	data []byte
	b    strings.Builder
}

func (g *kernelGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	c := g.data[0]
	g.data = g.data[1:]
	return c
}

// Leaves inside the kernel grammar, and near misses that read something
// nobody named, or a value that is not a number.
var (
	kernelLeaves = []string{"a", "b", "c", `T[k]["x"]`, "T[k].y", "0", "1", "2.5", ".5", "3e2",
		"0x10", "1e308", "1e-310", "4503599627370497", "(a)"}
	nearLeaves = []string{"d", `T[j]["x"]`, `T[k]["z"]`, "T[k][x]", "T.k.x", `T["k"]["x"]`, "k", "T[k]",
		`"5"`, "nil", "true", "#T", "f(a)", "math.floor(a)", "a < b", "a and b", "a or b", "not a",
		"a .. b", "{}", "function() return 1 end", `U[k]["x"]`, `T[k]["x"]["y"]`}
	kernelOps = []string{"+", "-", "*", "/", "%", "^"}
)

// expr spells one expression of at most depth levels; near is the chance in
// 256 that a leaf is a near miss.
func (g *kernelGen) expr(depth int, near byte) {
	switch k := g.byte(); {
	case depth > 0 && k < 120:
		g.b.WriteString("(")
		g.expr(depth-1, near)
		g.b.WriteString(" " + kernelOps[int(g.byte())%len(kernelOps)] + " ")
		g.expr(depth-1, near)
		g.b.WriteString(")")
	case depth > 0 && k < 145:
		g.b.WriteString("-")
		g.expr(depth-1, near)
	case g.byte() < near:
		g.b.WriteString(nearLeaves[int(g.byte())%len(nearLeaves)])
	default:
		g.b.WriteString(kernelLeaves[int(g.byte())%len(kernelLeaves)])
	}
}

// source spells a whole hook: usually `return <expr>`, sometimes a shape
// around it that the compiler must refuse.
func (g *kernelGen) source() string {
	near := g.byte() / 4
	g.expr(1+int(g.byte())%6, near)
	e := g.b.String()
	switch g.byte() % 16 {
	case 0:
		return "return " + e + ", 1"
	case 1:
		return "local q = 1 return " + e
	case 2:
		return "q = 2 return " + e
	case 3:
		return "return"
	case 4:
		return "if a then return " + e + " end"
	case 5, 6, 7:
		return e // a bare hook, compiled the way Mantle compiles one
	}
	return "return " + e
}

var kernelNaN = math.Float64frombits(0x7ff8000000000123)

// value picks a special, or takes eight bytes as the bits.
func (g *kernelGen) value() float64 {
	special := []float64{math.NaN(), kernelNaN, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, 1e308, 5e-324, 1e-310, 1, 2, -1, 0.5, 3, 1023, 1024}
	if k := int(g.byte()); k < 3*len(special) {
		return special[k%len(special)]
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = g.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

// checkKernel compiles one generated hook and, if the compiler takes it,
// requires the kernel's result bits to be RunFirst's. It reports whether
// the compiler took it.
func checkKernel(t *testing.T, data []byte) bool {
	g := &kernelGen{data: data}
	src := g.source()
	in := make([]float64, len(kernelInputs))
	for i := range in {
		in[i] = g.value()
	}
	budget := []int64{0, 5000, int64(g.byte() % 24)}[g.byte()%3]
	chunk, err := lua.CompileExprOrChunk("fuzz", src)
	if err != nil {
		return false
	}
	k := lua.CompileKernel(chunk, budget, kernelInputs)
	if k == nil {
		return false
	}
	vm := lua.NewVM()
	vm.MaxSteps = budget
	g2 := vm.Globals
	g2.SetString("a", lua.Box(in[0]))
	g2.SetString("b", lua.Box(in[1]))
	g2.SetString("c", lua.Box(in[2]))
	g2.SetString("k", lua.Box(2))
	row, tab := lua.NewTable(), lua.NewTable()
	row.SetString("x", lua.Box(in[3]))
	row.SetString("y", lua.Box(in[4]))
	tab.SetInt(2, row)
	g2.SetString("T", tab)
	v, ok, err := vm.RunFirst(chunk)
	if err != nil || !ok {
		t.Fatalf("%q (budget %d) compiled to a kernel, but the tree-walker says %v (returned a value: %v)", src, budget, err, ok)
	}
	want, isNum := v.(float64)
	if !isNum {
		t.Fatalf("%q compiled to a kernel, but the tree-walker returned a %v", src, lua.TypeOf(v))
	}
	if got := k(in); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q on %v: kernel %v (%x), tree-walker %v (%x)", src, in, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return true
}

func FuzzHookKernel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(kernelScript(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkKernel(t, data) })
}

func kernelScript(seed int64) []byte {
	data := make([]byte, 160)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestHookKernelMatchesTree is the seeded run of the fuzz target, and checks
// that the seeds reach both sides: kernels to compare, and hooks refused.
func TestHookKernelMatchesTree(t *testing.T) {
	took := 0
	const n = 3000
	for seed := int64(1); seed <= n; seed++ {
		if checkKernel(t, kernelScript(seed)) {
			took++
		}
	}
	t.Logf("the compiler took %d of %d generated hooks", took, n)
	if took < n/10 || took > n*9/10 {
		t.Fatalf("the compiler took %d of %d generated hooks; the generator should give it both kinds", took, n)
	}
}

// TestKernelGrammar pins what compiles and what does not, the budget edge
// included: `return a + b` is one statement and three expression nodes.
func TestKernelGrammar(t *testing.T) {
	for src, want := range map[string]bool{
		"a":                                    true,
		"-a % 3 ^ b":                           true,
		`T[k]["x"] * 0.5 + T[k].y`:             true,
		"return (a)":                           true,
		"return a, b":                          false,
		"return a < b":                         false,
		"return a or 0":                        false,
		"return math.max(a, b)":                false,
		`return T[k]["z"]`:                     false,
		"return d":                             false,
		"local x = a return x":                 false,
		`return "1" + a`:                       false,
		"return #T":                            false,
		"return T[k]":                          false,
		"if a then return 1 end return 2":      false,
		"return a + b + c + T[k].x + T[k].y":   true,
		"return (a + b) * (c - T[k][\"y\"])/2": true,
	} {
		chunk, err := lua.CompileExprOrChunk("g", src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := lua.CompileKernel(chunk, 0, kernelInputs) != nil; got != want {
			t.Errorf("%q compiles to a kernel: %v, want %v", src, got, want)
		}
	}
	chunk, err := lua.Compile("g", "return a + b")
	if err != nil {
		t.Fatal(err)
	}
	if lua.CompileKernel(chunk, 4, kernelInputs) == nil {
		t.Error("a budget of 4 steps refused a 4-step hook")
	}
	if lua.CompileKernel(chunk, 3, kernelInputs) != nil {
		t.Error("a budget of 3 steps took a 4-step hook the tree-walker stops at")
	}
	vm := lua.NewVM()
	vm.MaxSteps = 3
	vm.Globals.SetString("a", 1.0)
	vm.Globals.SetString("b", 2.0)
	if _, _, err := vm.RunFirst(chunk); err == nil || !strings.Contains(err.Error(), lua.ErrBudget) {
		t.Errorf("the tree-walker ran the 4-step hook on 3 steps: %v", err)
	}
}

var kernelSink float64

// TestKernelAllocs: evaluating a kernel allocates nothing.
func TestKernelAllocs(t *testing.T) {
	chunk, err := lua.CompileExprOrChunk("g", `0.8*T[k]["x"] + 0.2*T[k].y + a + 10*b`)
	if err != nil {
		t.Fatal(err)
	}
	k := lua.CompileKernel(chunk, 0, kernelInputs)
	if k == nil {
		t.Fatal("no kernel")
	}
	in := []float64{1.5, 2.5, 3.5, 4.5, 5.5}
	if got := testing.AllocsPerRun(100, func() { kernelSink = k(in) }); got != 0 {
		t.Fatalf("a kernel evaluation made %v allocations", got)
	}
	if want := 0.8*4.5 + 0.2*5.5 + 1.5 + 10*2.5; math.Abs(k(in)-want) > 1e-12 {
		t.Fatalf("kernel = %v, want %v", k(in), want)
	}
}
