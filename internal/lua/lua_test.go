package lua

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// evalOne runs src and returns the first return value.
func evalOne(t *testing.T, src string) Value {
	t.Helper()
	vm := NewVM()
	vals, err := vm.Eval("test", src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	if len(vals) == 0 {
		return nil
	}
	return vals[0]
}

func wantNumber(t *testing.T, src string, want float64) {
	t.Helper()
	got := evalOne(t, src)
	n, ok := got.(float64)
	if !ok || n != want {
		t.Fatalf("eval %q = %v (%T), want %v", src, got, got, want)
	}
}

func wantString(t *testing.T, src string, want string) {
	t.Helper()
	got := evalOne(t, src)
	s, ok := got.(string)
	if !ok || s != want {
		t.Fatalf("eval %q = %v (%T), want %q", src, got, got, want)
	}
}

func wantBool(t *testing.T, src string, want bool) {
	t.Helper()
	got := evalOne(t, src)
	b, ok := got.(bool)
	if !ok || b != want {
		t.Fatalf("eval %q = %v (%T), want %v", src, got, got, want)
	}
}

func wantError(t *testing.T, src, fragment string) {
	t.Helper()
	vm := NewVM()
	_, err := vm.Eval("test", src)
	if err == nil {
		t.Fatalf("eval %q: expected error containing %q", src, fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("eval %q error = %q, want fragment %q", src, err, fragment)
	}
}

func TestArithmetic(t *testing.T) {
	wantNumber(t, "return 1 + 2*3", 7)
	wantNumber(t, "return (1+2)*3", 9)
	wantNumber(t, "return 10/4", 2.5)
	wantNumber(t, "return 2^10", 1024)
	wantNumber(t, "return 2^3^2", 512) // right associative
	wantNumber(t, "return 7 % 3", 1)
	wantNumber(t, "return -7 % 3", 2) // Lua mod has divisor's sign
	wantNumber(t, "return -2^2", -4)  // unary minus binds looser than ^
	wantNumber(t, "return 0x10 + 1", 17)
	wantNumber(t, "return 1e3 + 2.5", 1002.5)
	wantNumber(t, "return .5 * 4", 2)
}

func TestStringCoercionArithmetic(t *testing.T) {
	wantNumber(t, `return "10" + 5`, 15)
	wantError(t, `return {} + 1`, "arithmetic on a table")
}

func TestComparisons(t *testing.T) {
	wantBool(t, "return 1 < 2", true)
	wantBool(t, "return 2 <= 2", true)
	wantBool(t, "return 3 > 4", false)
	wantBool(t, "return 3 >= 3", true)
	wantBool(t, `return "a" < "b"`, true)
	wantBool(t, "return 1 == 1.0", true)
	wantBool(t, `return 1 == "1"`, false) // no coercion for ==
	wantBool(t, "return 1 ~= 2", true)
	wantBool(t, "return nil == nil", true)
	wantError(t, `return 1 < "2"`, "compare number with string")
	wantError(t, "return {} < {}", "compare two table values")
}

func TestLogicalOperators(t *testing.T) {
	wantNumber(t, "return false or 5", 5)
	wantNumber(t, "return nil and 1 or 2", 2)
	wantNumber(t, "return 3 and 4", 4)
	wantBool(t, "return not nil", true)
	wantBool(t, "return not 0", false) // 0 is truthy in Lua
}

func TestShortCircuitDoesNotEvaluate(t *testing.T) {
	wantBool(t, "return false and error('boom')", false)
	v := evalOne(t, "return true or error('boom')")
	if v != true {
		t.Fatalf("got %v", v)
	}
}

func TestConcat(t *testing.T) {
	wantString(t, `return "a" .. "b" .. "c"`, "abc")
	wantString(t, `return "n=" .. 42`, "n=42")
	wantString(t, `return 1 .. 2`, "12")
	wantError(t, `return "x" .. nil`, "concatenate a nil")
}

func TestLength(t *testing.T) {
	wantNumber(t, `return #"hello"`, 5)
	wantNumber(t, "return #{10,20,30}", 3)
	wantNumber(t, "local t = {} t[1]=1 t[2]=2 return #t", 2)
	wantError(t, "return #5", "length of a number")
}

func TestVariablesAndScope(t *testing.T) {
	wantNumber(t, "x = 5 return x", 5)
	wantNumber(t, "local x = 5 do local x = 9 end return x", 5)
	wantNumber(t, "local x = 1 do x = 2 end return x", 2)
	v := evalOne(t, "return undefined_global")
	if v != nil {
		t.Fatalf("undefined global = %v", v)
	}
}

func TestMultipleAssignment(t *testing.T) {
	wantNumber(t, "local a, b = 1, 2 a, b = b, a return a", 2)
	wantNumber(t, "local a, b, c = 1 return (b == nil and c == nil) and a or -1", 1)
	wantNumber(t, "local function two() return 10, 20 end local a, b = two() return a+b", 30)
	wantNumber(t, "local function two() return 10, 20 end local a, b, c = two(), 5 return (c==nil) and a+b or -1", 15)
}

func TestIfElse(t *testing.T) {
	src := `
		local x = 7
		if x > 10 then return "big"
		elseif x > 5 then return "mid"
		else return "small" end`
	wantString(t, src, "mid")
	wantString(t, `if false then return "a" end return "b"`, "b")
}

func TestWhileAndBreak(t *testing.T) {
	wantNumber(t, "local i = 0 while i < 10 do i = i + 1 end return i", 10)
	wantNumber(t, "local i = 0 while true do i = i + 1 if i == 4 then break end end return i", 4)
}

func TestRepeat(t *testing.T) {
	wantNumber(t, "local i = 0 repeat i = i + 1 until i >= 3 return i", 3)
	// The until condition sees body locals.
	wantNumber(t, "local n = 0 repeat local done = true n = n + 1 until done return n", 1)
}

func TestNumericFor(t *testing.T) {
	wantNumber(t, "local s = 0 for i = 1, 5 do s = s + i end return s", 15)
	wantNumber(t, "local s = 0 for i = 10, 1, -2 do s = s + i end return s", 30)
	wantNumber(t, "local s = 0 for i = 5, 1 do s = s + 1 end return s", 0)
	wantNumber(t, "for i = 1, 10 do if i == 3 then return i end end", 3)
	wantError(t, "for i = 1, 10, 0 do end", "step is zero")
	// Loop variable is per-iteration local; mutations do not leak.
	wantNumber(t, "local last = 0 for i = 1, 3 do last = i i = 99 end return last", 3)
}

func TestGenericForPairs(t *testing.T) {
	wantNumber(t, "local s = 0 for k, v in pairs({a=1, b=2, c=3}) do s = s + v end return s", 6)
	wantString(t, "local out = '' for i, v in ipairs({'x','y','z'}) do out = out .. v end return out", "xyz")
	wantNumber(t, "local n = 0 for k in pairs({10, 20, x=1}) do n = n + 1 end return n", 3)
	// pairs is deterministic: sorted hash keys after array part.
	wantString(t, "local out = '' for k in pairs({z=1, a=1, m=1}) do out = out .. k end return out", "amz")
}

func TestTables(t *testing.T) {
	wantNumber(t, "local t = {} t.x = 4 return t.x", 4)
	wantNumber(t, "local t = {} t['k'] = 2 return t.k", 2)
	wantNumber(t, "local t = {5, 6, 7} return t[2]", 6)
	wantNumber(t, "local t = {a = 1, [2] = 9, 8} return t[1] + t[2] + t.a", 18)
	wantNumber(t, "local t = {x = {y = {z = 3}}} return t.x.y.z", 3)
	v := evalOne(t, "local t = {1} t[1] = nil return t[1]")
	if v != nil {
		t.Fatalf("deleted key = %v", v)
	}
	wantError(t, "local t = {} t[nil] = 1", "index is nil")
	wantError(t, "local x = 5 return x.field", "attempt to index local 'x' (a number value)")
	wantError(t, "return undefined.field", "attempt to index global 'undefined' (a nil value)")
	wantError(t, "local t = {} return t.a.b", "attempt to index field 'a' (a nil value)")
	wantError(t, "local t = {} return t[1].b", "attempt to index a nil value")
	wantError(t, "undefined.field = 1", "attempt to index global 'undefined' (a nil value)")
}

func TestTableConstructorExpandsTrailingCall(t *testing.T) {
	wantNumber(t, "local function two() return 7, 8 end local t = {two()} return #t", 2)
	wantNumber(t, "local function two() return 7, 8 end local t = {two(), 1} return #t", 2)
}

func TestFunctions(t *testing.T) {
	wantNumber(t, "local function add(a, b) return a + b end return add(2, 3)", 5)
	wantNumber(t, "function f(x) return x * 2 end return f(21)", 42)
	wantNumber(t, "local f = function(x) return x + 1 end return f(1)", 2)
	// Missing args are nil; extra args dropped.
	wantBool(t, "local function f(a, b) return b == nil end return f(1)", true)
	wantNumber(t, "local function f(a) return a end return f(1, 2, 3)", 1)
	// Recursion (local function sees itself).
	wantNumber(t, "local function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end return fib(10)", 55)
}

func TestClosures(t *testing.T) {
	src := `
		local function counter()
			local n = 0
			return function() n = n + 1 return n end
		end
		local c = counter()
		c() c()
		return c()`
	wantNumber(t, src, 3)
	// Two closures do not share state.
	src2 := `
		local function counter()
			local n = 0
			return function() n = n + 1 return n end
		end
		local a, b = counter(), counter()
		a() a()
		return b()`
	wantNumber(t, src2, 1)
}

func TestFunctionFieldDefinition(t *testing.T) {
	wantNumber(t, "t = {} function t.f(x) return x + 1 end return t.f(4)", 5)
}

func TestMethodCallSugar(t *testing.T) {
	src := `
		local obj = {val = 10}
		function obj.get(self) return self.val end
		return obj:get()`
	wantNumber(t, src, 10)
	wantError(t, "local x = 3 return x:foo()", "attempt to index local 'x' (a number value)")
	wantError(t, "return obj:foo()", "attempt to index global 'obj' (a nil value)")
	wantError(t, "local t = {} return t:foo()", "attempt to call method 'foo' (a nil value)")
}

func TestMultipleReturnsTruncateMidList(t *testing.T) {
	// A call not in tail position yields exactly one value.
	wantNumber(t, "local function two() return 1, 2 end local a, b = two(), 10 return b", 10)
}

func TestReturnMultiple(t *testing.T) {
	vm := NewVM()
	vals, err := vm.Eval("t", "return 1, 'x', true")
	if err != nil || len(vals) != 3 {
		t.Fatalf("vals=%v err=%v", vals, err)
	}
	if vals[1] != "x" || vals[2] != true {
		t.Fatalf("vals = %v", vals)
	}
}

// TestCallUndefined: a call of a nil value names what was called, so a
// policy that uses a builtin the language does not have fails by its name.
func TestCallUndefined(t *testing.T) {
	wantError(t, "nosuchfn()", "attempt to call global 'nosuchfn' (a nil value)")
	wantError(t, "local f = 5 f()", "attempt to call local 'f' (a number value)")
	wantError(t, "local t = {} t.f()", "attempt to call field 'f' (a nil value)")
	wantError(t, "local t = {} t[1]()", "attempt to call a nil value")
	wantError(t, "local function f() end f()()", "attempt to call a nil value")
	wantError(t, `return string.find("abc", "b")`, "attempt to index global 'string' (a nil value)")
	wantError(t, "table.insert(t, 1)", "attempt to index global 'table' (a nil value)")
	wantError(t, "pcall(error)", "attempt to call global 'pcall' (a nil value)")
	wantError(t, "math.nosuch(1)", "attempt to call field 'nosuch' (a nil value)")
	// The arguments are evaluated first, as in Lua.
	wantError(t, "nosuchfn(nil + 1)", "arithmetic on a nil value")
}

func TestStdlibMath(t *testing.T) {
	wantNumber(t, "return math.floor(3.7)", 3)
	wantNumber(t, "return math.ceil(3.2)", 4)
	wantNumber(t, "return math.abs(-5)", 5)
	wantNumber(t, "return math.sqrt(16)", 4)
	wantNumber(t, "return math.max(1, 9, 4)", 9)
	wantNumber(t, "return math.min(3, -2, 8)", -2)
	wantNumber(t, "return max(2, 7)", 7) // top-level alias per Mantle env
	wantNumber(t, "return min(2, 7)", 2)
	wantBool(t, "return math.huge > 1e300", true)
	wantNumber(t, "return math.pow(2, 8)", 256)
}

// TestStdlibString: the language has no string library; a policy handles
// strings with `#`, `..`, comparison, tostring and tonumber.
func TestStdlibString(t *testing.T) {
	wantNumber(t, `return #("ab" .. "c")`, 3)
	wantString(t, `return "rank" .. 1 + 1 .. "/" .. 2.5`, "rank2/2.5")
	wantString(t, `return tostring(1e15) .. " " .. tostring(0.1) .. " " .. tostring(-0)`, "1e+15 0.1 -0")
	wantString(t, `return tostring(1/0) .. " " .. tostring(-1/0)`, "inf -inf")
	wantNumber(t, `return tonumber("0x1F") + tonumber("  2.5  ")`, 33.5)
	wantBool(t, `return "abc" < "abd" and "Z" < "a" and "" < "a"`, true)
}

// TestStdlibTable: the language has no table library; a policy grows and
// shrinks a list with `#`, in any order of stores.
func TestStdlibTable(t *testing.T) {
	wantNumber(t, "local t = {} t[#t + 1] = 5 t[#t + 1] = 6 return t[2]", 6)
	wantNumber(t, "local t = {} t[2] = 'b' t[1] = 'a' t[3] = 'c' return #t", 3)
	wantNumber(t, "local t = {1, 2, 3} t[#t] = nil t[#t] = nil return #t", 1)
	wantNumber(t, "local t = {1} t[#t] = nil t[#t + 1] = 7 return t[1] + #t", 8)
}

func TestStdlibMisc(t *testing.T) {
	wantString(t, "return type({})", "table")
	wantString(t, "return type(nil)", "nil")
	wantString(t, "return type(max)", "function")
	wantString(t, "return tostring(1.5)", "1.5")
	wantString(t, "return tostring(true)", "true")
	wantNumber(t, `return tonumber("42")`, 42)
	wantBool(t, `return tonumber("zap") == nil`, true)
	wantError(t, "assert(false, 'custom msg')", "custom msg")
	wantError(t, "error('kaboom')", "kaboom")
}

func TestComments(t *testing.T) {
	wantNumber(t, "-- line comment\nreturn 1 -- trailing", 1)
	wantNumber(t, "--[[ block\ncomment ]] return 2", 2)
}

func TestStepBudgetKillsInfiniteLoop(t *testing.T) {
	vm := NewVM()
	vm.MaxSteps = 10000
	_, err := vm.Eval("t", "while 1 do end")
	if err == nil || !strings.Contains(err.Error(), ErrBudget) {
		t.Fatalf("err = %v", err)
	}
}

func TestStepBudgetResetsPerRun(t *testing.T) {
	vm := NewVM()
	vm.MaxSteps = 100000
	for i := 0; i < 5; i++ {
		if _, err := vm.Eval("t", "local s = 0 for i = 1, 1000 do s = s + i end return s"); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestStackOverflowGuard(t *testing.T) {
	vm := NewVM()
	_, err := vm.Eval("t", "local function f() return f() end return f()")
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("err = %v", err)
	}
}

func TestRuntimeErrorHasLine(t *testing.T) {
	vm := NewVM()
	_, err := vm.Eval("mychunk", "local x = 1\nlocal y = 2\nreturn x + {}")
	if err == nil || !strings.Contains(err.Error(), "mychunk:3:") {
		t.Fatalf("err = %v", err)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{"if x then", "expected"},
		{"return 1 +", "unexpected"},
		{"local 5 = 3", "expected name"},
		{"x = ", "unexpected"},
		{"for i = 1 do end", "expected ','"},
		{"f(--[[unclosed", "unterminated long comment"},
		{`x = "unterminated`, "unterminated string"},
		{"x = 'bad\\q'", "invalid escape"},
		{"5 + 5", "unexpected number"},
		{"return 1 return 2", "statements after 'return'"},
		{"x = ...", "varargs"},
		{"x, 5 = 1, 2", "unexpected number"},
		{"f() = 3", "cannot assign"},
	}
	for _, c := range cases {
		if _, err := Compile("t", c.src); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Compile(%q) err = %v, want fragment %q", c.src, err, c.frag)
		}
	}
}

func TestCompileExprOrChunk(t *testing.T) {
	vm := NewVM()
	c, err := CompileExprOrChunk("metaload", "1 + 2*3")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := vm.Run(c)
	if err != nil || len(vals) != 1 || vals[0] != 7.0 {
		t.Fatalf("vals=%v err=%v", vals, err)
	}
	c2, err := CompileExprOrChunk("when", "if x then return true end return false")
	if err != nil {
		t.Fatal(err)
	}
	vals, err = vm.Run(c2)
	if err != nil || vals[0] != false {
		t.Fatalf("vals=%v err=%v", vals, err)
	}
}

func TestGlobalsPersistAcrossRuns(t *testing.T) {
	vm := NewVM()
	if _, err := vm.Eval("a", "counter = (counter or 0) + 1"); err != nil {
		t.Fatal(err)
	}
	vals, err := vm.Eval("b", "counter = (counter or 0) + 1 return counter")
	if err != nil || vals[0] != 2.0 {
		t.Fatalf("vals=%v err=%v", vals, err)
	}
}

func TestGoFuncIntegration(t *testing.T) {
	vm := NewVM()
	vm.Globals.SetString("double", GoFunc(func(args []Value) ([]Value, error) {
		n, _ := Number(args[0])
		return []Value{n * 2}, nil
	}))
	vals, err := vm.Eval("t", "return double(21)")
	if err != nil || vals[0] != 42.0 {
		t.Fatalf("vals=%v err=%v", vals, err)
	}
}

func TestTableAPIFromGo(t *testing.T) {
	tb := NewTable()
	tb.SetString("x", 1.0)
	tb.SetInt(1, "first")
	tb.Append("second")
	if tb.Len() != 2 || tb.GetInt(2) != "second" {
		t.Fatalf("len=%d", tb.Len())
	}
	if tb.GetString("x") != 1.0 {
		t.Fatal("string key")
	}
	if tb.NumEntries() != 3 {
		t.Fatalf("entries = %d", tb.NumEntries())
	}
	// Array-part migration: setting 3 after 1,2 extends the array.
	tb.Set(4.0, "gap") // goes to hash
	tb.Set(3.0, "third")
	if tb.Len() != 4 {
		t.Fatalf("after migration len = %d", tb.Len())
	}
}

// Property: tables behave like maps — random set/get sequences agree with a
// Go map oracle.
func TestTablePropertyVsMap(t *testing.T) {
	f := func(keys []uint8, vals []int8) bool {
		tb := NewTable()
		oracle := map[float64]float64{}
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			k := float64(keys[i])
			v := float64(vals[i])
			tb.Set(k, v)
			oracle[k] = v
		}
		for k, v := range oracle {
			if tb.Get(k) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ToString(Number) round-trips through tonumber for finite floats.
func TestNumberStringRoundTrip(t *testing.T) {
	f := func(n int32) bool {
		v := float64(n) / 8
		s := formatNumber(v)
		back, ok := Number(s)
		return ok && back == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWhileConditionCountsTowardBudget(t *testing.T) {
	vm := NewVM()
	vm.MaxSteps = 500
	// Even a loop with an empty body must die.
	_, err := vm.Eval("t", "local i = 0 while i < 1e9 do i = i + 1 end")
	if err == nil {
		t.Fatal("expected budget error")
	}
}

func TestDeterministicPairsOrder(t *testing.T) {
	src := `
		local t = {}
		t["b"] = 1 t["a"] = 1 t["c"] = 1 t[2] = 1 t[1] = 1
		local out = ""
		for k in pairs(t) do out = out .. tostring(k) .. ";" end
		return out`
	want := "1;2;a;b;c;"
	for i := 0; i < 10; i++ {
		wantString(t, src, want)
	}
}

func TestStdlibMathExtensions(t *testing.T) {
	wantNumber(t, "return math.fmod(7, 3)", 1)
	wantNumber(t, "return math.fmod(-7, 3)", -1) // C-style fmod, unlike %
	wantNumber(t, "local i, f = math.modf(3.25) return i", 3)
	wantNumber(t, "local i, f = math.modf(3.25) return f", 0.25)
}

func TestMathRandomDeterministic(t *testing.T) {
	run := func() []Value {
		vm := NewVM()
		vals, err := vm.Eval("t", `
			math.randomseed(42)
			local out = {}
			for i = 1, 5 do out[i] = math.random(10) end
			return out[1], out[2], out[3], out[4], out[5]`)
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("math.random not deterministic: %v vs %v", a, b)
		}
		n := a[i].(float64)
		if n < 1 || n > 10 {
			t.Fatalf("random(10) = %v out of range", n)
		}
	}
	wantBool(t, "local r = math.random() return r >= 0 and r < 1", true)
	wantBool(t, "local r = math.random(3, 5) return r >= 3 and r <= 5", true)
	wantError(t, "math.random(0)", "interval is empty")
	wantError(t, "math.random(5, 3)", "interval is empty")
}

// TestRunMemoryBoundedByBudget: `..` is the one way a script can build a
// string, and it is capped, so a run's memory stays proportional to its step
// budget. A doubling loop would otherwise reach 2^40 bytes in 40 steps.
func TestRunMemoryBoundedByBudget(t *testing.T) {
	wantError(t, `local s = "x" for i = 1, 40 do s = s .. s end`, "string length overflow")
	wantError(t, `local s = "x" for i = 1, 20 do s = s .. s end return s .. 1`, "string length overflow")
	wantNumber(t, `local s = "x" for i = 1, 20 do s = s .. s end return #s`, 1<<20)
}

// TestGlobalsAreTheDocumentedSet: a fresh VM's global names and math
// fields are exactly the list in docs/POLICIES.md's "Builtins" section, so
// the code and the doc cannot drift apart.
func TestGlobalsAreTheDocumentedSet(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "POLICIES.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Builtins\n")
	if !ok {
		t.Fatal(`docs/POLICIES.md has no "## Builtins" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := func(prefix string) string {
		for _, line := range strings.Split(section, "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.Join(strings.Fields(strings.ReplaceAll(rest, "`", "")), " ")
			}
		}
		t.Fatalf("the Builtins section has no line starting %q", prefix)
		return ""
	}
	names := func(tab *Table) string {
		var out []string
		for _, k := range tab.Keys() {
			out = append(out, ToString(k))
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	vm := NewVM()
	if got, want := names(vm.Globals), documented("* globals:"); got != want {
		t.Errorf("globals are %q, docs/POLICIES.md lists %q", got, want)
	}
	if got, want := names(vm.Globals.GetString("math").(*Table)), documented("* `math`:"); got != want {
		t.Errorf("math fields are %q, docs/POLICIES.md lists %q", got, want)
	}
}
