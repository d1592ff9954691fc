package lua

import (
	"strings"
	"testing"
)

// The call path passes arguments and return values on the VM's value stack,
// and max/min hand back their winning argument through a one-slot buffer.
// These tests pin the Lua semantics that must survive that: results that
// alias the argument window or the buffer, calls nested inside argument
// lists, errors that unwind mid-list, and result slices the caller owns.

// show renders a return list the way a test reads it.
func show(vals []Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = ToString(v)
	}
	return strings.Join(parts, ",")
}

func TestCallPathSemantics(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		// Nested calls: a trailing call expands, an inner one truncates.
		{`local function f(a, b, c) return a, b, c end
		  return f(1, f(2, 3, 4))`, "1,2,3"},
		{`local function f(a, b, c) return a, b, c end
		  return f(f(1, 2, 3), 9)`, "1,9,nil"},
		// Method calls: self goes first in the window.
		{`local t = {n = 10}
		  function t.add(self, a, b) return self.n + a + b end
		  return t:add(t:add(1, 2), 3), t:add(0, 0)`, "26,10"},
		// A multi-return call inside an argument list, truncated and
		// trailing.
		{`local function f(a, b, c, d) return d, c, b, a end
		  local function two() return false, "boom" end
		  return f(two(), 9)`, "nil,nil,9,false"},
		{`local function f(a, b, c, d) return d, c, b, a end
		  return f(1, assert(true, 2, 3))`, "3,2,true,1"},
		{`local function tail(a, b, c) return b, c end
		  return tail(assert(1, 2, 3))`, "2,3"},
		// assert returns its own argument window.
		{`return assert(1, 2, 3)`, "1,2,3"},
		{`local a, b = assert(4, 5), assert(6, 7) return a, b`, "4,6"},
		{`return max(assert(3, 8)), min(assert(9, 2))`, "8,2"},
		{`local t = {assert(1, 2, 3)} return #t, t[3]`, "3,3"},
		{`local t = {} t[1], t[2] = assert(7, 8) return t[1], t[2]`, "7,8"},
		{`return assert(assert(1, 2), 3)`, "1,3"},
		{`return assert(1, assert(2, 3, nil))`, "1,2,3,nil"},
		{`local x, y = assert(10, 20, 30) return y, x`, "20,10"},
		{`return assert(1, 2), assert(3, 4, 5)`, "1,3,4,5"},
		// A Lua function's results sit above its arguments.
		{`local function three() return 4, 9, 2 end return max(three())`, "9"},
		{`local function two(a) return a, a + 1 end
		  local t = {two(1), two(3)} return #t, t[1], t[3]`, "3,1,4"},
		{`local function inc(a, b) return a + 1, b end return inc(inc(inc(1, 9)))`, "4,9"},
		{`local function none() end return 1, none()`, "1"},
		// max and min return the winning argument: a number as it was, a
		// numeric string converted.
		{`local a = 2.5 return max(a, 1) == a, max("10", 9), type(max("10", 9)), min(-0.5, 3)`, "true,10,number,-0.5"},
		{`return math.max(1, 7, 3) + math.min(4, 2, 8)`, "9"},
		{`return max(max(1, 2), max(3, 0)), min(min(5, 6), min(7, 4))`, "3,4"},
		// Multiple assignment evaluates every value before any store.
		{`local a, b = 1, 2 a, b = b, a return a, b`, "2,1"},
		// The generic for passes its state and control through the stack.
		{`local s = 0 for i, v in ipairs({5, 6, 7}) do s = s + i * v end return s`, "38"},
		{`local n = 0 for k, v in pairs({x = 1, y = 2}) do n = n + v end return n`, "3"},
		// A return from inside loops and nested calls.
		{`local function find(t, x)
		    for i = 1, #t do if t[i] == x then return i, t[i] end end
		    return nil
		  end
		  return find({4, 5, 6}, 5), find({1}, 9)`, "2,nil"},
	} {
		vm := NewVM()
		vals, err := vm.Eval("t", c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got := show(vals); got != c.want {
			t.Errorf("%s\n  = %q, want %q", c.src, got, c.want)
		}
		if len(vm.stack) != 0 {
			t.Errorf("%s: %d values left on the stack", c.src, len(vm.stack))
		}
	}
}

// TestCallPathUnwindsAfterErrors: a runtime error or budget exhaustion in
// the middle of an argument list leaves values on the stack; the next Run
// must start clean.
func TestCallPathUnwindsAfterErrors(t *testing.T) {
	vm := NewVM()
	clean := func() {
		t.Helper()
		if len(vm.stack) != 0 {
			t.Fatalf("%d values left on the stack", len(vm.stack))
		}
		vals, err := vm.Eval("clean", `local a, b = assert(2, 3) return max(a, b), min(a, b)`)
		if err != nil {
			t.Fatal(err)
		}
		if got := show(vals); got != "3,2" {
			t.Fatalf("a clean run after a failure returned %q, want 3,2", got)
		}
	}
	if _, err := vm.Eval("err", `local function f(a, b, c) return a end return f(1, f(2, 3, nil + 1), 4)`); err == nil ||
		!strings.Contains(err.Error(), "arithmetic on a nil value") {
		t.Fatalf("error = %v", err)
	}
	clean()

	vm.MaxSteps = 200
	_, err := vm.Eval("budget", `local function spin() while true do end end return max(1, 2, min(3, spin()))`)
	if err == nil || !strings.Contains(err.Error(), ErrBudget) {
		t.Fatalf("error = %v, want the budget error", err)
	}
	vm.MaxSteps = 10_000
	clean()

	// A call of a missing builtin deep in an argument list.
	_, err = vm.Eval("nil-call", `return max(1, assert(2, min(3, nosuchfn(4, 5))))`)
	if err == nil || !strings.Contains(err.Error(), "attempt to call global 'nosuchfn' (a nil value)") {
		t.Fatalf("error = %v, want the nil-call error", err)
	}
	clean()
}

// TestRunResultsDoNotAlias: Run's result slice belongs to the caller. A
// later Run, RunFirst, or a write into the slice must not reach another.
func TestRunResultsDoNotAlias(t *testing.T) {
	vm := NewVM()
	c, err := Compile("c", `return assert(x, x + 1), max(x, 0)`)
	if err != nil {
		t.Fatal(err)
	}
	vm.Globals.SetString("x", 1.0)
	first, err := vm.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	vm.Globals.SetString("x", 5.0)
	second, err := vm.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := vm.RunFirst(c); err != nil || !ok || v != 5.0 {
		t.Fatalf("RunFirst = %v %v %v", v, ok, err)
	}
	second[0] = "scribbled"
	third, err := vm.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := show(first); got != "1,1" {
		t.Errorf("first run's results became %q, want 1,1", got)
	}
	if got := show(third); got != "5,5" {
		t.Errorf("third run's results are %q, want 5,5", got)
	}
}

// TestRunFirst: the first value and whether there was one, with nil and
// nothing told apart.
func TestRunFirst(t *testing.T) {
	vm := NewVM()
	for _, c := range []struct {
		src  string
		want Value
		ok   bool
	}{
		{`return 7, 8`, 7.0, true},
		{`return nil`, nil, true},
		{`return`, nil, false},
		{`local a = 1`, nil, false},
		{`local function none() end return none()`, nil, false},
		{`local function two() return nil, 1 end return two()`, nil, true},
		{`return "s"`, "s", true},
	} {
		chunk, err := Compile("t", c.src)
		if err != nil {
			t.Fatal(err)
		}
		v, ok, err := vm.RunFirst(chunk)
		if err != nil || v != c.want || ok != c.ok {
			t.Errorf("RunFirst(%s) = %v %v %v, want %v %v", c.src, v, ok, err, c.want, c.ok)
		}
	}
}

// TestRootScopeReuse: a chunk without closures runs in one reused root
// scope; a chunk that makes closures gets a fresh one per run, and a run
// nested inside another (a builtin calling Run) must not reset the outer
// run's locals.
func TestRootScopeReuse(t *testing.T) {
	vm := NewVM()
	vm.Globals.SetString("fns", NewTable())
	mk, err := Compile("mk", `local count = 0 fns[#fns + 1] = function() count = count + 1 return count end`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := vm.Run(mk); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := vm.Eval("use", `return fns[1](), fns[1](), fns[2]()`)
	if err != nil {
		t.Fatal(err)
	}
	if got := show(vals); got != "1,2,1" {
		t.Fatalf("closures over two runs' locals = %q, want 1,2,1 (separate scopes)", got)
	}

	inner, err := Compile("inner", `local a = 7 local b = a * 2 return b`)
	if err != nil {
		t.Fatal(err)
	}
	vm.Globals.SetString("nested", GoFunc(func([]Value) ([]Value, error) {
		vals, err := vm.Run(inner)
		return vals, err
	}))
	vals, err = vm.Eval("outer", `local a, b = 5, 6 local n = nested() return a, b, n`)
	if err != nil {
		t.Fatal(err)
	}
	if got := show(vals); got != "5,6,14" {
		t.Fatalf("outer locals after a nested run = %q, want 5,6,14", got)
	}
	loop, err := Compile("loop", `local s = 0 for i = 1, 3 do local d = i * 2 s = s + d end return s`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if v, _, err := vm.RunFirst(loop); err != nil || v != 12.0 {
			t.Fatalf("run %d of a reused-scope chunk = %v, %v", i, v, err)
		}
	}
}

// TestCallPathAllocs pins the hook shapes the balancer runs per rank and per
// tick: indexing with string keys, calls to max and min (one the trailing
// argument of the other), a global store and a first-value run. Once the
// VM's stack and root scope exist, scoring one rank allocates nothing, and a
// loop over the ranks allocates only its loop scope, however many passes it
// makes. Boxing each string literal, a slice per call and per max/min
// result, and a scope and a result slice per run made three objects to
// score a rank and eleven per loop pass.
func TestCallPathAllocs(t *testing.T) {
	allocs := func(ranks int, src string) float64 {
		vm := NewVM()
		mdss := NewTable()
		for i := 1; i <= ranks; i++ {
			m := NewTable()
			m.SetString("load", Box(float64(i%7)+0.5))
			mdss.SetInt(i, m)
		}
		vm.Globals.SetString("MDSs", mdss)
		vm.Globals.SetString("i", 3.0)
		c, err := CompileExprOrChunk("hook", src)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, _, err := vm.RunFirst(c); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(100, run)
	}
	if got := allocs(64, `MDSs[i]["load"]`); got != 0 {
		t.Errorf("scoring one rank made %.0f allocations, want 0", got)
	}
	const biggest = `
local top = 0
for i = 1, #MDSs do
  top = max(top, min(MDSs[i]["load"], 1000))
end
biggest = top
return top`
	few, many := allocs(8, biggest), allocs(64, biggest)
	if few != many || many > 4 {
		t.Errorf("the max loop made %.0f allocations over 8 ranks and %.0f over 64, want the same, at most 4 (its loop scope)", few, many)
	}
}
