package lua

import (
	"testing"
)

// These tests pin down the semantics the interpreter's allocation
// optimisations must preserve: loop scopes are reused only when no closure
// can observe them, number interning never changes results, and scope
// elision never breaks shadowing.

// TestClosuresCapturePerIteration is the guard for loop-scope reuse: when a
// loop body creates closures, every iteration must get a fresh loop
// variable, exactly as Lua defines it.
func TestClosuresCapturePerIteration(t *testing.T) {
	vm := NewVM()
	vals, err := vm.Eval("t", `
		local fns = {}
		for i = 1, 3 do
			fns[i] = function() return i end
		end
		return fns[1]() + fns[2]()*10 + fns[3]()*100`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := Number(vals[0]); n != 321 {
		t.Fatalf("captured loop vars = %v, want 321 (per-iteration capture)", vals[0])
	}
}

// TestClosuresCaptureBodyLocals does the same for a local declared in the
// body of a while loop.
func TestClosuresCaptureBodyLocals(t *testing.T) {
	vm := NewVM()
	vals, err := vm.Eval("t", `
		local fns = {}
		local i = 0
		while i < 3 do
			i = i + 1
			local v = i * 10
			fns[i] = function() return v end
		end
		return fns[1]() + fns[2]() + fns[3]()`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := Number(vals[0]); n != 60 {
		t.Fatalf("captured body locals sum = %v, want 60", vals[0])
	}
}

// TestGenForClosureCapture covers the generic-for loop's names.
func TestGenForClosureCapture(t *testing.T) {
	vm := NewVM()
	vals, err := vm.Eval("t", `
		local fns = {}
		for k, v in ipairs({5, 6, 7}) do
			fns[k] = function() return v end
		end
		return fns[1]() + fns[2]() + fns[3]()`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := Number(vals[0]); n != 18 {
		t.Fatalf("genfor capture sum = %v, want 18", vals[0])
	}
}

// TestLoopScopeReuseIsolation: without closures, reused loop scopes must not
// leak one iteration's locals into the next.
func TestLoopScopeReuseIsolation(t *testing.T) {
	vm := NewVM()
	vals, err := vm.Eval("t", `
		local leaks = 0
		for i = 1, 4 do
			if x ~= nil then leaks = leaks + 1 end
			local x = i
			if x ~= i then leaks = leaks + 100 end
		end
		return leaks`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := Number(vals[0]); n != 0 {
		t.Fatalf("leaks = %v, want 0", vals[0])
	}
}

// TestShadowingInOneBlock: redeclaring a local in the same block shadows
// it. This interpreter resolves names at call time (the map-based scope did
// the same), so a closure created before the redeclaration also observes
// the newer variable — the slice-based scope must preserve exactly that.
func TestShadowingInOneBlock(t *testing.T) {
	vm := NewVM()
	vals, err := vm.Eval("t", `
		local x = 1
		local f = function() return x end
		local x = 2
		return x + f()*10`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := Number(vals[0]); n != 22 {
		t.Fatalf("shadowing result = %v, want 22", vals[0])
	}
}

// TestRepeatSeesBodyLocals: the until condition evaluates in the body scope
// even when that scope is reused.
func TestRepeatSeesBodyLocals(t *testing.T) {
	vm := NewVM()
	vals, err := vm.Eval("t", `
		local n = 0
		repeat
			n = n + 1
			local done = n >= 3
		until done
		return n`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := Number(vals[0]); n != 3 {
		t.Fatalf("repeat ran %v times, want 3", vals[0])
	}
}

// TestBoxInterning: interned and non-interned numbers must be
// indistinguishable to scripts.
func TestBoxInterning(t *testing.T) {
	if Box(7).(float64) != 7 {
		t.Fatal("Box(7) != 7")
	}
	if Box(7) != Box(7) {
		t.Fatal("small ints not interned")
	}
	if Box(1e9).(float64) != 1e9 {
		t.Fatal("large numbers mangled")
	}
	if Box(-1).(float64) != -1 {
		t.Fatal("negatives mangled")
	}
	if Box(2.5).(float64) != 2.5 {
		t.Fatal("fractions mangled")
	}
	vm := NewVM()
	vals, err := vm.Eval("t", `return 2 + 3 == 5, 0.5 + 0.5 == 1, tostring(12), -(0/(0-1))`)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != true || vals[1] != true {
		t.Fatalf("interned arithmetic broke equality: %v", vals)
	}
	if vals[2] != "12" {
		t.Fatalf("tostring(12) = %v", vals[2])
	}
}

// TestTableReset: a reset table is empty but keeps working.
func TestTableReset(t *testing.T) {
	tab := NewTable()
	tab.SetInt(1, 10.0)
	tab.SetInt(2, 20.0)
	tab.SetString("k", "v")
	tab.Reset()
	if tab.Len() != 0 || tab.NumEntries() != 0 {
		t.Fatalf("reset table has %d entries", tab.NumEntries())
	}
	if tab.GetInt(1) != nil || tab.GetString("k") != nil {
		t.Fatal("reset table still returns old values")
	}
	tab.SetInt(1, 99.0)
	if n, _ := Number(tab.GetInt(1)); n != 99 {
		t.Fatal("reset table rejects new values")
	}
}

// TestScopeEliminationKeepsAssignmentTargets: an if-block without locals
// runs in the enclosing scope; assignments inside must still find the outer
// local (not create a global).
func TestScopeEliminationKeepsAssignmentTargets(t *testing.T) {
	vm := NewVM()
	vals, err := vm.Eval("t", `
		local acc = 0
		if true then
			acc = acc + 5
		end
		do
			acc = acc + 2
		end
		return acc, accglobal`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := Number(vals[0]); n != 7 {
		t.Fatalf("acc = %v, want 7", vals[0])
	}
	if vm.Globals.GetString("acc") != nil {
		t.Fatal("local assignment leaked into globals")
	}
}

// TestTableWritesCountsEveryMutation: a host that mirrors Go state into a
// table trusts Writes to reveal any store it did not make itself, so every
// way a script or the Go API can change a table must move the count — and
// reading must not.
func TestTableWritesCountsEveryMutation(t *testing.T) {
	vm := NewVM()
	tab := NewTable()
	tab.SetInt(1, 3.0)
	tab.SetInt(2, 1.0)
	tab.SetInt(3, 2.0)
	vm.Globals.SetString("t", tab)
	for _, src := range []string{
		`t.k = 1`,                 // hash store
		`t.k = nil`,               // hash delete
		`t[2] = 9`,                // array store
		`t[#t + 1] = 4`,           // array append
		`t[#t] = nil`,             // array shrink
		`t[1], t.m = 5, 6`,        // multiple assignment
		`function t.f() end`,      // function definition
		`local u = t; u["x"] = 2`, // through an alias
		`local function put(u) u[1] = 7 end put(t)`,                // through an argument
		`for k in pairs(t) do if k == "x" then t[k] = nil end end`, // during a walk
	} {
		before := tab.Writes()
		if _, err := vm.Eval("w", src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if tab.Writes() == before {
			t.Errorf("%s left Writes at %d", src, before)
		}
	}
	before := tab.Writes()
	tab.Reset()
	if tab.Writes() == before {
		t.Error("Reset left Writes unchanged")
	}
	tab.SetInt(1, 1.0)
	before = tab.Writes()
	if _, err := vm.Eval("r", `local a = t[1] + #t; for k, v in pairs(t) do a = a + v end; return a`); err != nil {
		t.Fatal(err)
	}
	if tab.Writes() != before {
		t.Error("reading a table moved Writes")
	}
}
