package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mantle/internal/namespace"
)

// The policies/ directory ships every built-in policy in injectable file
// form. This test keeps the files parseable, valid, and in sync with the
// in-code definitions.
func TestShippedPolicyFiles(t *testing.T) {
	dir := filepath.Join("..", "..", "policies")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("policies dir unavailable: %v", err)
	}
	builtins := Policies()
	seen := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".lua") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".lua")
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		p, rep, err := CheckPolicyFile(name, string(data))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if !rep.OK() {
			t.Errorf("%s failed validation:\n%s", e.Name(), rep)
		}
		builtin, ok := builtins[name]
		if !ok {
			continue // custom example policies are fine
		}
		seen++
		if strings.TrimSpace(p.When) != strings.TrimSpace(builtin.When) ||
			strings.TrimSpace(p.Where) != strings.TrimSpace(builtin.Where) {
			t.Errorf("%s drifted from the built-in definition; regenerate with `mantle-policy show %s`", e.Name(), name)
		}
	}
	if seen != len(builtins) {
		t.Errorf("policies/ has %d of %d built-ins; regenerate missing ones", seen, len(builtins))
	}
}

// TestCheckNamesAMissingBuiltin: the policy language has no string or table
// library and no print, pcall, select or unpack (docs/POLICIES.md,
// "Builtins"). A policy that uses one fails the lint, and the problem names
// what it used.
func TestCheckNamesAMissingBuiltin(t *testing.T) {
	for _, c := range []struct{ when, name string }{
		{`return string.find("abc", "b") ~= nil`, "index global 'string'"},
		{`local t = {} table.insert(t, 1) return #t > 1`, "index global 'table'"},
		{`print(whoami) return false`, "call global 'print'"},
		{`return pcall(error)`, "call global 'pcall'"},
		{`return select(2, false, true)`, "call global 'select'"},
		{`return unpack({false})`, "call global 'unpack'"},
		{`return math.sign(1) > 0`, "call field 'sign'"},
	} {
		src := "-- policy: missing\n-- [when]\n" + c.when + "\n"
		_, rep, err := CheckPolicyFile("missing", src)
		if err != nil {
			t.Fatalf("%s: %v", c.when, err)
		}
		if rep.OK() || !strings.Contains(rep.String(), c.name+" (a nil value)") {
			t.Errorf("%s: the lint did not name %s:\n%s", c.when, c.name, rep)
		}
	}
}

// TestMetaLoadReadsItsScalarsBeforeATick: metaload's documented environment
// includes whoami, authmetaload and allmetaload, and a rank's first
// heartbeat prices units before any tick has bound them. The shipped
// adaptable policy with whoami added to its metaload must still lint clean.
func TestMetaLoadReadsItsScalarsBeforeATick(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "policies", "adaptable.lua"))
	if err != nil {
		t.Skipf("policies dir unavailable: %v", err)
	}
	src := strings.Replace(string(data), "-- [metaload]\nIWR + IRD\n", "-- [metaload]\nIWR + IRD + whoami + authmetaload + allmetaload\n", 1)
	if src == string(data) {
		t.Fatal("adaptable.lua's metaload is no longer IWR + IRD; update the test")
	}
	_, rep, err := CheckPolicyFile("adaptable", src)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("metaload reading its own scalars failed the lint:\n%s", rep)
	}
	lb, err := NewLuaBalancer(Policy{MetaLoad: "IWR + whoami + authmetaload + allmetaload"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lb.Seed(2)
	if v, err := lb.MetaLoad(namespace.CounterSnapshot{IWR: 4}); err != nil || v != 7 {
		t.Fatalf("seeded rank 2's metaload = %v, %v; want 4 + 3", v, err)
	}
}
