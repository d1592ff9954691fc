package core

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mantle/internal/namespace"
	"mantle/policies"
)

// TestBuiltinsGolden pins the built-ins: `mantle-policy list`, `show` of
// each, and every parametrised variant, against text captured when the
// listings were still Go strings. A variant whose override matches nothing
// panics in the rendering.
func TestBuiltinsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("== mantle-policy list\n")
	for _, n := range PolicyNames() {
		b.WriteString(n + "\n")
	}
	show := func(title string, p Policy) { fmt.Fprintf(&b, "== %s\n%s", title, FormatPolicyFile(p)) }
	for _, n := range PolicyNames() {
		show("mantle-policy show "+n, Policies()[n])
	}
	for _, f := range []float64{0.10, 0.25, 0.50} {
		show(fmt.Sprintf("FillAndSpillPolicyWithFraction(%g)", f), FillAndSpillPolicyWithFraction(f))
	}
	for _, s := range []float64{0.05, 0.25, 1} {
		show(fmt.Sprintf("ConservativePolicy(3000*%g+50)", s), ConservativePolicy(3000*s+50))
	}
	show("CoalescePolicy(50)", CoalescePolicy(50))
	for _, m := range []string{"error", "garbage"} {
		show(fmt.Sprintf("BrokenPolicy(%q)", m), BrokenPolicy(m))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "builtins.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("the built-ins moved from testdata/builtins.golden:\n%s", got)
	}
}

// TestOverrideMissPanics: an override whose text is not in the hook, or is
// in it twice, stops the program instead of shipping the file's value.
func TestOverrideMissPanics(t *testing.T) {
	for _, old := range []string{"myLoad > 99 and", "MDSs"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("override of %q did not panic", old)
				}
			}()
			override(builtin("adaptable_conservative").When, old, "")
		}()
	}
}

// TestShippedPolicyFiles: every file of policies/ parses and passes the
// lint, and each balancer file is byte-identical to `mantle-policy show` of
// itself.
func TestShippedPolicyFiles(t *testing.T) {
	files, err := fs.Glob(policies.Files, "*.lua")
	if err != nil || len(files) != len(policyFiles()) {
		t.Fatalf("%d files, %d parsed: %v", len(files), len(policyFiles()), err)
	}
	for _, f := range files {
		data, err := policies.Files.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(f, ".lua")
		p, rep, err := CheckPolicyFile(name, string(data))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !rep.OK() {
			t.Errorf("%s failed validation:\n%s", f, rep)
		}
		if _, ok := Policies()[name]; ok && FormatPolicyFile(p) != string(data) {
			t.Errorf("%s is not in the form `mantle-policy show` prints", f)
		}
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
	data, err := policies.Files.ReadFile("adaptable.lua")
	if err != nil {
		t.Fatal(err)
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
