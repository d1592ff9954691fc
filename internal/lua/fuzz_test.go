package lua_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mantle/internal/core"
	"mantle/internal/lua"
	"mantle/policies"
)

// fuzzSteps is the step budget of a fuzzed run: small, so a looping input
// costs milliseconds.
const fuzzSteps = 5000

// FuzzLuaRun compiles arbitrary source and runs it on a fresh VM with a
// small step budget. Compile and Run must never panic, Run must stop at the
// budget, and a second fresh VM must return the same error text and the
// same scalar results. The corpus starts from every hook of the shipped
// policy files, the paper's Listings and the programs in the package's
// other tests.
func FuzzLuaRun(f *testing.F) {
	for _, src := range luaSeeds(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		chunk, err := lua.Compile("fuzz", src)
		if err != nil {
			return
		}
		first, second := runFresh(t, chunk), runFresh(t, chunk)
		if first != second {
			t.Fatalf("two fresh VMs disagree on %q:\n%s\n%s", src, first, second)
		}
	})
}

// addr masks the pointer in a table's or function's tostring: it names the
// object, not a value, and differs between VMs.
var addr = regexp.MustCompile(`0x[0-9a-f]+`)

// runFresh runs chunk on a new VM and describes the outcome: the error
// text, and each result's type with its value when it is a scalar.
func runFresh(t *testing.T, chunk *lua.Chunk) string {
	t.Helper()
	vm := lua.NewVM()
	vm.MaxSteps = fuzzSteps
	rets, err := vm.Run(chunk)
	if vm.Steps() > fuzzSteps+1 {
		t.Fatalf("ran %d steps on a budget of %d", vm.Steps(), fuzzSteps)
	}
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "error %q\n", addr.ReplaceAllString(err.Error(), "0x"))
	}
	for _, v := range rets {
		switch v.(type) {
		case nil, bool, float64, string:
			fmt.Fprintf(&b, "%s %q\n", lua.TypeOf(v), addr.ReplaceAllString(lua.ToString(v), "0x"))
		default:
			fmt.Fprintf(&b, "%s\n", lua.TypeOf(v))
		}
	}
	return b.String()
}

// luaSeeds collects the seed programs: each hook as written and as an
// expression to return (a bare hook such as `IRD + IWR` compiles only so).
func luaSeeds(tb testing.TB) []string {
	tb.Helper()
	var hooks []string
	addPolicy := func(p core.Policy) {
		hooks = append(hooks, p.MetaLoad, p.MDSLoad, p.When, p.Where, p.HowMuch, p.WhenElastic, p.WhenReplicate)
	}
	files, err := fs.Glob(policies.Files, "*.lua")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no policy files: %v", err)
	}
	for _, name := range files {
		data, err := policies.Files.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		p, err := core.ParsePolicyFile(name, string(data))
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		addPolicy(p)
	}
	// The built-ins as internal/core serves them, which is the path every
	// run takes.
	for _, name := range core.PolicyNames() {
		addPolicy(core.Policies()[name])
	}
	// Every string literal in the other tests: their programs and
	// expressions.
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range tests {
		if name == "fuzz_test.go" {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					hooks = append(hooks, s)
				}
			}
			return true
		})
	}
	var out []string
	for _, h := range hooks {
		if h = strings.TrimSpace(h); h != "" {
			out = append(out, h, "return "+h)
		}
	}
	return out
}
