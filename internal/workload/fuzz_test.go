package workload

import (
	"slices"
	"strings"
	"testing"

	"mantle/internal/mds"
)

// FuzzParseTrace parses arbitrary trace text. Parsing must never panic, and
// whatever parses must survive a round trip: WriteTrace renders the ops and
// parsing that text yields the same ops, phases and renames included. A
// parsed rename must be the one Rename builds from its two paths, neither
// of which holds a NUL. The corpus starts from the package's test traces, a
// rendered compile job, a rendered churn job and a trace that opens, clears
// and glues #phase directives.
func FuzzParseTrace(f *testing.F) {
	var compiled strings.Builder
	job := drain(Compile(CompileConfig{Root: "/s", FilesPerDir: 2, HeaderFiles: 2, LinkPasses: 1, Seed: 9}))
	if err := WriteTrace(&compiled, job); err != nil {
		f.Fatal(err)
	}
	f.Add(compiled.String())
	var churned strings.Builder
	if err := WriteTrace(&churned, drain(Churn(ChurnConfig{Dir: "/c", Files: 4, Rounds: 2, Seed: 3}))); err != nil {
		f.Fatal(err)
	}
	f.Add(churned.String())
	f.Add(featureTrace)
	f.Add("#phase untar\nmkdir /p\n  #phase  \ncreate /p/f\n#phasecompile\nrename /p/f /p/g\n")
	for _, src := range badTraces {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		gen, err := ParseTrace(strings.NewReader(src))
		if err != nil {
			return
		}
		for _, op := range gen.Ops {
			if op.Type != mds.OpRename {
				continue
			}
			src, dst := op.Src(), op.Dst()
			if strings.IndexByte(src, 0) >= 0 || strings.IndexByte(dst, 0) >= 0 {
				t.Fatalf("rename %q -> %q holds a NUL", src, dst)
			}
			if want := Rename(src, dst); op.Path != want.Path {
				t.Fatalf("rename path %q, Rename builds %q", op.Path, want.Path)
			}
		}
		var out strings.Builder
		if err := WriteTrace(&out, gen.Ops); err != nil {
			t.Fatal(err)
		}
		again, err := ParseTrace(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("rendered trace does not parse: %v\n%s", err, out.String())
		}
		if !slices.Equal(gen.Ops, again.Ops) {
			t.Fatalf("round trip changed the ops:\n%+v\n%+v", gen.Ops, again.Ops)
		}
	})
}
