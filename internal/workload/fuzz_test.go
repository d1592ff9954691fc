package workload

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseTrace parses arbitrary trace text. Parsing must never panic, and
// whatever parses must survive a round trip: WriteTrace renders the ops and
// parsing that text yields the same ops, phases included. The corpus starts
// from the package's test traces, a rendered compile job and a trace that
// opens, clears and glues #phase directives.
func FuzzParseTrace(f *testing.F) {
	var compiled strings.Builder
	job := drain(Compile(CompileConfig{Root: "/s", FilesPerDir: 2, HeaderFiles: 2, LinkPasses: 1, Seed: 9}))
	if err := WriteTrace(&compiled, job); err != nil {
		f.Fatal(err)
	}
	f.Add(compiled.String())
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
