package workload

import (
	"strings"
	"testing"
	"unsafe"

	"mantle/internal/mds"
)

func drain(g Generator) []Op {
	var out []Op
	for {
		op, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, op)
	}
}

func TestSliceGen(t *testing.T) {
	g := &SliceGen{Ops: []Op{{Type: mds.OpMkdir, Path: "/a"}, {Type: mds.OpCreate, Path: "/a/f"}}}
	if g.Remaining() != 2 {
		t.Fatalf("remaining = %d", g.Remaining())
	}
	ops := drain(g)
	if len(ops) != 2 || ops[1].Path != "/a/f" {
		t.Fatalf("ops = %v", ops)
	}
	if _, ok := g.Next(); ok {
		t.Fatal("exhausted generator yielded")
	}
}

func TestConcat(t *testing.T) {
	a := &SliceGen{Ops: []Op{{Type: mds.OpMkdir, Path: "/a"}}}
	b := &SliceGen{Ops: []Op{{Type: mds.OpMkdir, Path: "/b"}, {Type: mds.OpMkdir, Path: "/c"}}}
	ops := drain(&Concat{Gens: []Generator{a, b}})
	if len(ops) != 3 || ops[2].Path != "/c" {
		t.Fatalf("ops = %v", ops)
	}
}

func TestCreatesBasic(t *testing.T) {
	ops := drain(Creates(CreateConfig{Dir: "/d", Files: 3, Prefix: "f", Mkdir: true}))
	if len(ops) != 4 {
		t.Fatalf("ops = %d", len(ops))
	}
	if ops[0].Type != mds.OpMkdir || ops[0].Path != "/d" {
		t.Fatalf("first = %+v", ops[0])
	}
	for i := 1; i < 4; i++ {
		if ops[i].Type != mds.OpCreate || !strings.HasPrefix(ops[i].Path, "/d/f") {
			t.Fatalf("op %d = %+v", i, ops[i])
		}
	}
	// Names are unique.
	seen := map[string]bool{}
	for _, op := range ops[1:] {
		if seen[op.Path] {
			t.Fatalf("duplicate %s", op.Path)
		}
		seen[op.Path] = true
	}
}

func TestCreatesStatEvery(t *testing.T) {
	ops := drain(Creates(CreateConfig{Dir: "/d", Files: 10, Prefix: "f", StatEvery: 3}))
	stats := 0
	for _, op := range ops {
		if op.Type == mds.OpGetattr {
			stats++
		}
	}
	if stats != 3 {
		t.Fatalf("stats = %d, want 3", stats)
	}
	if len(ops) != 13 {
		t.Fatalf("total = %d", len(ops))
	}
}

func TestSeparateAndSharedDirCreates(t *testing.T) {
	sep := drain(SeparateDirCreates("", 2, 5))
	if sep[0].Path != "/client2" || sep[0].Type != mds.OpMkdir {
		t.Fatalf("sep[0] = %+v", sep[0])
	}
	sh0 := drain(SharedDirCreates("/shared", 0, 5))
	sh1 := drain(SharedDirCreates("/shared", 1, 5))
	if sh0[0].Type != mds.OpMkdir {
		t.Fatal("client 0 must mkdir")
	}
	if sh1[0].Type == mds.OpMkdir {
		t.Fatal("client 1 must not mkdir")
	}
	// Different clients never collide on names.
	names := map[string]bool{}
	for _, op := range append(sh0[1:], sh1...) {
		if names[op.Path] {
			t.Fatalf("collision on %s", op.Path)
		}
		names[op.Path] = true
	}
}

func TestCompilePhases(t *testing.T) {
	cfg := CompileConfig{Root: "/src", FilesPerDir: 10, HeaderFiles: 5, LinkPasses: 2, Seed: 1}
	ops := drain(Compile(cfg))
	counts := map[mds.OpType]int{}
	for _, op := range ops {
		counts[op.Type]++
		if !strings.HasPrefix(op.Path, "/src") {
			t.Fatalf("path escaped root: %s", op.Path)
		}
	}
	// Untar: root + include + 5 headers + 10 dirs × (1 + 10 files).
	wantMkdir := 2 + 10
	if counts[mds.OpMkdir] != wantMkdir {
		t.Fatalf("mkdirs = %d, want %d", counts[mds.OpMkdir], wantMkdir)
	}
	// Creates: headers(5) + sources(100) + objects(4 hot dirs × 10) + vmlinux.
	wantCreate := 5 + 100 + 40 + 1
	if counts[mds.OpCreate] != wantCreate {
		t.Fatalf("creates = %d, want %d", counts[mds.OpCreate], wantCreate)
	}
	// Opens only on hot files.
	if counts[mds.OpOpen] != 40 {
		t.Fatalf("opens = %d", counts[mds.OpOpen])
	}
	// Readdirs in the link phase: 2 passes × 10 dirs.
	if counts[mds.OpReaddir] != 20 {
		t.Fatalf("readdirs = %d", counts[mds.OpReaddir])
	}
}

func TestCompileDeterministicBySeed(t *testing.T) {
	a := drain(DefaultCompile("/s", 7))
	b := drain(DefaultCompile("/s", 7))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs", i)
		}
	}
	c := drain(DefaultCompile("/s", 8))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestUntarAndCompileOnlySplit(t *testing.T) {
	cfg := CompileConfig{Root: "/s", FilesPerDir: 10, HeaderFiles: 5, LinkPasses: 1, Seed: 3}
	untar := drain(Untar(cfg))
	rest := drain(CompileOnly(cfg))
	full := drain(Compile(cfg))
	if len(untar)+len(rest) != len(full) {
		t.Fatalf("untar %d + rest %d != full %d", len(untar), len(rest), len(full))
	}
	// Untar is creates/mkdirs only.
	for _, op := range untar {
		if op.Type != mds.OpCreate && op.Type != mds.OpMkdir {
			t.Fatalf("untar contains %v", op.Type)
		}
	}
	// CompileOnly starts with compile-phase ops, not tree building.
	if rest[0].Type == mds.OpMkdir {
		t.Fatal("compile-only phase starts with mkdir")
	}
}

func TestFlashCrowd(t *testing.T) {
	ops := drain(FlashCrowd(FlashCrowdConfig{Dir: "/hot", Files: 100, Bursts: 50, Seed: 2}))
	if len(ops) != 50 {
		t.Fatalf("ops = %d", len(ops))
	}
	readdirs := 0
	for _, op := range ops {
		switch op.Type {
		case mds.OpReaddir:
			readdirs++
			if op.Path != "/hot" {
				t.Fatalf("readdir path = %s", op.Path)
			}
		case mds.OpGetattr:
			if !strings.HasPrefix(op.Path, "/hot/f") {
				t.Fatalf("getattr path = %s", op.Path)
			}
		default:
			t.Fatalf("unexpected op %v", op.Type)
		}
	}
	if readdirs != 10 {
		t.Fatalf("readdirs = %d", readdirs)
	}
}

func TestFuncGen(t *testing.T) {
	n := 0
	g := FuncGen(func() (Op, bool) {
		if n >= 2 {
			return Op{}, false
		}
		n++
		return Op{Type: mds.OpGetattr, Path: "/x"}, true
	})
	if len(drain(g)) != 2 {
		t.Fatal("funcgen")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	orig := drain(Compile(CompileConfig{Root: "/s", FilesPerDir: 5, HeaderFiles: 3, LinkPasses: 1, Seed: 9}))
	var buf strings.Builder
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	gen, err := ParseTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	replayed := drain(gen)
	if len(replayed) != len(orig) {
		t.Fatalf("len %d vs %d", len(replayed), len(orig))
	}
	for i := range orig {
		if orig[i] != replayed[i] {
			t.Fatalf("op %d: %+v vs %+v", i, orig[i], replayed[i])
		}
	}
}

// featureTrace exercises comments, blank lines, case-insensitive op names
// and a two-path op.
const featureTrace = `
# a comment

mkdir /a
CREATE /a/f
rename /a/f /a/g
readdir /a
`

// badTraces each fail to parse.
var badTraces = []string{
	"explode /a",          // unknown op
	"create",              // missing path
	"rename /a",           // missing dst
	"create relative",     // non-absolute
	"rename /a /b /extra", // too many args
	"create /a\x00b",      // a NUL would split a rename's joined path
	"rename /a /b\x00c",
}

func TestParseTraceFeatures(t *testing.T) {
	gen, err := ParseTrace(strings.NewReader(featureTrace))
	if err != nil {
		t.Fatal(err)
	}
	ops := drain(gen)
	if len(ops) != 4 {
		t.Fatalf("ops = %d", len(ops))
	}
	if ops[1].Type != mds.OpCreate { // case-insensitive op names
		t.Fatalf("op1 = %v", ops[1].Type)
	}
	if ops[2] != Rename("/a/f", "/a/g") || ops[2].Src() != "/a/f" || ops[2].Dst() != "/a/g" {
		t.Fatalf("rename = %+v (src %q, dst %q)", ops[2], ops[2].Src(), ops[2].Dst())
	}
	if ops[3].Src() != "/a" || ops[3].Dst() != "" {
		t.Fatalf("readdir src %q, dst %q", ops[3].Src(), ops[3].Dst())
	}
}

func TestParseTraceErrors(t *testing.T) {
	for _, src := range badTraces {
		if _, err := ParseTrace(strings.NewReader(src)); err == nil {
			t.Errorf("ParseTrace(%q) succeeded, want error", src)
		}
	}
}

// TestOpSizePinned holds an op at 24 bytes: the one-byte Phase rides in the
// padding after Type, and a rename's destination rides in Path (40 bytes
// while it had a DstPath that every other op left empty). A compile job
// retains every op it will issue, so a wider op is paid for per op. Re-pin
// down only.
func TestOpSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Op{}) = %d, want 24", got)
	}
}

// TestParseTraceRefusesNUL: a NUL inside a path is refused with the line it
// is on, since it would split a rename's joined path in the wrong place.
func TestParseTraceRefusesNUL(t *testing.T) {
	for _, line := range []string{"create /a\x00b", "rename /a\x00b /c", "rename /a /c\x00"} {
		_, err := ParseTrace(strings.NewReader("mkdir /a\n" + line + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2:") || !strings.Contains(err.Error(), "NUL") {
			t.Errorf("%q: err = %v, want a NUL refused on line 2", line, err)
		}
	}
}

// TestParseTracePhases: every phase in the closed set survives a trace
// round trip under its name, and any other name is refused with the line it
// is on.
func TestParseTracePhases(t *testing.T) {
	var ops []Op
	for p := PhaseNone; p < numPhases; p++ {
		ops = append(ops, Op{Type: mds.OpMkdir, Path: "/" + p.String(), Phase: p})
	}
	var b strings.Builder
	if err := WriteTrace(&b, ops); err != nil {
		t.Fatal(err)
	}
	gen, err := ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	for i, op := range drain(gen) {
		if op != ops[i] {
			t.Errorf("op %d = %+v, want %+v", i, op, ops[i])
		}
	}
	if got := PhaseLink.String(); got != "link" {
		t.Errorf("PhaseLink.String() = %q", got)
	}
	for _, bad := range []string{"#phase linker", "#phase Link", "#phaseless", "#phase link hot"} {
		_, err := ParseTrace(strings.NewReader("mkdir /a\n" + bad + "\ncreate /a/f\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2: unknown phase") {
			t.Errorf("%q: err = %v, want an unknown phase on line 2", bad, err)
		}
	}
}

func TestRecordCapturesOps(t *testing.T) {
	rec := &Record{Inner: SeparateDirCreates("", 0, 3)}
	out := drain(rec)
	if len(rec.Ops) != len(out) || len(out) != 4 {
		t.Fatalf("recorded %d, yielded %d", len(rec.Ops), len(out))
	}
	for i := range out {
		if rec.Ops[i] != out[i] {
			t.Fatal("recorded ops diverge")
		}
	}
}

func TestChurnShape(t *testing.T) {
	ops := drain(Churn(ChurnConfig{Dir: "/c", Files: 30, Rounds: 2, Prefix: "f", Seed: 5}))
	counts := map[mds.OpType]int{}
	for _, op := range ops {
		counts[op.Type]++
	}
	if counts[mds.OpMkdir] != 1 || counts[mds.OpCreate] != 30 || counts[mds.OpUnlink] != 30 {
		t.Fatalf("counts = %v", counts)
	}
	if counts[mds.OpRename]+counts[mds.OpSetattr]+counts[mds.OpGetattr] != 60 {
		t.Fatalf("churn rounds wrong: %v", counts)
	}
	if len(ops) != 1+30+60+30 {
		t.Fatalf("total = %d", len(ops))
	}
	// Renames chain correctly: dst of one generation is src of the next,
	// and the unlinks at the end take exactly the last generation.
	live := map[string]bool{}
	for _, op := range ops[1:] {
		switch op.Type {
		case mds.OpCreate:
			live[op.Path] = true
		case mds.OpRename:
			if !live[op.Src()] || live[op.Dst()] {
				t.Fatalf("rename %q -> %q does not chain", op.Src(), op.Dst())
			}
			delete(live, op.Src())
			live[op.Dst()] = true
		case mds.OpUnlink:
			if !live[op.Path] {
				t.Fatalf("unlink of %q, which is not live", op.Path)
			}
			delete(live, op.Path)
		default:
			if !live[op.Path] {
				t.Fatalf("%v of %q, which is not live", op.Type, op.Path)
			}
		}
	}
	if len(live) != 0 {
		t.Fatalf("%d files left after the unlinks", len(live))
	}
}

func TestChurnDeterministic(t *testing.T) {
	a := drain(Churn(ChurnConfig{Dir: "/c", Files: 10, Rounds: 3, Prefix: "f", Seed: 9}))
	b := drain(Churn(ChurnConfig{Dir: "/c", Files: 10, Rounds: 3, Prefix: "f", Seed: 9}))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic")
		}
	}
}
