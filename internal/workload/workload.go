// Package workload generates the metadata request streams used in the
// paper's evaluation: create-heavy jobs (separate or shared directories),
// the phase-structured compile job (untar → compile with hotspots → link
// flash crowd), and generic building blocks for custom streams.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"mantle/internal/mds"
)

// Op is one metadata operation to issue. Phase sits beside Type, in what
// would otherwise be padding before Path, and a rename carries its
// destination in Path too, so an op is 24 bytes: TestOpSizePinned holds it
// there.
type Op struct {
	Type mds.OpType
	// Phase tags which workload phase produced the op (PhaseNone for
	// untagged generators). Rate shapers key off it (the link-phase flash
	// crowd).
	Phase Phase
	// Path is the op's target. A rename's is its source and destination
	// joined by a NUL, which no path may contain (build it with Rename,
	// read it with Src and Dst).
	Path string
}

// renameSep joins a rename's source and destination in Op.Path.
const renameSep = "\x00"

// Rename returns the op that renames src to dst.
func Rename(src, dst string) Op {
	return Op{Type: mds.OpRename, Path: src + renameSep + dst}
}

// Src is the path the op acts on: a rename's source, any other op's Path.
func (o Op) Src() string {
	if o.Type != mds.OpRename {
		return o.Path
	}
	src, _, _ := strings.Cut(o.Path, renameSep)
	return src
}

// Dst is a rename's destination, and "" for any other op.
func (o Op) Dst() string {
	if o.Type != mds.OpRename {
		return ""
	}
	_, dst, _ := strings.Cut(o.Path, renameSep)
	return dst
}

// Phase is a workload phase tag. The set is closed: the compile job's three
// phases and the hot-directory scenario's.
type Phase uint8

// Workload phases. The zero value is the untagged phase.
const (
	PhaseNone Phase = iota
	// PhaseUntar, PhaseCompile and PhaseLink are the compile job's phases.
	PhaseUntar
	PhaseCompile
	PhaseLink
	// PhaseHot tags ops the hot-directory scenario aims at the single
	// shared directory (the hotspot-mitigation workload), mirroring the
	// link-phase flash-crowd tagging.
	PhaseHot
	numPhases
)

// phaseNames are the trace names of the phases, indexed by Phase.
var phaseNames = [numPhases]string{"", "untar", "compile", "link", "hot"}

// String returns the phase's trace name ("" for PhaseNone).
func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// parsePhase maps a trace name to its phase; ok is false for a name outside
// the closed set.
func parsePhase(name string) (p Phase, ok bool) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), true
		}
	}
	return 0, false
}

// Generator produces a client's operation stream. Next returns ok=false
// when the stream is exhausted.
type Generator interface {
	Next() (Op, bool)
}

// SliceGen replays a fixed slice of operations.
type SliceGen struct {
	Ops []Op
	i   int
}

// Next implements Generator.
func (s *SliceGen) Next() (Op, bool) {
	if s.i >= len(s.Ops) {
		return Op{}, false
	}
	op := s.Ops[s.i]
	s.i++
	return op, true
}

// Remaining reports how many operations are left.
func (s *SliceGen) Remaining() int { return len(s.Ops) - s.i }

// Concat chains generators in order.
type Concat struct {
	Gens []Generator
	i    int
}

// Next implements Generator.
func (c *Concat) Next() (Op, bool) {
	for c.i < len(c.Gens) {
		op, ok := c.Gens[c.i].Next()
		if ok {
			return op, true
		}
		c.i++
	}
	return Op{}, false
}

// FuncGen adapts a closure to Generator.
type FuncGen func() (Op, bool)

// Next implements Generator.
func (f FuncGen) Next() (Op, bool) { return f() }

// CreateConfig describes a create-heavy job.
type CreateConfig struct {
	// Dir is the directory files are created in.
	Dir string
	// Files is how many files this client creates.
	Files int
	// Prefix distinguishes this client's file names (shared-directory
	// runs must not collide).
	Prefix string
	// Mkdir creates Dir first.
	Mkdir bool
	// StatEvery interleaves a getattr after every N creates (0 = none),
	// approximating the checkpoint-like create workloads that also read
	// attributes.
	StatEvery int
}

// Creates generates a create-intensive stream: optional mkdir, then Files
// creates (with optional interleaved getattrs).
func Creates(cfg CreateConfig) Generator {
	i := 0
	mkdirDone := !cfg.Mkdir
	sinceStat := 0
	var lastPath string
	return FuncGen(func() (Op, bool) {
		if !mkdirDone {
			mkdirDone = true
			return Op{Type: mds.OpMkdir, Path: cfg.Dir}, true
		}
		if cfg.StatEvery > 0 && sinceStat >= cfg.StatEvery && lastPath != "" {
			sinceStat = 0
			return Op{Type: mds.OpGetattr, Path: lastPath}, true
		}
		if i >= cfg.Files {
			return Op{}, false
		}
		lastPath = fmt.Sprintf("%s/%s%07d", cfg.Dir, cfg.Prefix, i)
		i++
		sinceStat++
		return Op{Type: mds.OpCreate, Path: lastPath}, true
	})
}

// SeparateDirCreates is the Figure 4/5 workload: each client creates Files
// files in its own directory under root.
func SeparateDirCreates(root string, client, files int) Generator {
	return Creates(CreateConfig{
		Dir:    fmt.Sprintf("%s/client%d", root, client),
		Files:  files,
		Prefix: "f",
		Mkdir:  true,
	})
}

// SharedDirCreates is the Figure 7 workload: all clients create in the same
// directory (client 0 creates it).
func SharedDirCreates(dir string, client, files int) Generator {
	return Creates(CreateConfig{
		Dir:    dir,
		Files:  files,
		Prefix: fmt.Sprintf("c%d-", client),
		Mkdir:  client == 0,
	})
}

// ChurnConfig describes a metadata churn job: files are created, stat'ed,
// renamed, touched and eventually unlinked — the request mix that exercises
// rename/setattr/unlink paths and dirfrag merging.
type ChurnConfig struct {
	// Dir is the working directory (created first).
	Dir string
	// Files is the number of live files churned.
	Files int
	// Rounds is how many churn passes run after the initial create.
	Rounds int
	// Prefix namespaces this client's files.
	Prefix string
	// Seed drives the deterministic op mix.
	Seed int64
}

// Churn builds the generator: create everything, then per round rename a
// third, setattr a third and stat a third, and finally unlink everything.
func Churn(cfg ChurnConfig) Generator {
	if cfg.Files <= 0 {
		cfg.Files = 100
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	name := func(i, gen int) string {
		return fmt.Sprintf("%s/%s%06d.g%d", cfg.Dir, cfg.Prefix, i, gen)
	}
	var ops []Op
	ops = append(ops, Op{Type: mds.OpMkdir, Path: cfg.Dir})
	gen := make([]int, cfg.Files)
	for i := 0; i < cfg.Files; i++ {
		ops = append(ops, Op{Type: mds.OpCreate, Path: name(i, 0)})
	}
	for r := 0; r < cfg.Rounds; r++ {
		for i := 0; i < cfg.Files; i++ {
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, Rename(name(i, gen[i]), name(i, gen[i]+1)))
				gen[i]++
			case 1:
				ops = append(ops, Op{Type: mds.OpSetattr, Path: name(i, gen[i])})
			default:
				ops = append(ops, Op{Type: mds.OpGetattr, Path: name(i, gen[i])})
			}
		}
	}
	for i := 0; i < cfg.Files; i++ {
		ops = append(ops, Op{Type: mds.OpUnlink, Path: name(i, gen[i])})
	}
	return &SliceGen{Ops: ops}
}
