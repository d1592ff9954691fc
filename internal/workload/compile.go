package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"mantle/internal/mds"
)

// CompileConfig describes the synthetic compile job modelled on the paper's
// Linux-build workload (Figure 1): an untar phase with sequential creates
// across the tree, a compile phase with hotspots in arch/kernel/fs/mm
// (opens, header getattrs, object-file creates), and a link phase whose
// readdir storm is the flash crowd of Figure 10.
type CompileConfig struct {
	// Root is this client's source tree root (created by the client).
	Root string
	// Dirs are the top-level source directories.
	Dirs []string
	// HotDirs get the compile-phase heat (default arch/kernel/fs/mm).
	HotDirs []string
	// FilesPerDir is how many source files each directory holds.
	FilesPerDir int
	// HeaderDir receives getattr traffic during compilation.
	HeaderDir string
	// HeaderFiles is how many headers exist.
	HeaderFiles int
	// LinkPasses is how many readdir sweeps the link phase performs.
	LinkPasses int
	// Seed drives the deterministic header-access pattern.
	Seed int64
	// SkipUntar starts from an existing tree (for spread-unevenly
	// experiments that untar separately).
	SkipUntar bool
}

// DefaultCompileDirs mirrors a kernel tree's top level.
var DefaultCompileDirs = []string{
	"arch", "kernel", "fs", "mm", "drivers",
	"net", "lib", "crypto", "sound", "scripts",
}

// DefaultHotDirs are the hotspot directories Figure 1 shows.
var DefaultHotDirs = []string{"arch", "kernel", "fs", "mm"}

// DefaultCompile returns the standard compile job under root.
func DefaultCompile(root string, seed int64) Generator {
	return Compile(CompileConfig{Root: root, Seed: seed})
}

// Compile builds the phase-structured generator. The op slice is sized
// exactly up front and every distinct path is formatted once, so a source
// file's untar create and its compile-phase open or getattr share one
// string, as do an object file's create and its link-phase getattrs.
func Compile(cfg CompileConfig) Generator {
	if len(cfg.Dirs) == 0 {
		cfg.Dirs = DefaultCompileDirs
	}
	if len(cfg.HotDirs) == 0 {
		cfg.HotDirs = DefaultHotDirs
	}
	if cfg.FilesPerDir == 0 {
		cfg.FilesPerDir = 300
	}
	if cfg.HeaderDir == "" {
		cfg.HeaderDir = "include"
	}
	if cfg.HeaderFiles == 0 {
		cfg.HeaderFiles = 200
	}
	if cfg.LinkPasses == 0 {
		cfg.LinkPasses = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	hotName := map[string]bool{}
	for _, d := range cfg.HotDirs {
		hotName[d] = true
	}
	nDirs, fpd := len(cfg.Dirs), cfg.FilesPerDir
	hot := make([]bool, nDirs)
	dirs := make([]string, nDirs)
	nHot := 0
	for i, d := range cfg.Dirs {
		hot[i] = hotName[d]
		if hot[i] {
			nHot++
		}
		dirs[i] = cfg.Root + "/" + d
	}

	// Compile: an open, two header getattrs and an object create per hot
	// file, one getattr per cold file. Link: a readdir per directory and
	// ten object getattrs per hot one, each pass. Then the final artifact.
	n := nHot*4*fpd + (nDirs-nHot)*fpd + cfg.LinkPasses*(nDirs+10*nHot) + 1
	if !cfg.SkipUntar {
		n += 2 + cfg.HeaderFiles + nDirs*(1+fpd)
	}
	ops := make([]Op, 0, n)
	phase := PhaseUntar
	add := func(t mds.OpType, p string) { ops = append(ops, Op{Type: t, Path: p, Phase: phase}) }

	hdrDir := cfg.Root + "/" + cfg.HeaderDir
	hdrs := make([]string, cfg.HeaderFiles)
	for h := range hdrs {
		hdrs[h] = numbered(hdrDir, "/hdr", h, ".h")
	}
	srcs := make([][]string, nDirs)
	for i := range srcs {
		srcs[i] = make([]string, fpd)
		for f := range srcs[i] {
			srcs[i][f] = numbered(dirs[i], "/src", f, ".c")
		}
	}

	// Phase 1: untar — sequential creates across the whole tree.
	if !cfg.SkipUntar {
		add(mds.OpMkdir, cfg.Root)
		add(mds.OpMkdir, hdrDir)
		for _, h := range hdrs {
			add(mds.OpCreate, h)
		}
		for i := range dirs {
			add(mds.OpMkdir, dirs[i])
			for _, src := range srcs[i] {
				add(mds.OpCreate, src)
			}
		}
	}

	// Phase 2: compile — hot directories see open + header getattrs +
	// object creates; cold directories only dependency checks.
	phase = PhaseCompile
	objs := make([][]string, nDirs)
	for i := range dirs {
		if hot[i] {
			objs[i] = make([]string, fpd)
		}
		for f, src := range srcs[i] {
			if !hot[i] {
				add(mds.OpGetattr, src)
				continue
			}
			add(mds.OpOpen, src)
			for h := 0; h < 2; h++ {
				add(mds.OpGetattr, hdrs[rng.Intn(cfg.HeaderFiles)])
			}
			objs[i][f] = numbered(dirs[i], "/src", f, ".o")
			add(mds.OpCreate, objs[i][f])
		}
	}

	// Phase 3: link — the readdir flash crowd plus the final artifact.
	phase = PhaseLink
	for pass := 0; pass < cfg.LinkPasses; pass++ {
		for i := range dirs {
			add(mds.OpReaddir, dirs[i])
			if hot[i] {
				// The linker stats a sample of objects.
				for s := 0; s < 10; s++ {
					add(mds.OpGetattr, objs[i][rng.Intn(fpd)])
				}
			}
		}
	}
	add(mds.OpCreate, cfg.Root+"/vmlinux")
	return &SliceGen{Ops: ops}
}

// numbered formats dir+stem+%04d(i)+ext in one allocation.
func numbered(dir, stem string, i int, ext string) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	var b strings.Builder
	b.Grow(len(dir) + len(stem) + max(4, len(d)) + len(ext))
	b.WriteString(dir)
	b.WriteString(stem)
	for pad := len(d); pad < 4; pad++ {
		b.WriteByte('0')
	}
	b.Write(d)
	b.WriteString(ext)
	return b.String()
}

// Untar returns only the tree-creation phase (used to pre-populate trees
// under a different MDS configuration, the paper's "spread unevenly" setup).
func Untar(cfg CompileConfig) Generator {
	c := cfg
	c.SkipUntar = false
	full := Compile(c).(*SliceGen)
	// The untar phase is everything before the first non-create op on an
	// existing file; easiest is to rebuild: count the untar ops.
	n := 0
	if !cfg.SkipUntar {
		n = 2 + orDefault(cfg.HeaderFiles, 200)
		dirs := cfg.Dirs
		if len(dirs) == 0 {
			dirs = DefaultCompileDirs
		}
		fpd := orDefault(cfg.FilesPerDir, 300)
		n += len(dirs) * (1 + fpd)
	}
	return &SliceGen{Ops: full.Ops[:n]}
}

// CompileOnly returns the compile+link phases over an existing tree.
func CompileOnly(cfg CompileConfig) Generator {
	c := cfg
	c.SkipUntar = true
	return Compile(c)
}

func orDefault(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

// FlashCrowdConfig hammers one directory with readdirs and getattrs from
// many clients at once.
type FlashCrowdConfig struct {
	Dir    string
	Files  int // files assumed to exist (for getattr paths)
	Bursts int // ops per client
	Seed   int64
}

// FlashCrowd builds the burst generator.
func FlashCrowd(cfg FlashCrowdConfig) Generator {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var ops []Op
	for i := 0; i < cfg.Bursts; i++ {
		if i%5 == 0 {
			ops = append(ops, Op{Type: mds.OpReaddir, Path: cfg.Dir})
		} else {
			ops = append(ops, Op{Type: mds.OpGetattr,
				Path: fmt.Sprintf("%s/f%07d", cfg.Dir, rng.Intn(cfg.Files))})
		}
	}
	return &SliceGen{Ops: ops}
}
