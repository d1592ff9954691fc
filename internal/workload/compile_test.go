package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"mantle/internal/mds"
)

// compileOracle is Compile as it was before paths were built once: an
// append-grown op slice and a fmt.Sprintf per path use. It survives only
// here, as the reference the optimised generator must match op for op.
func compileOracle(cfg CompileConfig) []Op {
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
	var ops []Op
	phase := PhaseUntar
	add := func(t mds.OpType, p string) { ops = append(ops, Op{Type: t, Path: p, Phase: phase}) }
	hot := map[string]bool{}
	for _, d := range cfg.HotDirs {
		hot[d] = true
	}
	if !cfg.SkipUntar {
		add(mds.OpMkdir, cfg.Root)
		add(mds.OpMkdir, cfg.Root+"/"+cfg.HeaderDir)
		for h := 0; h < cfg.HeaderFiles; h++ {
			add(mds.OpCreate, fmt.Sprintf("%s/%s/hdr%04d.h", cfg.Root, cfg.HeaderDir, h))
		}
		for _, d := range cfg.Dirs {
			add(mds.OpMkdir, cfg.Root+"/"+d)
			for f := 0; f < cfg.FilesPerDir; f++ {
				add(mds.OpCreate, fmt.Sprintf("%s/%s/src%04d.c", cfg.Root, d, f))
			}
		}
	}
	phase = PhaseCompile
	for _, d := range cfg.Dirs {
		for f := 0; f < cfg.FilesPerDir; f++ {
			src := fmt.Sprintf("%s/%s/src%04d.c", cfg.Root, d, f)
			if hot[d] {
				add(mds.OpOpen, src)
				for h := 0; h < 2; h++ {
					add(mds.OpGetattr, fmt.Sprintf("%s/%s/hdr%04d.h",
						cfg.Root, cfg.HeaderDir, rng.Intn(cfg.HeaderFiles)))
				}
				add(mds.OpCreate, fmt.Sprintf("%s/%s/src%04d.o", cfg.Root, d, f))
			} else {
				add(mds.OpGetattr, src)
			}
		}
	}
	phase = PhaseLink
	for pass := 0; pass < cfg.LinkPasses; pass++ {
		for _, d := range cfg.Dirs {
			add(mds.OpReaddir, cfg.Root+"/"+d)
			if hot[d] {
				for s := 0; s < 10; s++ {
					add(mds.OpGetattr, fmt.Sprintf("%s/%s/src%04d.o",
						cfg.Root, d, rng.Intn(cfg.FilesPerDir)))
				}
			}
		}
	}
	add(mds.OpCreate, cfg.Root+"/vmlinux")
	return ops
}

// TestCompileMatchesSprintfOracle: the exactly-sized, build-each-path-once
// Compile returns the oracle's ops, in order, with the same rng draws, and
// no slack capacity.
func TestCompileMatchesSprintfOracle(t *testing.T) {
	cases := []struct {
		name string
		cfg  CompileConfig
	}{
		{"default", CompileConfig{Root: "/src", Seed: 1}},
		{"benchmark-shape", CompileConfig{Root: "/src3", FilesPerDir: 400, HeaderFiles: 200, Seed: 4}},
		{"skip-untar", CompileConfig{Root: "/s", FilesPerDir: 30, HeaderFiles: 7, SkipUntar: true, Seed: 2}},
		{"duplicate-dirs", CompileConfig{Root: "/d", Dirs: []string{"fs", "lib", "fs", "fs"}, FilesPerDir: 12, Seed: 3}},
		{"hot-outside-dirs", CompileConfig{Root: "/h", Dirs: []string{"a", "b"}, HotDirs: []string{"b", "zz"}, FilesPerDir: 9, LinkPasses: 2, Seed: 5}},
		{"five-digit", CompileConfig{Root: "/w", Dirs: []string{"mm", "net"}, FilesPerDir: 10005, HeaderFiles: 10002, LinkPasses: 1, Seed: 6}},
		{"one-header", CompileConfig{Root: "/o", FilesPerDir: 5, HeaderFiles: 1, HeaderDir: "inc", Seed: 7}},
		{"no-hot", CompileConfig{Root: "/n", Dirs: []string{"x", "y"}, HotDirs: []string{"q"}, FilesPerDir: 4, Seed: 8}},
	}
	for _, tc := range cases {
		want := compileOracle(tc.cfg)
		got := Compile(tc.cfg).(*SliceGen).Ops
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Fatalf("%s: op %d = %+v, oracle %+v (len %d vs %d)", tc.name, i, got[i], want[min(i, len(want)-1)], len(got), len(want))
				}
			}
			t.Fatalf("%s: %d ops, oracle %d", tc.name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: op slice cap %d for %d ops", tc.name, cap(got), len(got))
		}
	}
}

// TestCompileBuildsEachPathOnce: every op naming the same path shares one
// string. Pinned by counting distinct backing arrays against distinct
// path values on the benchmark's client shape.
func TestCompileBuildsEachPathOnce(t *testing.T) {
	ops := Compile(CompileConfig{Root: "/src0", FilesPerDir: 400, HeaderFiles: 200, Seed: 1}).(*SliceGen).Ops
	values := map[string]bool{}
	arrays := map[*byte]bool{}
	for _, op := range ops {
		values[op.Path] = true
		arrays[unsafe.StringData(op.Path)] = true
	}
	if len(arrays) != len(values) {
		t.Fatalf("%d distinct paths held in %d strings", len(values), len(arrays))
	}
}
