package namespace

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mantle/internal/sim"
)

// TestResolveCacheHoldsDirectories: resolving 10 000 distinct files in a
// few directories, through the default domain and every rank's view, leaves
// each domain's cache holding directories only, no more of them than the
// tree has.
func TestResolveCacheHoldsDirectories(t *testing.T) {
	ns := New(sim.Second)
	ns.EnableSharding(3)
	const dirs, files = 8, 10000
	var paths []string
	for i := 0; i < files; i++ {
		p := fmt.Sprintf("/top/d%d/sub/f%05d", i%dirs, i)
		if _, err := ns.CreatePath(p, false); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	numDirs := 0
	Walk(ns.Root(), func(n *Node) bool {
		if n.IsDir() {
			numDirs++
		}
		return true
	})
	resolvers := []func(string) (*Node, error){ns.Resolve}
	for i := range ns.domains {
		resolvers = append(resolvers, ns.View(i).Resolve)
	}
	for _, resolve := range resolvers {
		for pass := 0; pass < 2; pass++ { // cold walks, then cache hits
			for _, p := range paths {
				n, err := resolve(p)
				if err != nil || n.IsDir() {
					t.Fatalf("resolve %s: %v, %v", p, n, err)
				}
			}
		}
		if _, err := resolve("/top/d0/sub"); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range append([]*domain{ns.def}, ns.domains...) {
		if len(d.resCache) == 0 || len(d.resCache) > numDirs {
			t.Errorf("domain %d caches %d entries, want 1..%d (the directories)", i, len(d.resCache), numDirs)
		}
		for key, e := range d.resCache {
			if !e.dir.IsDir() || e.dir.Path() != key {
				t.Errorf("domain %d caches %q -> %q (dir %v)", i, key, e.dir.Path(), e.dir.IsDir())
			}
		}
	}
}

// splitWalkResolve is Resolve's walk as it was before it walked in place:
// SplitPath, then one child lookup per component. The oracle for error
// values and text.
func splitWalkResolve(ns *Namespace, path string) (*Node, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return nil, err
	}
	cur := ns.root
	for _, p := range parts {
		if !cur.IsDir() {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, cur.path())
		}
		next, ok := cur.childGet(p)
		if !ok {
			return nil, fmt.Errorf("%w: %s/%s", ErrNotExist, cur.path(), p)
		}
		cur = next
	}
	return cur, nil
}

// splitWalkResolveDirOf is ResolveDirOf's walk before it walked in place.
func splitWalkResolveDirOf(ns *Namespace, path string) (*Node, string, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("%w: cannot take parent of root", ErrInvalidArg)
	}
	cur := ns.root
	for _, p := range parts[:len(parts)-1] {
		next, ok := cur.childGet(p)
		if !ok {
			return nil, "", fmt.Errorf("%w: %s/%s", ErrNotExist, cur.path(), p)
		}
		if !next.IsDir() {
			return nil, "", fmt.Errorf("%w: %s", ErrNotDir, next.path())
		}
		cur = next
	}
	return cur, parts[len(parts)-1], nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestInPlaceWalkMatchesSplitWalk: Resolve and ResolveDirOf answer every
// path — valid, malformed, missing, through a file — with the node, name,
// error value and error text the split walk gave, cold and with the cache
// warmed by the same paths.
func TestInPlaceWalkMatchesSplitWalk(t *testing.T) {
	ns := New(sim.Second)
	for _, p := range []string{"/a/b/c", "/a/e", "/x"} {
		if _, err := ns.CreatePath(p, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/a/b/f", "/a/g", "/h"} {
		if _, err := ns.CreatePath(p, false); err != nil {
			t.Fatal(err)
		}
	}
	paths := []string{
		"", "a", "a/b", "/", "//", "///", "/a", "/a/", "//a", "//a/b", "/a//b",
		"/a/b/", "/a/b//", "/a/./b", "/a/../b", "/.", "/..", "/a/b/.", "/a/b/..",
		"/a/b/c", "/a/b/c/", "/a/b/f", "/a/b/f/x", "/a/b/f/x/y", "/a/g", "/a/g/z",
		"/h", "/h/z", "/missing", "/missing/x", "/missing/./x", "/a/missing/x",
		"/a/b/missing", "/x", "/x/y", "/a/e", "/a/e/", "/a/e/new",
	}
	for pass := 0; pass < 2; pass++ {
		for _, p := range paths {
			n, err := ns.Resolve(p)
			wn, werr := splitWalkResolve(ns, p)
			if n != wn || errText(err) != errText(werr) || unwrapKind(err) != unwrapKind(werr) {
				t.Errorf("pass %d Resolve(%q) = %v, %v; split walk %v, %v", pass, p, n, err, wn, werr)
			}
			d, name, err := ns.ResolveDirOf(p)
			wd, wname, werr := splitWalkResolveDirOf(ns, p)
			if d != wd || name != wname || errText(err) != errText(werr) || unwrapKind(err) != unwrapKind(werr) {
				t.Errorf("pass %d ResolveDirOf(%q) = %v, %q, %v; split walk %v, %q, %v", pass, p, d, name, err, wd, wname, werr)
			}
		}
	}
}

// unwrapKind names which namespace error err wraps.
func unwrapKind(err error) error {
	for _, k := range []error{ErrExist, ErrNotExist, ErrNotDir, ErrIsDir, ErrNotEmpty, ErrInvalidArg} {
		if err != nil && errors.Is(err, k) {
			return k
		}
	}
	return err
}

// TestSubtreeTopConcurrent: rank goroutines read subtree tops, filling the
// authority memos under the read lock, while labels move under the write
// lock; once quiet, every directory's answer equals an ancestor walk.
func TestSubtreeTopConcurrent(t *testing.T) {
	ns := New(sim.Second)
	ns.EnableSharding(4)
	var dirs []*Node
	for _, p := range []string{"/a/b/c/d", "/a/b/e", "/a/f", "/x/y/z"} {
		if _, err := ns.CreatePath(p, true); err != nil {
			t.Fatal(err)
		}
	}
	Walk(ns.Root(), func(n *Node) bool {
		if n.IsDir() && !n.IsRoot() {
			dirs = append(dirs, n)
		}
		return true
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ns.SubtreeTop(dirs[(g+i)%len(dirs)])
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			ns.SetAuthOverride(dirs[i%len(dirs)], Rank(i%3))
		}
	}()
	wg.Wait()
	for _, d := range dirs {
		rank := ns.EffectiveAuth(d)
		top := d
		for p := top.Parent(); p != nil && ns.EffectiveAuth(p) == rank; p = p.Parent() {
			top = p
		}
		if gotPath, gotRank := ns.SubtreeTop(d); gotPath != top.Path() || gotRank != rank {
			t.Errorf("SubtreeTop(%s) = %s, %d; walk gives %s, %d", d.Path(), gotPath, gotRank, top.Path(), rank)
		}
	}
}
