package mds

import (
	"reflect"
	"testing"

	"mantle/internal/namespace"
	"mantle/internal/sim"
)

// hintForWalk is hintFor as it was before Namespace.SubtreeTop: one
// EffectiveAuth lock hold per ancestor up to the top of the same-authority
// subtree. It builds paths from names, not from the path memo, so it does
// not share the state it checks.
func hintForWalk(ns *namespace.Namespace, dir *namespace.Node) Hint {
	rank := ns.EffectiveAuth(dir)
	top := dir
	for p := top.Parent(); p != nil; p = p.Parent() {
		if ns.EffectiveAuth(p) != rank {
			break
		}
		top = p
	}
	h := Hint{DirPath: pathByNames(top), Rank: rank}
	if dir.NumFragLeaves() > 1 {
		split := false
		var fh []FragHint
		for _, f := range dir.FragLeaves() {
			fr := rank
			if fs, ok := dir.FragStateOf(f); ok && fs.Auth() != namespace.RankNone {
				fr = fs.Auth()
			}
			if fr != rank {
				split = true
			}
			fh = append(fh, FragHint{Frag: f, Rank: fr})
		}
		if split {
			h = Hint{DirPath: pathByNames(dir), Rank: rank, Frags: fh}
		}
	}
	return h
}

// pathByNames joins the names from the root down to n.
func pathByNames(n *namespace.Node) string {
	p := ""
	for ; n.Parent() != nil; n = n.Parent() {
		p = "/" + n.Name() + p
	}
	if p == "" {
		return "/"
	}
	return p
}

// TestSubtreeHintMatchesWalk: the hint equals the ancestor walk for every
// directory after each change that can move a subtree's top or its path — a
// label change, a fragment-authority change, a split, a merge, a rename of
// an ancestor and a removal — with the authority and path memos warm before
// each.
func TestSubtreeHintMatchesWalk(t *testing.T) {
	ns := namespace.New(sim.Second)
	for _, p := range []string{"/a/b/c/d", "/a/b/c/gone", "/a/e/f", "/x/y"} {
		if _, err := ns.CreatePath(p, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/a/b/c/d/f1", "/a/e/f/f2", "/x/y/f3"} {
		if _, err := ns.CreatePath(p, false); err != nil {
			t.Fatal(err)
		}
	}
	res := func(p string) *namespace.Node {
		n, err := ns.Resolve(p)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	check := func(step string, extra ...*namespace.Node) {
		t.Helper()
		dirs := extra
		namespace.Walk(ns.Root(), func(n *namespace.Node) bool {
			if n.IsDir() {
				dirs = append(dirs, n)
			}
			return true
		})
		for _, d := range dirs {
			if got, want := hintFor(ns, d), hintForWalk(ns, d); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: hint for %s = %+v, walk gives %+v", step, pathByNames(d), got, want)
			}
		}
	}
	check("initial")
	ns.SetAuthOverride(res("/a/b"), 1)
	check("label /a/b -> 1")
	a := res("/a")
	ns.SetFragAuth(a, namespace.RootFrag, 2)
	check("frag of /a -> 2")
	kids := ns.SplitDir(a, namespace.RootFrag, 1, 0)
	ns.SetFragAuth(a, kids[0], 0)
	check("split /a, one half -> 0")
	ns.SetFragAuth(a, kids[0], 2)
	if !ns.MergeDir(a, namespace.RootFrag, 1, 0) {
		t.Fatal("merge refused")
	}
	check("merge /a")
	if err := ns.Rename(ns.Root(), "a", res("/x"), "z"); err != nil {
		t.Fatal(err)
	}
	check("rename /a -> /x/z")
	if got := hintFor(ns, res("/x/z/b/c/d")).DirPath; got != "/x/z/b" {
		t.Errorf("hint after rename names %s, want /x/z/b", got)
	}
	gone := res("/x/z/b/c/gone")
	if err := ns.Remove(res("/x/z/b/c"), "gone"); err != nil {
		t.Fatal(err)
	}
	check("remove /x/z/b/c/gone", gone)
}
