package namespace

import (
	"fmt"
	"reflect"
	"testing"

	"mantle/internal/sim"
)

func buildAuthTree(t *testing.T) (*Namespace, *Node, *Node, *Node) {
	t.Helper()
	ns := New(0)
	a := mustCreate(t, ns, "/a", true)
	b := mustCreate(t, ns, "/a/b", true)
	c := mustCreate(t, ns, "/a/b/c", true)
	return ns, a, b, c
}

func TestAuthInheritsFromRoot(t *testing.T) {
	ns, a, b, c := buildAuthTree(t)
	for _, n := range []*Node{ns.Root(), a, b, c} {
		if got := ns.EffectiveAuth(n); got != 0 {
			t.Fatalf("auth(%s) = %d, want 0", n.Path(), got)
		}
	}
}

func TestAuthOverrideSubtree(t *testing.T) {
	ns, a, b, c := buildAuthTree(t)
	ns.SetAuthOverride(b, 2)
	if ns.EffectiveAuth(a) != 0 {
		t.Fatal("a should stay on 0")
	}
	if ns.EffectiveAuth(b) != 2 || ns.EffectiveAuth(c) != 2 {
		t.Fatal("b subtree should be on 2")
	}
	// A nested override wins for its subtree.
	ns.SetAuthOverride(c, 1)
	if ns.EffectiveAuth(c) != 1 || ns.EffectiveAuth(b) != 2 {
		t.Fatal("nested override wrong")
	}
	// Setting c back to its inherited rank removes the bound.
	ns.SetAuthOverride(c, 2)
	if c.AuthOverride() != RankNone {
		t.Fatal("coalescing override not cleared")
	}
	if len(ns.SubtreeRoots(-1)) != 2 { // root + b
		t.Fatalf("bounds = %v", ns.SubtreeRoots(-1))
	}
}

func TestAuthForDentryFragOverride(t *testing.T) {
	ns, _, b, _ := buildAuthTree(t)
	for i := 0; i < 50; i++ {
		mustCreate(t, ns, "/a/b/f"+string(rune('0'+i%10))+string(rune('a'+i/10)), false)
	}
	kids := ns.SplitDir(b, RootFrag, 1, 0)
	ns.SetFragAuth(b, kids[1], 3)
	sawOverride := false
	for _, name := range b.ChildNames() {
		want := Rank(0)
		if kids[1].ContainsName(name) {
			want = 3
			sawOverride = true
		}
		if got := ns.AuthForDentry(b, name); got != want {
			t.Fatalf("auth for %q = %d, want %d", name, got, want)
		}
	}
	if !sawOverride {
		t.Fatal("test tree had no dentry in the overridden frag")
	}
	// A subdirectory whose dentry lives in the overridden frag inherits
	// the frag's auth.
	sub := mustCreate(t, ns, "/a/b/zz-dir", true)
	wantRank := Rank(0)
	if kids[1].ContainsName("zz-dir") {
		wantRank = 3
	}
	if got := ns.EffectiveAuth(sub); got != wantRank {
		t.Fatalf("subdir auth = %d, want %d", got, wantRank)
	}
}

func TestSetFragAuthClears(t *testing.T) {
	ns, _, b, _ := buildAuthTree(t)
	kids := ns.SplitDir(b, RootFrag, 1, 0)
	ns.SetFragAuth(b, kids[0], 2)
	if len(ns.SubtreeRoots(2)) != 1 {
		t.Fatal("frag bound missing")
	}
	// Setting to the dir's effective rank clears.
	ns.SetFragAuth(b, kids[0], 0)
	if len(ns.SubtreeRoots(2)) != 0 {
		t.Fatal("frag bound not cleared")
	}
	fs, _ := b.FragStateOf(kids[0])
	if fs.Auth() != RankNone {
		t.Fatal("frag auth not cleared")
	}
}

func TestSubtreeRootsSorted(t *testing.T) {
	ns, a, b, _ := buildAuthTree(t)
	ns.SetAuthOverride(b, 1)
	ns.SetAuthOverride(a, 2)
	roots := ns.SubtreeRoots(-1)
	if len(roots) != 3 {
		t.Fatalf("roots = %d", len(roots))
	}
	for i := 1; i < len(roots); i++ {
		if roots[i-1].Path() > roots[i].Path() {
			t.Fatalf("roots not sorted: %v", roots)
		}
	}
	if len(ns.SubtreeRoots(1)) != 1 || ns.SubtreeRoots(1)[0].Dir != b {
		t.Fatal("rank filter broken")
	}
}

// TestSubtreeRootsSizedToRank: a rank's bound list is allocated for the
// rank's own bounds, not the whole index (a quarter of it on four ranks).
func TestSubtreeRootsSizedToRank(t *testing.T) {
	const ranks, bounds = 4, 4096
	ns := New(0)
	for i := 0; i < bounds; i++ {
		ns.SetAuthOverride(mustCreate(t, ns, fmt.Sprintf("/load/d%04d", i), true), Rank(i%ranks))
	}
	total := 0
	for r := Rank(0); r < ranks; r++ {
		roots := ns.SubtreeRoots(r)
		if cap(roots) > 2*len(roots) {
			t.Errorf("rank %d: cap %d for %d roots", r, cap(roots), len(roots))
		}
		total += len(roots)
	}
	// Rank 0's labels restate the root's authority, so only "/" is its
	// bound; every other rank owns a quarter of the index.
	if total != 1+bounds*(ranks-1)/ranks {
		t.Fatalf("per-rank lists sum to %d roots", total)
	}
	if all := ns.SubtreeRoots(-1); len(all) != total {
		t.Fatalf("all ranks: %d roots, per-rank lists sum to %d", len(all), total)
	}
}

func TestFreezeChecks(t *testing.T) {
	ns, _, b, c := buildAuthTree(t)
	mustCreate(t, ns, "/a/b/c/f", false)
	if ns.FrozenFor(c, "f") {
		t.Fatal("nothing frozen yet")
	}
	ns.Freeze(b, true)
	if !ns.FrozenFor(c, "f") {
		t.Fatal("freeze on ancestor should block dentry")
	}
	ns.Freeze(b, false)
	ns.FreezeFrag(c, RootFrag, true)
	if !ns.FrozenFor(c, "f") {
		t.Fatal("frag freeze should block dentry")
	}
	ns.FreezeFrag(c, RootFrag, false)
	if ns.FrozenFor(c, "f") {
		t.Fatal("unfreeze failed")
	}
}

func TestAuthLoadSplitsAtBounds(t *testing.T) {
	ns, a, b, _ := buildAuthTree(t)
	// Heat: 10 ops under /a/b (owned by rank 1), 5 ops directly in /a
	// (owned by rank 0 via root).
	ns.SetAuthOverride(b, 1)
	for i := 0; i < 10; i++ {
		ns.RecordOp(b, "", OpIWR, 0)
	}
	for i := 0; i < 5; i++ {
		ns.RecordOp(a, "", OpIWR, 0)
	}
	loads := ns.AuthLoad(2, 0, CounterSnapshot.CephLoad)
	// IWR counts double in CephLoad: rank1 = 20, rank0 = 10 (15 ops
	// propagated to root, minus b's 10 → 5 IWR → load 10).
	if loads[1] != 20 {
		t.Fatalf("rank1 load = %v, want 20", loads[1])
	}
	if loads[0] != 10 {
		t.Fatalf("rank0 load = %v, want 10", loads[0])
	}
}

func TestAuthLoadFragBounds(t *testing.T) {
	ns, _, b, _ := buildAuthTree(t)
	kids := ns.SplitDir(b, RootFrag, 1, 0)
	ns.SetFragAuth(b, kids[0], 1)
	// Find a name in each frag.
	name0, name1 := "", ""
	for i := 0; i < 100 && (name0 == "" || name1 == ""); i++ {
		n := "f" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if kids[0].ContainsName(n) {
			name0 = n
		} else {
			name1 = n
		}
	}
	for i := 0; i < 4; i++ {
		ns.RecordOp(b, name0, OpIWR, 0)
	}
	for i := 0; i < 6; i++ {
		ns.RecordOp(b, name1, OpIWR, 0)
	}
	loads := ns.AuthLoad(2, 0, CounterSnapshot.CephLoad)
	if loads[1] != 8 { // 4 IWR × 2
		t.Fatalf("rank1 = %v, want 8", loads[1])
	}
	if loads[0] != 12 { // 6 IWR × 2
		t.Fatalf("rank0 = %v, want 12", loads[0])
	}
}

func TestRemoveClearsOverrides(t *testing.T) {
	ns, a, b, _ := buildAuthTree(t)
	c, _ := ns.Resolve("/a/b/c")
	ns.SetAuthOverride(c, 3)
	if err := ns.Remove(b, "c"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if len(ns.SubtreeRoots(3)) != 0 {
		t.Fatal("override survived unlink")
	}
	_ = a
}

func TestSetAuthOverrideOnFilePanics(t *testing.T) {
	ns := New(0)
	f := mustCreate(t, ns, "/f", false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ns.SetAuthOverride(f, 1)
}

func TestRootAuthAlwaysExplicit(t *testing.T) {
	ns := New(0)
	ns.SetAuthOverride(ns.Root(), 0)
	if ns.Root().AuthOverride() != 0 {
		t.Fatal("root label must stay explicit")
	}
	if ns.EffectiveAuth(ns.Root()) != 0 {
		t.Fatal("root auth")
	}
}

func TestReassignBounds(t *testing.T) {
	ns, a, b, _ := buildAuthTree(t)
	e := mustCreate(t, ns, "/a/e", true)
	ns.SetAuthOverride(ns.Root(), 1)
	ns.SetAuthOverride(a, 2)
	kids := ns.SplitDir(b, RootFrag, 1, 0)
	ns.SetFragAuth(b, kids[0], 1)
	ns.SetAuthOverride(e, 1)
	name0 := ""
	for i := 0; name0 == ""; i++ {
		if n := "f" + string(rune('a'+i)); kids[0].ContainsName(n) {
			name0 = n
		}
	}

	before := ns.SubtreeRoots(-1)
	if got := ns.ReassignBounds(1, nil); got != 0 {
		t.Fatalf("empty survivor list moved %d bounds", got)
	}
	if after := ns.SubtreeRoots(-1); !reflect.DeepEqual(before, after) {
		t.Fatalf("empty survivor list changed the bounds: %v -> %v", before, after)
	}

	// The root first, then /a/b's fragment and /a/e in path order,
	// round-robin over the survivors.
	if got := ns.ReassignBounds(1, []Rank{3, 4}); got != 3 {
		t.Fatalf("moved %d bounds, want 3", got)
	}
	if r := ns.EffectiveAuth(ns.Root()); r != 3 {
		t.Fatalf("root on %d, want 3", r)
	}
	if r := ns.AuthForDentry(b, name0); r != 4 {
		t.Fatalf("frag bound on %d, want 4", r)
	}
	if r := ns.EffectiveAuth(e); r != 3 {
		t.Fatalf("/a/e on %d, want 3", r)
	}
	if r := ns.EffectiveAuth(a); r != 2 {
		t.Fatalf("/a moved to %d; it was never rank 1's", r)
	}
	if left := ns.SubtreeRoots(1); len(left) != 0 {
		t.Fatalf("rank 1 still owns %v", left)
	}
	if err := ns.CheckInvariants(5, false); err != nil {
		t.Fatal(err)
	}
}

// TestRootRelabelRefreshesSpread: relabelling the root changes the owner
// every unlabelled fragment inherits, at the root and below it, so the
// cached rank spreads must be recounted. (Found by FuzzNamespaceOps.)
func TestRootRelabelRefreshesSpread(t *testing.T) {
	ns := New(sim.Second)
	root := ns.Root()
	d := mustCreate(t, ns, "/d", true)
	rootKids := ns.SplitDir(root, RootFrag, 1, 0)
	dKids := ns.SplitDir(d, RootFrag, 1, 0)
	ns.SetFragAuth(root, rootKids[0], 1)
	ns.SetFragAuth(d, dKids[0], 1)
	if root.RankSpread() != 2 || d.RankSpread() != 2 {
		t.Fatalf("spreads before relabel: / %d, /d %d; want 2 and 2", root.RankSpread(), d.RankSpread())
	}
	ns.SetAuthOverride(root, 1)
	if root.RankSpread() != 1 || d.RankSpread() != 1 {
		t.Fatalf("spreads after relabelling / to 1: / %d, /d %d; want 1 and 1", root.RankSpread(), d.RankSpread())
	}
	if err := ns.CheckInvariants(4, true); err != nil {
		t.Fatal(err)
	}
}

// TestOwnedNodesBoundInLabelledFrag: a directory bound whose dentry lies in
// a labelled fragment, and a fragment bound in a directory owned through
// its parent's fragment, each count every node once. Both used to take
// nodes from a rank that was never counted them, which the clamp at zero
// turned into an overcount. (Found by FuzzNamespaceOps.)
func TestOwnedNodesBoundInLabelledFrag(t *testing.T) {
	ns := New(sim.Second)
	root := ns.Root()
	mustCreate(t, ns, "/f0", false)
	d0 := mustCreate(t, ns, "/d0", true)
	mustCreate(t, ns, "/d0/x", false)
	mustCreate(t, ns, "/d0/y", false)
	d1 := mustCreate(t, ns, "/d1", true)
	ns.SetAuthOverride(root, 2)
	ns.SetFragAuth(root, RootFrag, 0)
	ns.SetAuthOverride(d0, 1)
	ns.SetAuthOverride(d1, 1)
	// Rank 2 owns /, rank 0 the fragment holding /f0, rank 1 /d0 (three
	// nodes) and /d1.
	if got := fmt.Sprint(ns.OwnedNodes(3)); got != "[1 4 1]" {
		t.Fatalf("OwnedNodes = %s, want [1 4 1]", got)
	}
	if err := ns.CheckInvariants(3, true); err != nil {
		t.Fatal(err)
	}

	// /p inherits rank 1 through the root fragment; a fragment of /p
	// labelled 2 takes its dentries from the rank that counted them.
	ns = New(sim.Second)
	p := mustCreate(t, ns, "/p", true)
	for _, name := range []string{"a", "b", "c", "d"} {
		mustCreate(t, ns, "/p/"+name, false)
	}
	ns.SetFragAuth(ns.Root(), RootFrag, 1)
	ns.SetFragAuth(p, RootFrag, 2)
	owned := ns.OwnedNodes(3)
	if total := owned[0] + owned[1] + owned[2]; total != ns.NumNodes() || owned[2] != 4 {
		t.Fatalf("OwnedNodes = %v: want rank 2 at 4 and a total of %d", owned, ns.NumNodes())
	}
	if err := ns.CheckInvariants(3, true); err != nil {
		t.Fatal(err)
	}
}

// TestAttributionFollowsEffectiveAuth: load and node counts go to the rank
// that serves them. The root is labelled 2 and its only fragment 0, so rank
// 0 serves the unlabelled /p and the file /p/a through that fragment; /p/q
// is labelled 1. A fragment bound's measure used to be its own counters
// and dentries only, so /p's subtree stayed with the root's rank 2, and
// /p/q was debited from rank 2 instead of rank 0.
func TestAttributionFollowsEffectiveAuth(t *testing.T) {
	ns := New(sim.Second)
	root := ns.Root()
	p := mustCreate(t, ns, "/p", true)
	mustCreate(t, ns, "/p/a", false)
	q := mustCreate(t, ns, "/p/q", true)
	mustCreate(t, ns, "/p/q/z", false)
	ns.SetAuthOverride(root, 2)
	ns.SetFragAuth(root, RootFrag, 0)
	ns.SetAuthOverride(q, 1)
	now := 10 * sim.Second
	for i := 0; i < 100; i++ {
		ns.RecordOp(p, "a", OpIWR, now)
	}
	for i := 0; i < 50; i++ {
		ns.RecordOp(q, "z", OpIWR, now)
	}
	if got := fmt.Sprint(ns.AuthLoad(3, now, CounterSnapshot.CephLoad)); got != "[200 100 0]" {
		t.Errorf("AuthLoad = %s, want [200 100 0]", got)
	}
	if got := fmt.Sprint(ns.OwnedNodes(3)); got != "[2 2 1]" {
		t.Errorf("OwnedNodes = %s, want [2 2 1]", got)
	}
	// The root fragment's export unit carries /p's subtree, which moves
	// with it.
	units := []LoadUnit{{Dir: root, Frag: RootFrag, IsFrag: true}}
	ns.Loads(now, units)
	if !units[0].OK || units[0].Snap.IWR != 150 {
		t.Errorf("Loads(/#*) = %+v, want IWR 150", units[0])
	}
	if err := ns.CheckInvariants(3, false); err != nil {
		t.Fatal(err)
	}
}
