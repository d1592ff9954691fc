package namespace

import (
	"reflect"
	"testing"
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
