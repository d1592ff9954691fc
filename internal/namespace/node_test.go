package namespace

import (
	"fmt"
	"testing"
	"unsafe"

	"mantle/internal/sim"
)

// TestNodeSizePinned: files are > 95 % of nodes (sim-compile holds 650 k),
// so Node carries only what a file uses and is pinned at 32 bytes (40 while
// it carried an inode number nothing read; 64 while it also carried its
// namespace and path memo, which moved into dirState, and a Size field
// nothing read) — re-pin down, never up. A directory pays for its dirState
// in the same allocation:
// creating one costs 5 allocations, measured (dirNode, frag tree and its
// leaf array, frag slice, frag state); it cost 7 while the children and the
// frag states were maps.
func TestNodeSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 32 {
		t.Fatalf("Node is %d bytes, pinned at 32", got)
	}
	ns := New(sim.Second)
	names := make([]string, 1100)
	for i := range names {
		names[i] = fmt.Sprintf("d%d", i)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := ns.Create(ns.Root(), names[i], true); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 5 {
		t.Fatalf("Create(dir) costs %v allocations, pinned at 5", allocs)
	}
}

// TestFileNodeMethodsSafe: a file node has no dirState, and every exported
// accessor must keep answering for it what the one-struct Node answered —
// also once it is removed, when it no longer reaches a namespace.
func TestFileNodeMethodsSafe(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		ns := New(sim.Second)
		if sharded {
			ns.EnableSharding(2)
		}
		dir, err := ns.CreatePath("/a/b", true)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ns.View(1).Create(dir, "f", false)
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, ok bool) {
			t.Helper()
			if !ok {
				t.Errorf("sharded=%v: %s on a file node changed", sharded, name)
			}
		}
		check("Name", f.Name() == "f")
		check("Parent", f.Parent() == dir)
		check("IsDir", !f.IsDir())
		check("IsRoot", !f.IsRoot())
		check("Path", f.Path() == "/a/b/f")
		check("Depth", f.Depth() == 3)
		check("NumChildren", f.NumChildren() == 0)
		check("SubtreeNodes", f.SubtreeNodes() == 1)
		c, ok := f.Lookup("x")
		check("Lookup", c == nil && !ok)
		names := f.ChildNames()
		check("ChildNames", names != nil && len(names) == 0)
		f.Children(func(*Node) bool { t.Errorf("Children visited a child of a file"); return true })
		check("HasSubdir", !f.HasSubdir())
		check("FragTree", f.FragTree() == nil)
		fs, ok := f.FragStateOf(RootFrag)
		check("FragStateOf", fs == nil && !ok)
		check("AuthOverride", f.AuthOverride() == RankNone)
		check("Frozen", !f.Frozen())
		check("RankSpread", f.RankSpread() == 1)
		check("Load", f.Load(sim.Second) == CounterSnapshot{})
		check("Counters", f.Counters().Snapshot(sim.Second) == CounterSnapshot{})
		check("EffectiveAuth", ns.EffectiveAuth(f) == 0)

		if err := ns.Rename(dir, "f", ns.Root(), "g"); err != nil {
			t.Fatal(err)
		}
		check("Path after Rename", f.Path() == "/g" && f.Parent() == ns.Root())
		if err := ns.Remove(ns.Root(), "g"); err != nil {
			t.Fatal(err)
		}
		check("Parent after Remove", f.Parent() == nil)
		check("Name after Remove", f.Name() == "g")
		check("IsRoot after Remove", f.IsRoot())
		check("Path after Remove", f.Path() == "/")
		check("Depth after Remove", f.Depth() == 0)
		check("NumChildren after Remove", f.NumChildren() == 0)
		check("SubtreeNodes after Remove", f.SubtreeNodes() == 1)
		c, ok = f.Lookup("x")
		check("Lookup after Remove", c == nil && !ok)
		check("ChildNames after Remove", len(f.ChildNames()) == 0)
		check("HasSubdir after Remove", !f.HasSubdir())
		fs, ok = f.FragStateOf(RootFrag)
		check("FragStateOf after Remove", fs == nil && !ok)
		check("AuthOverride after Remove", f.AuthOverride() == RankNone)
		check("Frozen after Remove", !f.Frozen())
		check("RankSpread after Remove", f.RankSpread() == 1)
		check("Load after Remove", f.Load(sim.Second) == CounterSnapshot{})
		check("Counters after Remove", f.Counters().Snapshot(sim.Second) == CounterSnapshot{})
		check("EffectiveAuth after Remove", ns.EffectiveAuth(f) == 0)
		if err := ns.CheckInvariants(1, false); err != nil {
			t.Fatalf("sharded=%v: %v", sharded, err)
		}
	}
}

// TestLoadsMatchesLoad: the batch read returns, per directory, what Node.Load
// returns at the same time, and per fragment what its own counters hold —
// deferred charges folded, files and stale frags zero and not OK — and
// leaves nothing pending.
func TestLoadsMatchesLoad(t *testing.T) {
	ns := New(sim.Second)
	a := mustCreate(t, ns, "/a", true)
	b := mustCreate(t, ns, "/a/b", true)
	f := mustCreate(t, ns, "/a/f", false)
	kids := ns.SplitDir(b, RootFrag, 1, 0)
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * sim.Millisecond
		ns.RecordOp(a, "f", OpIRD, at)
		ns.RecordOp(b, fmt.Sprintf("x%d", i), OpIWR, at)
		if i%3 == 0 {
			ns.RecordOp(b, "", OpReaddir, at)
		}
	}
	ns.View(0).RecordOpRemote(b, "y", OpIRD, 60*sim.Millisecond)
	now := 100 * sim.Millisecond
	units := []LoadUnit{{Dir: b}, {Dir: f}, {Dir: ns.Root()}, {Dir: b, Frag: kids[1], IsFrag: true},
		{Dir: a}, {Dir: b, Frag: RootFrag, IsFrag: true}, {Dir: b, Frag: kids[0], IsFrag: true}, {Dir: b}}
	ns.Loads(now, units)
	if n := ns.PendingHits(); n != 0 {
		t.Fatalf("%d charges left pending", n)
	}
	for i, u := range units {
		want, ok := u.Dir.Load(now), u.Dir.IsDir()
		if u.IsFrag {
			want, ok = CounterSnapshot{}, false
			if fs, live := u.Dir.FragStateOf(u.Frag); live {
				want, ok = fs.Counters.Snapshot(now), true
			}
		}
		if u.Snap != want || u.OK != ok {
			t.Errorf("unit %d (%s frag=%v/%v): Loads %+v ok=%v, want %+v ok=%v",
				i, u.Dir.Path(), u.IsFrag, u.Frag, u.Snap, u.OK, want, ok)
		}
	}
	if units[0].Snap.IWR == 0 || units[4].Snap.IRD == 0 || units[1].OK ||
		units[3].Snap.IWR == 0 || units[6].Snap.IWR == 0 || units[5].OK {
		t.Fatalf("snapshots %+v", units)
	}
	if units[3].Snap.IRD+units[6].Snap.IRD == 0 {
		t.Fatal("the remote charge was not folded into its fragment before the snapshot")
	}
}

// TestFileAccessorsRaceRename: a file finds the lock it reads under through
// its parent pointer, which a rename or unlink rewrites under the write
// lock. Readers on other goroutines must see the old or the new parent,
// never a torn one. Run under -race.
func TestFileAccessorsRaceRename(t *testing.T) {
	ns := New(sim.Second)
	ns.EnableSharding(2)
	a := mustCreate(t, ns, "/a", true)
	b := mustCreate(t, ns, "/b", true)
	f := mustCreate(t, ns, "/a/f", false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			from, to := a, b
			if i%2 == 1 {
				from, to = b, a
			}
			if err := ns.Rename(from, "f", to, "f"); err != nil {
				t.Error(err)
				return
			}
		}
		if err := ns.Remove(a, "f"); err != nil {
			t.Error(err)
		}
	}()
	for {
		select {
		case <-done:
			if f.Parent() != nil || f.Path() != "/" {
				t.Fatalf("removed file still reports parent %v, path %q", f.Parent(), f.Path())
			}
			return
		default:
		}
		if p := f.Parent(); p != nil && p != a && p != b {
			t.Fatalf("parent %v", p)
		}
		_ = f.Name()
		_ = f.Path()
		_ = f.IsRoot()
		_ = f.Depth()
	}
}
