package namespace

import (
	"fmt"
	"testing"
	"unsafe"

	"mantle/internal/sim"
)

// TestNodeSizePinned: files are > 95 % of nodes (sim-compile holds 650 k),
// so Node carries only what a file uses and is pinned at 64 bytes — re-pin
// down, never up. A directory pays for its dirState in the same allocation:
// creating one costs 7 allocations, measured, as it did on the parent commit
// when Node was one 256-byte struct.
func TestNodeSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 64 {
		t.Fatalf("Node is %d bytes, pinned at 64", got)
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
	if allocs > 7 {
		t.Fatalf("Create(dir) costs %v allocations, 7 before Node was split", allocs)
	}
}

// TestFileNodeMethodsSafe: a file node has no dirState, and every exported
// accessor must keep answering for it what the one-struct Node answered.
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
		check("Ino", f.Ino() != 0)
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
		if err := ns.CheckInvariants(1, false); err != nil {
			t.Fatalf("sharded=%v: %v", sharded, err)
		}
	}
}
