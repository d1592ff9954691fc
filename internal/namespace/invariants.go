package namespace

import (
	"fmt"
)

// CheckInvariants walks the whole tree and verifies the structural
// invariants the rest of the system relies on. It returns the first
// violation found, or nil. Tests call it after simulated runs; it is O(n)
// and intended for debugging, not the simulated fast path.
//
// Invariants checked:
//
//  1. parent/child links are consistent and names match,
//  2. per-directory fragment trees partition the hash space and every leaf
//     has live state,
//  3. per-fragment entry counts sum to the directory's dentry count,
//  4. subtreeNodes equals the recomputed subtree size,
//  5. every node's effective authority resolves to a valid rank,
//  6. the override indexes exactly mirror the labels on the tree,
//  7. rankSpread matches a recount of fragment owners,
//  8. no fragment or directory is left frozen (call with allowFrozen=true
//     mid-migration), and the frozen counters match a recount,
//  9. the deferred-hit log drains on flush,
//  10. the incremental bound index is byte-equal to a from-scratch rebuild
//     (keys, order, ranks, enclosing bounds, fragment-dir owners).
func (ns *Namespace) CheckInvariants(numRanks int, allowFrozen bool) error {
	ns.wlock()
	defer ns.wunlock()
	ns.flushLocked()
	if n := ns.pendingLocked(); n != 0 {
		return fmt.Errorf("invariant: %d deferred hits survived FlushCounters", n)
	}
	seenOverrides := 0
	seenFragOverrides := 0
	frozenDirs, frozenFrags := 0, 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.parent != nil {
			child, ok := n.parent.dir.children[n.name]
			if !ok || child != n {
				return fmt.Errorf("invariant: %s not linked under its parent", n.path())
			}
		}
		if auth := ns.effAuthOf(n); auth < 0 || (numRanks > 0 && int(auth) >= numRanks) {
			return fmt.Errorf("invariant: %s has authority %d outside [0,%d)", n.path(), auth, numRanks)
		}
		if !n.IsDir() {
			if n.SubtreeNodes() != 1 {
				return fmt.Errorf("invariant: file %s has subtree size %d", n.path(), n.SubtreeNodes())
			}
			return nil
		}
		if !allowFrozen && n.dir.frozen {
			return fmt.Errorf("invariant: %s left frozen", n.path())
		}
		if n.dir.frozen {
			frozenDirs++
		}
		if n.dir.authOverride != RankNone {
			if _, ok := ns.overrides[n]; !ok && n.parent != nil {
				return fmt.Errorf("invariant: %s has label %d missing from the override index", n.path(), n.dir.authOverride)
			}
			if n.parent != nil {
				seenOverrides++
			}
		}
		// Fragment checks.
		leaves := n.dir.fragtree.Leaves()
		if len(leaves) == 0 {
			return fmt.Errorf("invariant: %s has no leaf fragments", n.path())
		}
		entries := 0
		owners := map[Rank]struct{}{}
		inherited := false
		for _, f := range leaves {
			fs, ok := n.dir.frags[f]
			if !ok {
				return fmt.Errorf("invariant: %s leaf %v has no state", n.path(), f)
			}
			if !allowFrozen && fs.frozen {
				return fmt.Errorf("invariant: %s frag %v left frozen", n.path(), f)
			}
			if fs.frozen {
				frozenFrags++
			}
			entries += fs.Entries
			if fs.auth != RankNone {
				if _, ok := ns.fragOverrides[fragKey{n, f}]; !ok {
					return fmt.Errorf("invariant: %s frag %v label missing from index", n.path(), f)
				}
				seenFragOverrides++
				owners[fs.auth] = struct{}{}
			} else {
				inherited = true
			}
		}
		if len(n.dir.frags) != len(leaves) {
			return fmt.Errorf("invariant: %s has %d frag states for %d leaves", n.path(), len(n.dir.frags), len(leaves))
		}
		if entries != len(n.dir.children) {
			return fmt.Errorf("invariant: %s frag entries %d != %d children", n.path(), entries, len(n.dir.children))
		}
		// Every child must land in the leaf that counts it.
		for name, child := range n.dir.children {
			leaf := n.dir.fragtree.LeafOfName(name)
			if _, ok := n.dir.frags[leaf]; !ok {
				return fmt.Errorf("invariant: %s child %q hashes to missing frag %v", n.path(), name, leaf)
			}
			if err := walk(child); err != nil {
				return err
			}
		}
		if inherited {
			owners[ns.effAuthOf(n)] = struct{}{}
		}
		if n.dir.rankSpread != len(owners) {
			return fmt.Errorf("invariant: %s rankSpread %d, recount %d", n.path(), n.dir.rankSpread, len(owners))
		}
		// Subtree size and subdirectory count.
		size, subdirs := 1, 0
		for _, c := range n.dir.children {
			size += c.SubtreeNodes()
			if c.IsDir() {
				subdirs++
			}
		}
		if size != int(n.dir.subtreeNodes.Load()) {
			return fmt.Errorf("invariant: %s subtreeNodes %d, recount %d", n.path(), n.dir.subtreeNodes.Load(), size)
		}
		if subdirs != int(n.dir.subdirs) {
			return fmt.Errorf("invariant: %s subdirs %d, recount %d", n.path(), n.dir.subdirs, subdirs)
		}
		return nil
	}
	if err := walk(ns.root); err != nil {
		return err
	}
	wantOverrides := len(ns.overrides)
	if _, rootIndexed := ns.overrides[ns.root]; rootIndexed {
		wantOverrides--
	}
	if seenOverrides != wantOverrides {
		return fmt.Errorf("invariant: override index has %d entries, tree has %d labels", wantOverrides, seenOverrides)
	}
	if seenFragOverrides != len(ns.fragOverrides) {
		return fmt.Errorf("invariant: frag override index has %d entries, tree has %d labels", len(ns.fragOverrides), seenFragOverrides)
	}
	if frozenDirs != ns.frozenDirs || frozenFrags != ns.frozenFrags {
		return fmt.Errorf("invariant: frozen counters (%d dirs, %d frags) vs recount (%d, %d)",
			ns.frozenDirs, ns.frozenFrags, frozenDirs, frozenFrags)
	}
	if err := ns.checkBoundIndex(); err != nil {
		return err
	}
	// Ownership accounting: every node is owned exactly once. (OwnedNodes
	// reads the bound index, which checkBoundIndex just validated.)
	if numRanks > 0 {
		owned := ns.ownedNodesLocked(numRanks)
		total := 0
		for _, v := range owned {
			total += v
		}
		// Frag bounds count dentries rather than whole subtrees, so the
		// total may undercount when frag-level ownership splits a
		// directory; allow that slack but never overcounting.
		if total > int(ns.count.Load()) {
			return fmt.Errorf("invariant: OwnedNodes total %d exceeds node count %d", total, ns.count.Load())
		}
	}
	return nil
}

// checkBoundIndex compares the incrementally maintained bound index against
// a from-scratch rebuild: same keys in the same order, same ranks, same
// enclosing bounds and fragment-dir owners. The rebuilt index is kept (it is
// correct by construction), so a passing check leaves state unchanged up to
// equality.
func (ns *Namespace) checkBoundIndex() error {
	ns.ensureBoundIndex()
	got := ns.bidx
	ns.bidx = nil
	ns.bidxDirty = true
	ns.ensureBoundIndex()
	want := ns.bidx
	if len(got) != len(want) {
		return fmt.Errorf("invariant: bound index has %d entries, rebuild has %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.key != w.key {
			return fmt.Errorf("invariant: bound index key[%d] %q, rebuild %q", i, g.key, w.key)
		}
		if g.root != w.root {
			return fmt.Errorf("invariant: bound index entry %q root drifted from rebuild", g.key)
		}
		if g.encl != w.encl {
			return fmt.Errorf("invariant: bound index entry %q enclosing bound drifted from rebuild", g.key)
		}
		if g.root.IsFrag && g.dirOwner != w.dirOwner {
			return fmt.Errorf("invariant: bound index entry %q dir owner %d, rebuild %d", g.key, g.dirOwner, w.dirOwner)
		}
	}
	return nil
}
