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
//     has live state, at the leaf's position in the frag-state slice,
//  3. every dentry is stored under its name's hash, and each fragment's
//     entry count is the number of dentries hashing into it,
//  4. subtreeNodes equals the recomputed subtree size,
//  5. every node's effective authority resolves to a valid rank,
//  6. the override indexes exactly mirror the labels on the tree,
//  7. rankSpread matches a recount of fragment owners,
//  8. no fragment or directory is left frozen (call with allowFrozen=true
//     mid-migration), and the frozen counters match a recount,
//  9. the deferred-hit log drains on flush,
//  10. the incremental bound index is byte-equal to a from-scratch rebuild
//     (keys, order, ranks, the ranks bounds were carved from),
//  11. OwnedNodes gives each rank exactly the nodes whose effective
//     authority it is.
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
	owned := make([]int, max(numRanks, 0))
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.parent.Load() != nil {
			if n.parent.Load().dir.children.get(n.name, HashName(n.name)) != n {
				return fmt.Errorf("invariant: %s not linked under its parent", n.path())
			}
		}
		auth := ns.effAuthOf(n)
		if auth < 0 || (numRanks > 0 && int(auth) >= numRanks) {
			return fmt.Errorf("invariant: %s has authority %d outside [0,%d)", n.path(), auth, numRanks)
		}
		if numRanks > 0 {
			owned[auth]++
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
			if _, ok := ns.overrides[n]; !ok && n.parent.Load() != nil {
				return fmt.Errorf("invariant: %s has label %d missing from the override index", n.path(), n.dir.authOverride)
			}
			if n.parent.Load() != nil {
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
		if len(n.dir.frags) != len(leaves) {
			return fmt.Errorf("invariant: %s has %d frag states for %d leaves", n.path(), len(n.dir.frags), len(leaves))
		}
		for i, f := range leaves {
			fs := n.dir.frags[i]
			if fs.Frag != f {
				return fmt.Errorf("invariant: %s leaf %d is %v, its state is %v's", n.path(), i, f, fs.Frag)
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
		if entries != int(n.dir.children.n) {
			return fmt.Errorf("invariant: %s frag entries %d != %d children", n.path(), entries, n.dir.children.n)
		}
		// Every child is stored under its own name's hash, and every frag
		// counts exactly the children that hash into it.
		var err error
		perFrag := make([]int, len(leaves))
		n.dir.children.each(func(child *Node, h uint32) {
			if err != nil {
				return
			}
			if h != HashName(child.name) {
				err = fmt.Errorf("invariant: %s child %q stored under hash %#x", n.path(), child.name, h)
				return
			}
			for i, f := range leaves {
				if f.Contains(h) {
					perFrag[i]++
				}
			}
			err = walk(child)
		})
		if err != nil {
			return err
		}
		for i, fs := range n.dir.frags {
			if fs.Entries != perFrag[i] {
				return fmt.Errorf("invariant: %s frag %v counts %d entries, %d children hash into it", n.path(), fs.Frag, fs.Entries, perFrag[i])
			}
		}
		if inherited {
			owners[ns.effAuthOf(n)] = struct{}{}
		}
		if int(n.dir.rankSpread) != len(owners) {
			return fmt.Errorf("invariant: %s rankSpread %d, recount %d", n.path(), n.dir.rankSpread, len(owners))
		}
		// Subtree size and subdirectory count.
		size, subdirs := 1, 0
		n.dir.children.each(func(c *Node, _ uint32) {
			size += c.SubtreeNodes()
			if c.IsDir() {
				subdirs++
			}
		})
		if size != int(n.dir.subtreeNodes.Load()) {
			return fmt.Errorf("invariant: %s subtreeNodes %d, recount %d", n.path(), n.dir.subtreeNodes.Load(), size)
		}
		if subdirs != int(n.dir.children.subdirs) {
			return fmt.Errorf("invariant: %s subdirs %d, recount %d", n.path(), n.dir.children.subdirs, subdirs)
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
	// Ownership accounting: the walk over the bound index (just validated
	// by checkBoundIndex) counts each rank exactly the nodes it owns.
	if numRanks > 0 {
		_, got := ns.attribute(numRanks, 0, nil, RankNone)
		for r := range got {
			if got[r] != owned[r] {
				return fmt.Errorf("invariant: OwnedNodes %v, recount by effective authority %v", got, owned)
			}
		}
	}
	return nil
}

// checkBoundIndex compares the incrementally maintained bound index against
// a from-scratch rebuild: same keys in the same order, same ranks, and the
// same rank each bound was carved from. The rebuilt index is kept (it is
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
		if g.from != w.from {
			return fmt.Errorf("invariant: bound index entry %q carved from %d, rebuild %d", g.key, g.from, w.from)
		}
	}
	return nil
}
