package namespace

import (
	"sort"
	"strings"
)

// Sorted subtree-bound index.
//
// SubtreeRoots used to enumerate the override maps and re-sort every bound
// by path on every call, and AuthLoad/OwnedNodes re-derived each bound's
// enclosing bound (and, for fragment bounds, the containing directory's
// owner) with parent walks on every heartbeat. The index keeps the bounds
// sorted by the same path keys with those two derived facts stored on each
// entry, so a heartbeat is one linear pass over the bounds.
//
// Maintenance is hybrid. SetAuthOverride and SetFragAuth — the only ways a
// bound appears, moves rank, or disappears in steady state — update the
// index in place: a binary-search upsert/remove of the bound's own entry
// plus a prefix-range refresh of the derived fields on bounds beneath it.
// Structural events that can invalidate path keys wholesale (rename of a
// directory, unlink of a labelled subtree, dirfrag split/merge of a bound)
// just set bidxDirty and the next read rebuilds; those are balancer-rate,
// not op-rate, events.
//
// Ordering matters beyond lookup speed: AuthLoad accumulates floating-point
// sums in index order, and the pinned-artifact regression tests require the
// exact order the old sort.Slice produced — ascending SubtreeRoot.Path(),
// which is what the keys store.

// boundEntry is one subtree bound plus the derived facts heartbeats need.
type boundEntry struct {
	key  string // SubtreeRoot.Path(): dir path, or dir path + "#" + frag
	root SubtreeRoot

	// encl is the nearest strictly-enclosing directory bound (nil for
	// the root bound). Directory bounds only.
	encl *Node
	// dirOwner is the rank owning the containing directory — the rank a
	// fragment bound's load is charged against before being moved to the
	// fragment's own rank. Fragment bounds only.
	dirOwner Rank
}

// ensureBoundIndex rebuilds the index if a structural change staled it.
func (ns *Namespace) ensureBoundIndex() {
	if !ns.bidxDirty {
		return
	}
	ns.bidx = ns.bidx[:0]
	for n := range ns.overrides {
		ns.bidx = append(ns.bidx, boundEntry{
			key:  n.path(),
			root: SubtreeRoot{Dir: n, Frag: RootFrag, Rank: n.dir.authOverride},
		})
	}
	for k := range ns.fragOverrides {
		fs := k.node.dir.frags[k.frag]
		if fs == nil {
			continue
		}
		ns.bidx = append(ns.bidx, boundEntry{
			key:  k.node.path() + "#" + k.frag.String(),
			root: SubtreeRoot{Dir: k.node, Frag: k.frag, IsFrag: true, Rank: fs.auth},
		})
	}
	sort.Slice(ns.bidx, func(i, j int) bool { return ns.bidx[i].key < ns.bidx[j].key })
	for i := range ns.bidx {
		ns.bidxDerive(&ns.bidx[i])
	}
	ns.bidxDirty = false
}

// bidxDerive recomputes an entry's derived fields from the tree.
func (ns *Namespace) bidxDerive(e *boundEntry) {
	if e.root.IsFrag {
		e.dirOwner = ns.effAuthOf(e.root.Dir)
		return
	}
	e.encl = nil
	if enc, ok := ns.nearestEnclosingBound(e.root.Dir); ok {
		e.encl = enc
	}
}

// bidxFind returns the position of key (or its insertion point).
func (ns *Namespace) bidxFind(key string) int {
	return sort.Search(len(ns.bidx), func(i int) bool { return ns.bidx[i].key >= key })
}

// bidxUpsert inserts or replaces the entry for root, deriving its fields.
// No-op while the index is dirty; the rebuild will pick the bound up.
func (ns *Namespace) bidxUpsert(root SubtreeRoot) {
	if ns.bidxDirty {
		return
	}
	e := boundEntry{key: root.path(), root: root}
	ns.bidxDerive(&e)
	i := ns.bidxFind(e.key)
	if i < len(ns.bidx) && ns.bidx[i].key == e.key {
		ns.bidx[i] = e
		return
	}
	ns.bidx = append(ns.bidx, boundEntry{})
	copy(ns.bidx[i+1:], ns.bidx[i:])
	ns.bidx[i] = e
}

// bidxRemove drops the entry with the given key, if present.
func (ns *Namespace) bidxRemove(key string) {
	if ns.bidxDirty {
		return
	}
	i := ns.bidxFind(key)
	if i < len(ns.bidx) && ns.bidx[i].key == key {
		ns.bidx = append(ns.bidx[:i], ns.bidx[i+1:]...)
	}
}

// bidxRefreshBelow re-derives encl/dirOwner for every bound under dir: its
// own fragment bounds and everything in the subtree beneath it. dir's own
// directory entry is left alone (the caller upserts or removes it). A label
// change on dir can move all of these — that is the entire set it can move,
// so refresh cost is proportional to the bounds actually affected. Over-
// matching (a sibling whose name embeds '#' falling into the fragment-key
// range) is harmless: deriving is idempotent.
func (ns *Namespace) bidxRefreshBelow(dir *Node) {
	if ns.bidxDirty {
		return
	}
	var prefixes []string
	if dir.parent == nil {
		prefixes = []string{"/"} // every key descends from the root
	} else {
		base := dir.path()
		prefixes = []string{base + "#", base + "/"}
	}
	for _, p := range prefixes {
		for i := ns.bidxFind(p); i < len(ns.bidx); i++ {
			e := &ns.bidx[i]
			if !strings.HasPrefix(e.key, p) {
				break
			}
			if e.root.Dir == dir && !e.root.IsFrag {
				continue
			}
			ns.bidxDerive(e)
		}
	}
}
