// Package namespace implements the hierarchical file-system namespace the
// MDS cluster serves: inodes embedded in directories, directory fragments
// (dirfrags) equivalent to CephFS's frag-tree / GIGA+ partitions, decaying
// popularity counters per directory and per fragment, and the subtree
// authority labels that dynamic subtree partitioning migrates between MDS
// ranks.
package namespace

import "fmt"

// Frag identifies a directory fragment as a prefix of the 32-bit dentry hash
// space, exactly like Ceph's frag_t: Value holds the high Bits bits of the
// hashes the fragment covers.
type Frag struct {
	Value uint32
	Bits  uint8
}

// RootFrag covers the entire hash space (an unfragmented directory).
var RootFrag = Frag{}

// HashName maps a dentry name to its position in the 32-bit hash space.
// FNV-1a alone mixes the high bits poorly for short names (CephFS uses
// rjenkins for dentry hashing for the same reason), so a murmur3-style
// finaliser spreads names uniformly across fragments.
func HashName(name string) uint32 {
	x := uint32(2166136261) // FNV-1a, 32-bit, inline: no hash.Hash to allocate
	for i := 0; i < len(name); i++ {
		x ^= uint32(name[i])
		x *= 16777619
	}
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// Contains reports whether hash h falls inside the fragment.
func (f Frag) Contains(h uint32) bool {
	if f.Bits == 0 {
		return true
	}
	return h>>(32-f.Bits) == f.Value>>(32-f.Bits)
}

// ContainsName reports whether the dentry name falls inside the fragment.
func (f Frag) ContainsName(name string) bool { return f.Contains(HashName(name)) }

// Split divides the fragment into 2^n children. CephFS's first split uses
// n=3 (eight dirfrags), which the paper's shared-directory experiments rely
// on.
func (f Frag) Split(n uint8) []Frag {
	if n == 0 {
		return []Frag{f}
	}
	if int(f.Bits)+int(n) > 32 {
		panic(fmt.Sprintf("namespace: frag %v split(%d) exceeds 32 bits", f, n))
	}
	out := make([]Frag, 0, 1<<n)
	for i := uint32(0); i < 1<<n; i++ {
		bits := f.Bits + n
		val := f.Value | i<<(32-bits)
		out = append(out, Frag{Value: val, Bits: bits})
	}
	return out
}

// Parent returns the fragment one level up. The root fragment is its own
// parent.
func (f Frag) Parent() Frag {
	if f.Bits == 0 {
		return f
	}
	bits := f.Bits - 1
	mask := uint32(0)
	if bits > 0 {
		mask = ^uint32(0) << (32 - bits)
	}
	return Frag{Value: f.Value & mask, Bits: bits}
}

// IsRoot reports whether f covers the whole hash space.
func (f Frag) IsRoot() bool { return f.Bits == 0 }

func (f Frag) String() string {
	if f.Bits == 0 {
		return "*"
	}
	return fmt.Sprintf("%0*b/%d", f.Bits, f.Value>>(32-f.Bits), f.Bits)
}

// FragTree tracks the leaf fragments that partition a directory's hash
// space. The zero value is not ready; use NewFragTree.
type FragTree struct {
	leaves []Frag
}

// NewFragTree returns an unfragmented tree (single root leaf).
func NewFragTree() *FragTree {
	return &FragTree{leaves: []Frag{RootFrag}}
}

// Leaves returns the current leaf fragments in deterministic order.
func (t *FragTree) Leaves() []Frag { return append([]Frag(nil), t.leaves...) }

// NumLeaves reports the number of leaf fragments.
func (t *FragTree) NumLeaves() int { return len(t.leaves) }

// LeafOf returns the leaf fragment containing the dentry hash h.
func (t *FragTree) LeafOf(h uint32) Frag { return t.leaves[t.leafIndex(h)] }

// leafIndex returns the position of the leaf containing the dentry hash h.
func (t *FragTree) leafIndex(h uint32) int {
	for i, f := range t.leaves {
		if f.Contains(h) {
			return i
		}
	}
	// Unreachable while the partition invariant holds.
	panic(fmt.Sprintf("namespace: no leaf for hash %#x", h))
}

// LeafOfName returns the leaf fragment containing the dentry name.
func (t *FragTree) LeafOfName(name string) Frag { return t.LeafOf(HashName(name)) }

// SplitLeaf replaces leaf with its 2^n children, returning them. It panics
// if leaf is not a current leaf — callers must operate on the live tree.
func (t *FragTree) SplitLeaf(leaf Frag, n uint8) []Frag {
	for i, f := range t.leaves {
		if f == leaf {
			kids := leaf.Split(n)
			t.leaves = append(t.leaves[:i], append(kids, t.leaves[i+1:]...)...)
			return kids
		}
	}
	panic(fmt.Sprintf("namespace: SplitLeaf(%v): not a leaf", leaf))
}

// Merge replaces all children of parent with parent itself (the coalescing
// direction, used when a fragmented directory empties out). All 2^n children
// of parent must currently be leaves; Merge reports whether it merged.
func (t *FragTree) Merge(parent Frag, n uint8) bool {
	want := parent.Split(n)
	idx := make(map[Frag]int, len(want))
	for _, w := range want {
		idx[w] = -1
	}
	for i, f := range t.leaves {
		if _, ok := idx[f]; ok {
			idx[f] = i
		}
	}
	for _, i := range idx {
		if i < 0 {
			return false
		}
	}
	out := t.leaves[:0]
	inserted := false
	for _, f := range t.leaves {
		if _, ok := idx[f]; ok {
			if !inserted {
				out = append(out, parent)
				inserted = true
			}
			continue
		}
		out = append(out, f)
	}
	t.leaves = out
	return true
}
