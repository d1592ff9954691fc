package namespace

// childTable is a directory's dentry index: an open-addressed table with
// linear probing, keyed by the child's HashName. Every slot keeps the hash
// beside the child pointer, so a probe compares hashes before it
// dereferences a node to compare names, and SplitDir rebuckets dentries
// from the stored hashes without hashing a name. Slots are laid out in
// groups of four hashes and four pointers, 12 bytes a slot in one
// allocation. The table is nil until the first insert (an empty directory
// allocates nothing), stays at most 3/4 full, and deletes by backward
// shift, so there are no tombstones.
//
// A childTable has no lock of its own: the directory's childMu, or the tree
// write lock, guards it (see shard.go).
type childTable struct {
	groups  []childGroup // len(groups)*groupSlots is a power of two; nil while empty
	n       int32        // live entries
	subdirs int32        // directories among them
}

const groupSlots = 4

// childGroup holds slots 4g..4g+3; a nil node is an empty slot.
type childGroup struct {
	node [groupSlots]*Node
	hash [groupSlots]uint32
}

func (t *childTable) size() int { return len(t.groups) * groupSlots }

func (t *childTable) at(i int) (*Node, uint32) {
	g := &t.groups[i/groupSlots]
	return g.node[i%groupSlots], g.hash[i%groupSlots]
}

func (t *childTable) set(i int, c *Node, h uint32) {
	g := &t.groups[i/groupSlots]
	g.node[i%groupSlots], g.hash[i%groupSlots] = c, h
}

// find returns the slot holding name, or -1.
func (t *childTable) find(name string, h uint32) int {
	if t.n == 0 {
		return -1
	}
	mask := t.size() - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		c, ch := t.at(i)
		if c == nil {
			return -1
		}
		if ch == h && c.name == name {
			return i
		}
	}
}

// get looks up the child named name, whose HashName is h.
func (t *childTable) get(name string, h uint32) *Node {
	if i := t.find(name, h); i >= 0 {
		c, _ := t.at(i)
		return c
	}
	return nil
}

// put inserts c under its name, whose HashName is h, replacing any child of
// that name (the map assignment it stands in for did the same).
func (t *childTable) put(c *Node, h uint32) {
	if i := t.find(c.name, h); i >= 0 {
		if old, _ := t.at(i); old.IsDir() {
			t.subdirs--
		}
		t.set(i, c, h)
	} else {
		if 4*(int(t.n)+1) > 3*t.size() {
			t.grow()
		}
		t.insert(c, h)
		t.n++
	}
	if c.IsDir() {
		t.subdirs++
	}
}

// insert places c in the first free slot of its probe sequence.
func (t *childTable) insert(c *Node, h uint32) {
	mask := t.size() - 1
	i := int(h) & mask
	for n, _ := t.at(i); n != nil; n, _ = t.at(i) {
		i = (i + 1) & mask
	}
	t.set(i, c, h)
}

// grow doubles the table (or allocates its first group) and reinserts every
// entry from its stored hash.
func (t *childTable) grow() {
	old := t.groups
	groups := 2 * len(old)
	if groups == 0 {
		groups = 1
	}
	t.groups = make([]childGroup, groups)
	for g := range old {
		for s, c := range old[g].node {
			if c != nil {
				t.insert(c, old[g].hash[s])
			}
		}
	}
}

// del removes the child named name, whose HashName is h, and reports it
// (nil when absent). Every later entry of the probe run that may move back
// into the hole does, so a lookup never needs to skip a deleted slot.
func (t *childTable) del(name string, h uint32) *Node {
	i := t.find(name, h)
	if i < 0 {
		return nil
	}
	c, _ := t.at(i)
	mask := t.size() - 1
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		cj, hj := t.at(j)
		if cj == nil {
			break
		}
		// The entry at j may fill the hole at i unless its home slot
		// lies in the cyclic range (i, j].
		if home := int(hj) & mask; (j-home)&mask >= (j-i)&mask {
			t.set(i, cj, hj)
			i = j
		}
	}
	t.set(i, nil, 0)
	t.n--
	if c.IsDir() {
		t.subdirs--
	}
	return c
}

// each calls fn with every child and its stored hash, in slot order (which
// is not name order: callers that need an order sort).
func (t *childTable) each(fn func(c *Node, h uint32)) {
	for g := range t.groups {
		for s, c := range t.groups[g].node {
			if c != nil {
				fn(c, t.groups[g].hash[s])
			}
		}
	}
}
