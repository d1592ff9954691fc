package namespace

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"testing"

	"mantle/internal/sim"
)

// childTableOps drives a childTable and a map[string]*Node oracle through
// the same sequence of puts, gets, deletes, length checks and iterations,
// decoded from ops two bytes at a time: the low bits of the first pick the
// operation, the second picks one of 64 names (a small universe, so puts
// replace and deletes hit). With narrow, hashes keep only their low three
// bits: every name collides with many others, so probe runs are long and
// wrap, and backward-shift deletes move entries across the wrap.
func childTableOps(t *testing.T, ops []byte, narrow bool) {
	t.Helper()
	hashOf := HashName
	if narrow {
		hashOf = func(name string) uint32 { return HashName(name) & 7 }
	}
	node := func(name string, dir bool) *Node {
		n := &Node{name: name}
		if dir {
			n.dir = &dirState{}
		}
		return n
	}
	var tab childTable
	oracle := map[string]*Node{}
	check := func(step int) {
		t.Helper()
		if int(tab.n) != len(oracle) {
			t.Fatalf("step %d: table holds %d, oracle %d", step, tab.n, len(oracle))
		}
		if tab.n > 0 && 4*int(tab.n) > 3*tab.size() {
			t.Fatalf("step %d: %d entries in %d slots, over 3/4", step, tab.n, tab.size())
		}
		subdirs := 0
		seen := map[string]bool{}
		tab.each(func(c *Node, h uint32) {
			if seen[c.name] {
				t.Fatalf("step %d: %q stored twice", step, c.name)
			}
			seen[c.name] = true
			if oracle[c.name] != c {
				t.Fatalf("step %d: table holds %q, oracle does not", step, c.name)
			}
			if h != hashOf(c.name) {
				t.Fatalf("step %d: %q stored under %#x", step, c.name, h)
			}
			if c.IsDir() {
				subdirs++
			}
		})
		if len(seen) != len(oracle) || subdirs != int(tab.subdirs) {
			t.Fatalf("step %d: iterated %d (%d dirs), oracle %d, subdirs %d", step, len(seen), subdirs, len(oracle), tab.subdirs)
		}
		for name, want := range oracle {
			if got := tab.get(name, hashOf(name)); got != want {
				t.Fatalf("step %d: get(%q) = %p, oracle %p", step, name, got, want)
			}
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		name := fmt.Sprintf("n%02d", ops[i+1]%64)
		h := hashOf(name)
		switch ops[i] % 4 {
		case 0, 1: // put, as a fresh node (a replacement when present)
			c := node(name, ops[i]&0x10 != 0)
			tab.put(c, h)
			oracle[name] = c
		case 2: // delete
			got := tab.del(name, h)
			if got != oracle[name] {
				t.Fatalf("step %d: del(%q) = %p, oracle %p", i/2, name, got, oracle[name])
			}
			delete(oracle, name)
		case 3: // get of a name that may be absent
			if got := tab.get(name, h); got != oracle[name] {
				t.Fatalf("step %d: get(%q) = %p, oracle %p", i/2, name, got, oracle[name])
			}
		}
		check(i / 2)
	}
}

// TestChildTableMatchesMap: seeded random sequences against the map the
// table replaced, through growth from empty and through backward-shift
// deletes, with real and with deliberately colliding hashes.
func TestChildTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(80+rng.Intn(400)))
		rng.Read(ops)
		if seed%4 == 0 {
			// Grow to the full universe first, then churn.
			for i := 0; i < 128; i += 2 {
				ops[i], ops[i+1] = 0, byte(i/2)
			}
		}
		childTableOps(t, ops, seed%2 == 0)
	}
}

// FuzzChildTable: arbitrary put/get/del/len/iterate sequences against the
// map oracle.
func FuzzChildTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 2, 3, 2, 3, 3}, false)
	f.Add([]byte{0, 5, 16, 13, 0, 21, 0, 29, 2, 5, 2, 13, 1, 37, 2, 21}, true)
	f.Fuzz(func(t *testing.T, ops []byte, narrow bool) {
		childTableOps(t, ops, narrow)
	})
}

// TestHashNameIsFNV1a: the inline hash is FNV-1a plus the finaliser, bit
// for bit — every fragment boundary and scale digest depends on it.
func TestHashNameIsFNV1a(t *testing.T) {
	for _, name := range []string{"", "a", "src0042.o", "c3-0001234", "vmlinux", "\xff\x00z"} {
		h := fnv.New32a()
		h.Write([]byte(name))
		x := h.Sum32()
		x ^= x >> 16
		x *= 0x85ebca6b
		x ^= x >> 13
		x *= 0xc2b2ae35
		x ^= x >> 16
		if got := HashName(name); got != x {
			t.Fatalf("HashName(%q) = %#x, FNV-1a oracle %#x", name, got, x)
		}
	}
}

// TestEmptyDirectoryAllocatesNoTable: a directory's child table exists only
// once it has a child, and sorted listings survive the table's slot order.
func TestEmptyDirectoryAllocatesNoTable(t *testing.T) {
	ns := New(sim.Second)
	d, err := ns.Create(ns.Root(), "d", true)
	if err != nil {
		t.Fatal(err)
	}
	if d.dir.children.groups != nil {
		t.Fatalf("empty directory holds %d table groups", len(d.dir.children.groups))
	}
	want := []string{}
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("f%03d", (i*37)%50)
		if _, err := ns.Create(d, name, i%5 == 0); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	sort.Strings(want)
	got := d.ChildNames()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ChildNames = %v", got)
	}
	var visited []string
	d.Children(func(c *Node) bool { visited = append(visited, c.Name()); return true })
	if fmt.Sprint(visited) != fmt.Sprint(want) {
		t.Fatalf("Children visited %v", visited)
	}
}

// retainedPer reports the live heap bytes build leaves behind, per unit.
func retainedPer(units int, build func() any) float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	keep := build()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	after := ms.HeapAlloc
	runtime.KeepAlive(keep)
	return float64(int64(after)-int64(before)) / float64(units)
}

// TestRetainedBytesPinned pins what the namespace retains per directory and
// per file dentry, names excluded. Measured: an empty directory 440–444 B
// (456 while a node carried an inode number; 520 while each of a Counters'
// five decay counters kept its own copy of the half-life, which cost 32 B
// in the dirNode and 32 B in its FragState; 744 before the child table and
// the frag slice: a 256-byte dirNode, an empty children map header and a
// one-entry frag map), a file dentry in a 100 000-file directory 51.5 B,
// node included (58.1 B with the 40-byte node, 79.6 B with the 64-byte
// node, 99 B with the map). Re-pin down, never up.
func TestRetainedBytesPinned(t *testing.T) {
	names := make([]string, 100000)
	for i := range names {
		names[i] = fmt.Sprintf("e%07d", i)
	}
	build := func(n int, dir bool) func() any {
		return func() any {
			ns := New(sim.Second)
			d, _ := ns.Create(ns.Root(), "d", true)
			for _, name := range names[:n] {
				if _, err := ns.Create(d, name, dir); err != nil {
					t.Fatal(err)
				}
			}
			return ns
		}
	}
	if per := retainedPer(10000, build(10000, true)); per > 460 {
		t.Errorf("an empty directory retains %.1f B, pinned at 460", per)
	}
	if per := retainedPer(100000, build(100000, false)); per > 53 {
		t.Errorf("a file dentry retains %.1f B, pinned at 53", per)
	}
}

// scannablePer reports the scannable heap bytes (runtime/metrics
// /gc/scan/heap:bytes, as of the last collection: what the GC traces each
// cycle) that build leaves behind, per unit.
func scannablePer(units int, build func() any) float64 {
	sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	read := func() uint64 {
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	before := read()
	keep := build()
	after := read()
	runtime.KeepAlive(keep)
	return float64(int64(after)-int64(before)) / float64(units)
}

// TestScannableBytesPinned pins what the collector must trace per file
// dentry in a 100 000-file directory, node and child-table slot included:
// a 32-byte node (a slab of them is scanned whole), plus its share of the
// table's pointer slots. Measured: 51.5 B (58.0 B with the 40-byte node,
// 79.6 B with the 64-byte node and its five pointer words). Re-pin down,
// never up.
func TestScannableBytesPinned(t *testing.T) {
	names := make([]string, 100000)
	for i := range names {
		names[i] = fmt.Sprintf("e%07d", i)
	}
	per := scannablePer(len(names), func() any {
		ns := New(sim.Second)
		d, _ := ns.Create(ns.Root(), "d", true)
		for _, name := range names {
			if _, err := ns.Create(d, name, false); err != nil {
				t.Fatal(err)
			}
		}
		return ns
	})
	if per > 53 {
		t.Errorf("a file dentry leaves %.1f scannable B, pinned at 53", per)
	}
}

// TestChildTableConcurrentCreates: in sharded mode the ranks owning the
// fragments of one directory insert into and look up in its table at once,
// under the read lock and childMu, as they did with the map. Each rank
// creates only names that hash into its own fragment (the single-writer
// rule for a frag's entry count). Run under -race.
func TestChildTableConcurrentCreates(t *testing.T) {
	const ranks, perRank = 4, 300
	ns := New(sim.Second)
	ns.EnableSharding(ranks)
	d, err := ns.CreatePath("/shared", true)
	if err != nil {
		t.Fatal(err)
	}
	kids := ns.SplitDir(d, RootFrag, 2, 0)
	names := make([][]string, ranks)
	for i := 0; len(names[0]) < perRank || len(names[1]) < perRank ||
		len(names[2]) < perRank || len(names[3]) < perRank; i++ {
		name := fmt.Sprintf("f%06d", i)
		for r, kf := range kids {
			if kf.ContainsName(name) && len(names[r]) < perRank {
				names[r] = append(names[r], name)
			}
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			v := ns.View(r)
			for i, name := range names[r] {
				if _, err := v.Create(d, name, i%10 == 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := v.Resolve("/shared/" + name); err != nil {
					t.Error(err)
					return
				}
				d.Lookup(names[(r+1)%ranks][i])
			}
		}(r)
	}
	wg.Wait()
	if n := d.NumChildren(); n != ranks*perRank {
		t.Fatalf("%d children, want %d", n, ranks*perRank)
	}
	if err := ns.CheckInvariants(1, false); err != nil {
		t.Fatal(err)
	}
}

// TestNestedSplitMergeKeepsFragStates: splitting a leaf below the root
// rebuckets its dentries by the stored hashes' next bits, splices the kids'
// states in place of their parent's, and merges splice the parent's back;
// every leaf's entry count matches the names that hash into it.
func TestNestedSplitMergeKeepsFragStates(t *testing.T) {
	ns := New(sim.Second)
	d, err := ns.CreatePath("/d", true)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 2000; i++ {
		names = append(names, fmt.Sprintf("f%05d", i))
		if _, err := ns.Create(d, names[i], i%50 == 0); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string, leaves int) {
		t.Helper()
		if err := ns.CheckInvariants(1, false); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		got := d.FragLeaves()
		if len(got) != leaves {
			t.Fatalf("%s: %d leaves, want %d", stage, len(got), leaves)
		}
		for _, f := range got {
			want := 0
			for _, name := range names {
				if f.ContainsName(name) {
					want++
				}
			}
			fs, ok := d.FragStateOf(f)
			if !ok || fs.Frag != f || fs.Entries != want {
				t.Fatalf("%s: leaf %v state %v holds %d entries, %d names hash into it", stage, f, ok, fs.Entries, want)
			}
		}
	}
	kids := ns.SplitDir(d, RootFrag, 3, sim.Second)
	check("split root", 8)
	ns.SplitDir(d, kids[5], 2, sim.Second)
	check("split a kid", 11)
	if !ns.MergeDir(d, kids[5], 2, sim.Second) {
		t.Fatal("merging the kid's leaves back refused")
	}
	check("merge the kid", 8)
	if !ns.MergeDir(d, RootFrag, 3, sim.Second) {
		t.Fatal("merging to the root refused")
	}
	check("merge to the root", 1)
}
