package rados

import (
	"fmt"
	"testing"
	"testing/quick"

	"mantle/internal/sim"
)

func newTestCluster(t *testing.T) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine(1)
	c := NewCluster(e, Config{OSDs: 8, PGs: 64, Replicas: 3, WriteLatency: 100, ReadLatency: 50})
	return e, c
}

func TestWriteRead(t *testing.T) {
	e, c := newTestCluster(t)
	p := c.Pool("meta")
	var got []byte
	var found bool
	p.Write("obj1", []byte("payload"), func() {
		p.Read("obj1", func(data []byte, ok bool) {
			got, found = data, ok
		})
	})
	e.RunUntilIdle()
	if !found || string(got) != "payload" {
		t.Fatalf("read got %q found=%v", got, found)
	}
	if c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("reads=%d writes=%d", c.Reads, c.Writes)
	}
}

func TestReadMissing(t *testing.T) {
	e, c := newTestCluster(t)
	var called, ok bool
	c.Pool("meta").Read("nope", func(data []byte, k bool) { called, ok = true, k })
	e.RunUntilIdle()
	if !called || ok {
		t.Fatalf("called=%v ok=%v", called, ok)
	}
}

func TestWriteReplacesAndBumpsVersion(t *testing.T) {
	e, c := newTestCluster(t)
	p := c.Pool("meta")
	p.Write("o", []byte("v1"), nil)
	p.Write("o", []byte("v2"), nil)
	e.RunUntilIdle()
	obj, ok := p.Stat("o")
	if !ok || string(obj.Data) != "v2" || obj.Version != 2 {
		t.Fatalf("obj=%+v ok=%v", obj, ok)
	}
}

func TestAppend(t *testing.T) {
	e, c := newTestCluster(t)
	p := c.Pool("meta")
	p.Append("log", []byte("aa"), nil)
	p.Append("log", []byte("bb"), nil)
	e.RunUntilIdle()
	obj, _ := p.Stat("log")
	if string(obj.Data) != "aabb" {
		t.Fatalf("data = %q", obj.Data)
	}
}

func TestOMap(t *testing.T) {
	e, c := newTestCluster(t)
	p := c.Pool("meta")
	p.OMapSet("dir.0", map[string][]byte{"file1": []byte("ino1"), "file2": []byte("ino2")}, nil)
	p.OMapSet("dir.0", map[string][]byte{"file3": []byte("ino3")}, nil)
	var kv map[string][]byte
	e.RunUntilIdle()
	p.OMapGet("dir.0", func(m map[string][]byte, ok bool) { kv = m })
	e.RunUntilIdle()
	if len(kv) != 3 || string(kv["file2"]) != "ino2" {
		t.Fatalf("omap = %v", kv)
	}
}

func TestOMapGetMissing(t *testing.T) {
	e, c := newTestCluster(t)
	var ok = true
	c.Pool("meta").OMapGet("none", func(m map[string][]byte, k bool) { ok = k })
	e.RunUntilIdle()
	if ok {
		t.Fatal("missing object reported ok")
	}
}

func TestRemove(t *testing.T) {
	e, c := newTestCluster(t)
	p := c.Pool("meta")
	p.Write("o", []byte("x"), nil)
	e.RunUntilIdle()
	var existed bool
	p.Remove("o", func(ok bool) { existed = ok })
	e.RunUntilIdle()
	if !existed {
		t.Fatal("remove should report existed")
	}
	if _, ok := p.Stat("o"); ok {
		t.Fatal("object still present")
	}
	p.Remove("o", func(ok bool) { existed = ok })
	e.RunUntilIdle()
	if existed {
		t.Fatal("second remove should report !existed")
	}
}

func TestPoolsIsolated(t *testing.T) {
	e, c := newTestCluster(t)
	c.Pool("a").Write("o", []byte("A"), nil)
	c.Pool("b").Write("o", []byte("B"), nil)
	e.RunUntilIdle()
	oa, _ := c.Pool("a").Stat("o")
	ob, _ := c.Pool("b").Stat("o")
	if string(oa.Data) != "A" || string(ob.Data) != "B" {
		t.Fatal("pools share objects")
	}
	if c.Pool("a") != c.Pool("a") {
		t.Fatal("Pool() must be idempotent")
	}
}

func TestPlacementDeterministicAndDistinct(t *testing.T) {
	_, c := newTestCluster(t)
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("obj%d", i)
		a := c.PlaceOSDs("meta", name)
		b := c.PlaceOSDs("meta", name)
		if len(a) != 3 {
			t.Fatalf("replicas = %d", len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("placement not deterministic")
			}
		}
		seen := map[int]bool{}
		for _, o := range a {
			if seen[o] {
				t.Fatalf("duplicate OSD in placement %v", a)
			}
			seen[o] = true
		}
	}
}

func TestPlacementSpread(t *testing.T) {
	_, c := newTestCluster(t)
	counts := make([]int, 8)
	for i := 0; i < 2000; i++ {
		for _, o := range c.PlaceOSDs("meta", fmt.Sprintf("o%d", i)) {
			counts[o]++
		}
	}
	// 6000 placements over 8 OSDs => mean 750. Allow generous slack but
	// catch gross imbalance (e.g. all on one OSD).
	for id, n := range counts {
		if n < 300 || n > 1500 {
			t.Fatalf("OSD %d got %d placements (counts=%v)", id, n, counts)
		}
	}
}

// Property: placement is always Replicas distinct OSDs in range.
func TestPlacementProperty(t *testing.T) {
	_, c := newTestCluster(t)
	f := func(name string) bool {
		p := c.PlaceOSDs("pool", name)
		if len(p) != 3 {
			return false
		}
		seen := map[int]bool{}
		for _, o := range p {
			if o < 0 || o >= 8 || seen[o] {
				return false
			}
			seen[o] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteLatencyModel(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewCluster(e, Config{OSDs: 4, PGs: 16, Replicas: 2, WriteLatency: 100, ReadLatency: 50, BytePerUS: 10})
	p := c.Pool("meta")
	var doneAt sim.Time
	p.Write("o", make([]byte, 1000), func() { doneAt = e.Now() })
	e.RunUntilIdle()
	// 100 base + 1000/10 size = 200 with no jitter.
	if doneAt != 200 {
		t.Fatalf("write completed at %v, want 200", doneAt)
	}
}

func TestReplicasClampedToOSDs(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewCluster(e, Config{OSDs: 2, PGs: 8, Replicas: 5, WriteLatency: 10, ReadLatency: 10})
	got := c.PlaceOSDs("p", "o")
	if len(got) != 2 {
		t.Fatalf("placement size = %d, want clamp to 2", len(got))
	}
	_ = e
}

func TestOSDStatsCount(t *testing.T) {
	e, c := newTestCluster(t)
	p := c.Pool("meta")
	p.Write("o", []byte("x"), nil)
	e.RunUntilIdle()
	p.Read("o", func([]byte, bool) {})
	e.RunUntilIdle()
	reads, writes := c.OSDStats()
	var r, w uint64
	for i := range reads {
		r += reads[i]
		w += writes[i]
	}
	if w != 3 { // 3 replicas
		t.Fatalf("replica writes = %d, want 3", w)
	}
	if r != 1 {
		t.Fatalf("primary reads = %d, want 1", r)
	}
}

func TestJournalAppendAndRoll(t *testing.T) {
	e, c := newTestCluster(t)
	j := NewJournal(c.Pool("mds0-journal"), "200", 64)
	for i := 0; i < 5; i++ {
		j.Append(EntryUpdate, 16, nil) // 32 bytes per entry
	}
	e.RunUntilIdle()
	if j.Flushed() != 5 || j.Pending() != 0 {
		t.Fatalf("flushed=%d pending=%d", j.Flushed(), j.Pending())
	}
	if j.Bytes() != 5*32 {
		t.Fatalf("bytes = %d", j.Bytes())
	}
	// 160 bytes over 64-byte chunks => objects 200.0, 200.1, 200.2.
	if j.Objects() != 3 {
		t.Fatalf("objects = %d, want 3", j.Objects())
	}
	if c.Pool("mds0-journal").Len() != 3 {
		t.Fatalf("pool objects = %d", c.Pool("mds0-journal").Len())
	}
	// Entries are placed by the bytes written before them, so a journal
	// holding exactly one chunk's worth has only ever started 200.0.
	e, c = newTestCluster(t)
	j = NewJournal(c.Pool("mds0-journal"), "200", 64)
	j.Append(EntryUpdate, 16, nil)
	j.Append(EntryUpdate, 16, nil)
	e.RunUntilIdle()
	if j.Bytes() != 64 || j.Objects() != 1 || c.Pool("mds0-journal").Len() != 1 {
		t.Fatalf("full first chunk: bytes=%d objects=%d pool objects=%d, want 64/1/1",
			j.Bytes(), j.Objects(), c.Pool("mds0-journal").Len())
	}
}

func TestJournalDurabilityOrdering(t *testing.T) {
	e, c := newTestCluster(t)
	j := NewJournal(c.Pool("j"), "1", 0)
	var order []uint64
	for i := 0; i < 3; i++ {
		j.Append(EntryExportStart, 8, func() { order = append(order, j.Flushed()) })
	}
	if j.Pending() != 3 {
		t.Fatalf("pending = %d", j.Pending())
	}
	e.RunUntilIdle()
	if len(order) != 3 {
		t.Fatalf("callbacks = %d", len(order))
	}
}

func TestEntryKindString(t *testing.T) {
	kinds := []EntryKind{EntryUpdate, EntryExportStart, EntryExportFinish, EntryImportStart, EntryImportFinish, EntrySubtreeMap}
	for _, k := range kinds {
		if k.String() == "" || k.String()[0] == 'k' {
			t.Fatalf("kind %d has bad string %q", k, k.String())
		}
	}
	if EntryKind(99).String() != "kind(99)" {
		t.Fatalf("unknown kind string = %q", EntryKind(99).String())
	}
}

func TestOSDFaultSlowFactor(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewCluster(e, Config{OSDs: 3, Replicas: 1, WriteLatency: 100, PGs: 8})
	p := c.Pool("t")
	var plain sim.Time
	p.Write("a", make([]byte, 10), func() { plain = e.Now() })
	e.RunUntilIdle()

	e2 := sim.NewEngine(1)
	c2 := NewCluster(e2, Config{OSDs: 3, Replicas: 1, WriteLatency: 100, PGs: 8})
	c2.SetFault(4, 0, 0)
	p2 := c2.Pool("t")
	var slow sim.Time
	p2.Write("a", make([]byte, 10), func() { slow = e2.Now() })
	e2.RunUntilIdle()
	if slow != 4*plain {
		t.Fatalf("slow=%v plain=%v, want 4x", slow, plain)
	}
}

func TestOSDFaultErrorRetries(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewCluster(e, Config{OSDs: 3, Replicas: 2, WriteLatency: 100, PGs: 8})
	c.SetFault(0, 0.5, 11)
	p := c.Pool("t")
	done := 0
	for i := 0; i < 50; i++ {
		p.Write(fmt.Sprintf("obj%d", i), make([]byte, 8), func() { done++ })
	}
	e.RunUntilIdle()
	if done != 50 {
		t.Fatalf("only %d/50 ops completed under injected errors", done)
	}
	if c.Retries == 0 {
		t.Fatal("no retries recorded at p=0.5")
	}
	// Clearing stops the bleeding.
	c.ClearFault()
	before := c.Retries
	p.Write("after", nil, nil)
	e.RunUntilIdle()
	if c.Retries != before {
		t.Fatal("retries after ClearFault")
	}
}

// TestOSDFaultPassiveWhenClear proves an untouched cluster and one that had
// a fault installed and cleared behave identically.
func TestOSDFaultPassiveWhenClear(t *testing.T) {
	run := func(touch bool) sim.Time {
		e := sim.NewEngine(9)
		c := NewCluster(e, Config{OSDs: 4, Replicas: 2, WriteLatency: 100, Jitter: 30, PGs: 8})
		if touch {
			c.SetFault(3, 0.5, 1)
			c.ClearFault()
		}
		p := c.Pool("t")
		var at sim.Time
		for i := 0; i < 30; i++ {
			p.Write(fmt.Sprintf("o%d", i), make([]byte, 64), func() { at = e.Now() })
		}
		e.RunUntilIdle()
		return at
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("fault machinery perturbed a clean run: %v vs %v", a, b)
	}
}
