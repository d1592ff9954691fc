package rados

import (
	"encoding/binary"
	"runtime"
	"strconv"
	"testing"

	"mantle/internal/sim"
)

// literalJournal is the pre-memory-pass Journal.Append, kept as the oracle:
// it builds every entry in full (header plus zero padding) and appends the
// bytes through Pool.Append.
type literalJournal struct {
	pool      *Pool
	prefix    string
	chunkSize int
	seq       uint64
	written   uint64
	flushed   uint64
}

func (j *literalJournal) Append(kind EntryKind, payloadSize int) {
	j.seq++
	entry := make([]byte, 16+payloadSize)
	entry[0] = byte(kind)
	binary.LittleEndian.PutUint64(entry[1:9], j.seq)
	binary.LittleEndian.PutUint32(entry[9:13], uint32(payloadSize))
	obj := j.prefix + "." + strconv.FormatUint(j.written/uint64(j.chunkSize), 10)
	j.written += uint64(len(entry))
	j.pool.Append(obj, entry, func() { j.flushed++ })
}

func journalCluster() (*sim.Engine, *Cluster) {
	e := sim.NewEngine(7)
	cfg := DefaultConfig() // jitter and a size term, so latency draws matter
	return e, NewCluster(e, cfg)
}

func totalBusy(c *Cluster) (busy sim.Time) {
	for _, o := range c.osds {
		busy += o.busy
	}
	return busy
}

// TestJournalStoresNoBytes: the journal charges the object store for whole
// entries — same latency draws, OSD busy time, roll-over, sizes and versions
// as appending the literal bytes — but its objects store no bytes.
func TestJournalStoresNoBytes(t *testing.T) {
	const n, payload, chunk = 10000, 512, 1 << 22
	e, c := journalCluster()
	j := NewJournal(c.Pool("meta"), "200", chunk)
	oe, oc := journalCluster()
	oracle := &literalJournal{pool: oc.Pool("meta"), prefix: "200", chunkSize: chunk}
	for i := 0; i < n; i++ {
		j.Append(EntryUpdate, payload, nil)
		oracle.Append(EntryUpdate, payload)
	}
	e.RunUntilIdle()
	oe.RunUntilIdle()

	if j.Bytes() != 528*n || j.Bytes() != oracle.written {
		t.Fatalf("Bytes() = %d, oracle %d, want %d", j.Bytes(), oracle.written, 528*n)
	}
	if j.Flushed() != n || oracle.flushed != n || j.Pending() != 0 {
		t.Fatalf("flushed %d (oracle %d) pending %d, want %d/0", j.Flushed(), oracle.flushed, j.Pending(), n)
	}
	if e.Now() != oe.Now() || totalBusy(c) != totalBusy(oc) {
		t.Fatalf("cost model diverged: end %v vs %v, osd busy %v vs %v",
			e.Now(), oe.Now(), totalBusy(c), totalBusy(oc))
	}
	if j.Objects() < 2 || j.Objects() != oc.Pool("meta").Len() || c.Pool("meta").Len() != j.Objects() {
		t.Fatalf("objects: journal %d, pool %d, oracle pool %d (want a roll-over)",
			j.Objects(), c.Pool("meta").Len(), oc.Pool("meta").Len())
	}
	stored := 0
	for i := 0; i < j.Objects(); i++ {
		name := "200." + strconv.Itoa(i)
		obj, ok := c.Pool("meta").Stat(name)
		want, wok := oc.Pool("meta").Stat(name)
		if !ok || !wok {
			t.Fatalf("object %s: present %v, oracle %v", name, ok, wok)
		}
		if obj.Size != uint64(len(want.Data)) || obj.Version != want.Version {
			t.Fatalf("%s: size %d version %d, oracle %d/%d", name, obj.Size, obj.Version, len(want.Data), want.Version)
		}
		stored += len(obj.Data)
	}
	if stored != 0 {
		t.Fatalf("journal objects store %d bytes for %d entries, want 0", stored, n)
	}
}

// TestJournalAppendAllocBytes: an append and its ack allocate nothing — the
// entry record is pooled, its ack bound once, and no header bytes are
// stored. Storing headers cost 36–39 amortised bytes (the buffer doubling);
// with closures it was 3 objects and 143 B per append (>= 1 056 B before
// the memory pass).
func TestJournalAppendAllocBytes(t *testing.T) {
	const n = 10000
	e, c := journalCluster()
	j := NewJournal(c.Pool("meta"), "200", 0)
	appendOne := func() {
		j.Append(EntryUpdate, 512, nil)
		e.RunUntilIdle()
	}
	appendOne() // warm: placement cache, first object, event pool, entry pool
	if allocs := testing.AllocsPerRun(1000, appendOne); allocs != 0 {
		t.Fatalf("Journal.Append+ack allocates %.0f objects, want 0", allocs)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		appendOne()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per != 0 {
		t.Fatalf("Journal.Append allocates %d B per entry, want 0", per)
	}
	if len(j.free) != 1 {
		t.Fatalf("%d idle entry records after serial appends, want 1", len(j.free))
	}
}
