package rados

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// Journal is an append-only per-MDS log striped across journal objects, the
// way each CephFS MDS journals metadata updates to RADOS before acking. The
// two-phase-commit migration protocol journals on both the exporter and the
// importer; those writes are the dominant fixed cost of a migration.
type Journal struct {
	pool      *Pool
	prefix    string
	chunkSize int

	seq     uint64
	written uint64 // bytes appended across all entries
	pending int
	flushed uint64 // entries fully durable

	// curObj caches the formatted name of the chunk being appended to;
	// it only changes when written crosses a chunk boundary.
	curChunk uint64
	curObj   string

	free []*journalEntry // idle entry records
}

// NewJournal creates a journal whose objects are named prefix.N in pool.
// chunkSize bounds the bytes per journal object before rolling to the next.
func NewJournal(pool *Pool, prefix string, chunkSize int) *Journal {
	if chunkSize <= 0 {
		chunkSize = 1 << 22 // 4 MiB, Ceph's default journal object size
	}
	return &Journal{pool: pool, prefix: prefix, chunkSize: chunkSize}
}

// EntryKind labels journal entries for post-run inspection.
type EntryKind uint8

// Journal entry kinds used by the MDS.
const (
	EntryUpdate EntryKind = iota + 1 // regular metadata update
	EntryExportStart
	EntryExportFinish
	EntryImportStart
	EntryImportFinish
	EntrySubtreeMap
	// EntryExportAbort rolls back an EntryExportStart whose commit never
	// arrived (importer death or partition); recovery treats the subtree as
	// never having left.
	EntryExportAbort
	// EntryImportAbort rolls back an EntryImportStart whose payload never
	// arrived; recovery discards the half-imported intent.
	EntryImportAbort
	// Membership entries: the elastic coordinator journals every rank
	// join/leave so a coordinator restart mid-transition aborts cleanly
	// instead of leaving a half-member. A start without a matching commit
	// or abort is an incomplete transition.
	EntryJoinStart
	EntryJoinCommit
	EntryJoinAbort
	EntryLeaveStart
	EntryLeaveCommit
	EntryLeaveAbort
)

func (k EntryKind) String() string {
	switch k {
	case EntryUpdate:
		return "update"
	case EntryExportStart:
		return "export-start"
	case EntryExportFinish:
		return "export-finish"
	case EntryImportStart:
		return "import-start"
	case EntryImportFinish:
		return "import-finish"
	case EntrySubtreeMap:
		return "subtree-map"
	case EntryExportAbort:
		return "export-abort"
	case EntryImportAbort:
		return "import-abort"
	case EntryJoinStart:
		return "join-start"
	case EntryJoinCommit:
		return "join-commit"
	case EntryJoinAbort:
		return "join-abort"
	case EntryLeaveStart:
		return "leave-start"
	case EntryLeaveCommit:
		return "leave-commit"
	case EntryLeaveAbort:
		return "leave-abort"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// entryHeaderSize is the stored part of an entry: kind, seq and payload size.
const entryHeaderSize = 16

// Append journals an entry of the given kind and payload size, invoking done
// when it is durable on all replicas. Experiments depend on entry sizes and
// latencies, not on replayable bytes, so the object store is charged for the
// whole entry (header plus payload) but the journal object keeps only the
// header; the payload is counted in Object.Size.
func (j *Journal) Append(kind EntryKind, payloadSize int, done func()) {
	j.seq++
	chunk := j.written / uint64(j.chunkSize)
	if j.curObj == "" || chunk != j.curChunk {
		j.curChunk = chunk
		j.curObj = j.prefix + "." + strconv.FormatUint(chunk, 10)
	}
	j.written += uint64(entryHeaderSize + payloadSize)
	j.pending++
	e := j.alloc()
	e.obj, e.kind, e.seq, e.payload, e.done = j.curObj, kind, j.seq, payloadSize, done
	j.pool.cluster.engine.Schedule(j.pool.charge(e.obj, entryHeaderSize+payloadSize), e.ackedFn)
}

// journalEntry is one append in flight. Records are pooled on the journal
// (its rank's clock owns both) with acked bound once, so an append schedules
// no fresh closure.
type journalEntry struct {
	j       *Journal
	obj     string
	kind    EntryKind
	seq     uint64
	payload int
	done    func()
	ackedFn func()
}

// alloc takes an entry record from the free list, or makes one.
func (j *Journal) alloc() *journalEntry {
	if n := len(j.free); n > 0 {
		e := j.free[n-1]
		j.free[n-1] = nil
		j.free = j.free[:n-1]
		return e
	}
	e := &journalEntry{j: j}
	e.ackedFn = e.acked
	return e
}

// acked runs once every replica has the entry: it stores the header, counts
// the entry durable, releases the record and runs done.
func (e *journalEntry) acked() {
	j := e.j
	obj := j.pool.commit(e.obj)
	var hdr [entryHeaderSize]byte
	hdr[0] = byte(e.kind)
	binary.LittleEndian.PutUint64(hdr[1:9], e.seq)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(e.payload))
	if len(obj.Data) == cap(obj.Data) {
		// Double: append grows a large slice by a quarter, which
		// allocates five bytes for each one the object keeps.
		obj.Data = append(make([]byte, 0, 2*cap(obj.Data)+entryHeaderSize), obj.Data...)
	}
	obj.Data = append(obj.Data, hdr[:]...)
	obj.Size += uint64(entryHeaderSize + e.payload)
	done := e.done
	e.obj, e.done = "", nil
	j.free = append(j.free, e)
	j.pending--
	j.flushed++
	if done != nil {
		done()
	}
}

// Flushed reports the number of durable entries.
func (j *Journal) Flushed() uint64 { return j.flushed }

// Pending reports entries appended but not yet durable.
func (j *Journal) Pending() int { return j.pending }

// Bytes reports total bytes appended.
func (j *Journal) Bytes() uint64 { return j.written }

// Objects reports how many journal objects have been started.
func (j *Journal) Objects() int {
	if j.written == 0 {
		return 0
	}
	return int(j.curChunk) + 1
}
