// Package rados simulates the reliable object store that CephFS journals to
// and swaps directory fragments out to. It provides pools of named objects
// with byte data, omap key/value pairs and xattrs, CRUSH-style deterministic
// placement onto simulated OSDs, replicated writes, and asynchronous
// completion callbacks driven by the discrete-event engine.
//
// The data path of the paper's cluster (file contents striped over OSDs) is
// intentionally out of scope — only the metadata path uses the object store —
// but the latency of journal writes and dirfrag fetches/stores shapes MDS
// behaviour, so those costs are modelled.
package rados

import (
	"math/rand"
	"sort"
	"strconv"

	"mantle/internal/sim"
	"mantle/internal/telemetry"
)

// Config models OSD and replication behaviour.
type Config struct {
	// OSDs is the number of object storage daemons.
	OSDs int
	// PGs is the number of placement groups per pool.
	PGs int
	// Replicas is the replication factor (writes complete after all
	// replicas ack, as RADOS does).
	Replicas int
	// WriteLatency is the base latency for a replica write (journal +
	// apply on the OSD's SSD journal partition).
	WriteLatency sim.Time
	// ReadLatency is the base latency for a primary read.
	ReadLatency sim.Time
	// BytePerUS adds size-dependent latency: one extra microsecond per
	// this many bytes. Zero disables the size term.
	BytePerUS int
	// Jitter is applied to every OSD operation.
	Jitter sim.Time
}

// DefaultConfig mirrors the paper's testbed shape: 18 OSDs with SSD journals.
func DefaultConfig() Config {
	return Config{
		OSDs:         18,
		PGs:          128,
		Replicas:     2,
		WriteLatency: 350 * sim.Microsecond,
		ReadLatency:  300 * sim.Microsecond,
		BytePerUS:    4096,
		Jitter:       50 * sim.Microsecond,
	}
}

// Object is a stored object.
type Object struct {
	Name string
	Data []byte
	// Size is the logical length of the byte stream written to the object.
	// It exceeds len(Data) where a writer stored less than it accounted:
	// journal objects hold entry headers and only count the payload.
	Size  uint64
	OMap  map[string][]byte
	XAttr map[string][]byte
	// Version increments on every mutation.
	Version uint64
}

func newObject(name string) *Object {
	return &Object{Name: name, OMap: map[string][]byte{}, XAttr: map[string][]byte{}}
}

// osd tracks per-daemon counters so experiments can check balance.
type osd struct {
	id     int
	reads  uint64
	writes uint64
	busy   sim.Time
}

// Pool is a named collection of objects with its own placement.
type Pool struct {
	name    string
	cluster *Cluster
	objects map[string]*Object
	// placements caches the OSD set per placement group. Straw draws
	// depend only on (pool, pg, osd) — exactly CRUSH's property — so the
	// expensive hash-and-sort runs once per PG, not once per object op.
	placements [][]int
}

// Cluster is the simulated object store. In simulation it schedules
// completions on the DES engine; the live runtime builds one Cluster per
// MDS rank on that rank's wall clock, so completion callbacks run on the
// owning actor.
type Cluster struct {
	engine sim.Clock
	cfg    Config
	pools  map[string]*Pool
	osds   []*osd

	// Ops counts completed operations by kind.
	Reads, Writes uint64

	// Fault state (slow and erroring OSD ops). The RNG is dedicated so a
	// run with no fault installed performs zero draws and stays
	// bit-identical to a run without the machinery.
	slowFactor float64
	errorProb  float64
	faultRng   *rand.Rand
	// Retries counts ops that hit an injected OSD error and were retried
	// internally (the client-visible effect is a latency spike, as with
	// RADOS redirecting around a flapping OSD).
	Retries uint64

	// Telemetry (nil = disabled).
	tel     *telemetry.Telemetry
	cReads  *telemetry.Counter
	cWrites *telemetry.Counter
	hRead   *telemetry.Histogram
	hWrite  *telemetry.Histogram
}

// SetTelemetry attaches a telemetry sink. Latencies are observed at issue
// time (the op's simulated completion latency), so the histogram reflects
// the OSD cost model including replication fan-out and size terms.
func (c *Cluster) SetTelemetry(t *telemetry.Telemetry) {
	c.tel = t
	if t == nil {
		return
	}
	c.cReads = t.Reg.Counter("rados.reads", telemetry.NoRank)
	c.cWrites = t.Reg.Counter("rados.writes", telemetry.NoRank)
	c.hRead = t.Reg.Histogram("rados.read_us", telemetry.NoRank)
	c.hWrite = t.Reg.Histogram("rados.write_us", telemetry.NoRank)
}

func (c *Cluster) obsWrite(l sim.Time) {
	if c.tel != nil {
		c.cWrites.Add(1)
		c.hWrite.Observe(float64(l))
	}
}

func (c *Cluster) obsRead(l sim.Time) {
	if c.tel != nil {
		c.cReads.Add(1)
		c.hRead.Observe(float64(l))
	}
}

// NewCluster builds an object store on the clock (the DES engine, or a
// live rank clock).
func NewCluster(engine sim.Clock, cfg Config) *Cluster {
	if cfg.OSDs <= 0 {
		panic("rados: need at least one OSD")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > cfg.OSDs {
		cfg.Replicas = cfg.OSDs
	}
	if cfg.PGs <= 0 {
		cfg.PGs = 64
	}
	c := &Cluster{engine: engine, cfg: cfg, pools: map[string]*Pool{}}
	for i := 0; i < cfg.OSDs; i++ {
		c.osds = append(c.osds, &osd{id: i})
	}
	return c
}

// Pool returns (creating if needed) the named pool.
func (c *Cluster) Pool(name string) *Pool {
	p, ok := c.pools[name]
	if !ok {
		p = &Pool{name: name, cluster: c, objects: map[string]*Object{}}
		c.pools[name] = p
	}
	return p
}

// FNV-1a, hand-rolled so placement neither allocates a hash.Hash nor
// formats a scratch string per operation. Must stay bit-identical to
// hash/fnv: placements are part of the simulation's deterministic surface
// (TestPlacementMatchesReference pins the equivalence).
const (
	fnv32offset uint32 = 2166136261
	fnv32prime  uint32 = 16777619
	fnv64offset uint64 = 14695981039346656037
	fnv64prime  uint64 = 1099511628211
)

func fnv32aString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnv32prime
	}
	return h
}

func fnv64aBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnv64prime
	}
	return h
}

// pgOf maps an object name to its placement group, like Ceph's stable hash:
// fnv32a over pool, a NUL separator, and the object name.
func (c *Cluster) pgOf(pool, name string) int {
	h := fnv32aString(fnv32offset, pool)
	h *= fnv32prime // NUL separator: h ^= 0 is a no-op
	h = fnv32aString(h, name)
	return int(h) % c.cfg.PGs
}

// computePlacement runs the straw selection for one placement group: each
// OSD draws a hash-weighted straw ("pool/pg/osd" through fnv64a) and the
// top Replicas win.
func (c *Cluster) computePlacement(pool string, pg int) []int {
	type straw struct {
		osd  int
		draw uint64
	}
	straws := make([]straw, len(c.osds))
	buf := make([]byte, 0, len(pool)+16)
	buf = append(buf, pool...)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(pg), 10)
	buf = append(buf, '/')
	base := fnv64aBytes(fnv64offset, buf) // FNV is sequential: hash the shared prefix once
	var num []byte
	for i := range c.osds {
		num = strconv.AppendInt(num[:0], int64(i), 10)
		straws[i] = straw{osd: i, draw: fnv64aBytes(base, num)}
	}
	sort.Slice(straws, func(i, j int) bool {
		if straws[i].draw != straws[j].draw {
			return straws[i].draw > straws[j].draw
		}
		return straws[i].osd < straws[j].osd
	})
	out := make([]int, c.cfg.Replicas)
	for i := 0; i < c.cfg.Replicas; i++ {
		out[i] = straws[i].osd
	}
	return out
}

// placement returns the cached OSD set for an object. The returned slice is
// shared — callers must not mutate it.
func (p *Pool) placement(name string) []int {
	pg := p.cluster.pgOf(p.name, name)
	if p.placements == nil {
		p.placements = make([][]int, p.cluster.cfg.PGs)
	}
	if s := p.placements[pg]; s != nil {
		return s
	}
	s := p.cluster.computePlacement(p.name, pg)
	p.placements[pg] = s
	return s
}

// PlaceOSDs returns the ordered OSD set for an object: a deterministic
// straw-style selection where each OSD draws a hash-weighted straw per PG and
// the top Replicas win. This reproduces CRUSH's key property for our
// purposes: placement is computable from the name alone, with no lookup
// table, and is uniformly spread. The result is a fresh slice the caller
// may keep.
func (c *Cluster) PlaceOSDs(pool, name string) []int {
	return append([]int(nil), c.Pool(pool).placement(name)...)
}

// SetFault degrades the object store: every op's latency is multiplied by
// slowFactor (values <= 1 leave it unchanged), and with probability
// errorProb an op fails internally and is retried after a penalty — callers
// only see the latency spike, the way librados hides transient OSD errors
// behind redirects. Loss draws come from a dedicated RNG seeded here so the
// engine's random stream is untouched. A (0 or 1, 0) call clears the fault.
func (c *Cluster) SetFault(slowFactor, errorProb float64, seed int64) {
	c.slowFactor = slowFactor
	c.errorProb = errorProb
	if errorProb > 0 {
		c.faultRng = rand.New(rand.NewSource(seed))
	}
}

// ClearFault restores healthy OSD behaviour.
func (c *Cluster) ClearFault() {
	c.slowFactor = 0
	c.errorProb = 0
}

// opLatency computes the simulated latency for one replica op of size bytes.
func (c *Cluster) opLatency(base sim.Time, bytes int) sim.Time {
	l := base
	if c.cfg.BytePerUS > 0 && bytes > 0 {
		l += sim.Time(bytes / c.cfg.BytePerUS)
	}
	l += c.engine.Jitter(c.cfg.Jitter)
	if l < sim.Microsecond {
		l = sim.Microsecond
	}
	if c.slowFactor > 1 {
		l = sim.Time(float64(l) * c.slowFactor)
	}
	if c.errorProb > 0 && c.faultRng != nil {
		// Each injected failure costs a full retry round-trip; bounded so
		// a pathological probability cannot wedge the op forever.
		for tries := 0; tries < 8 && c.faultRng.Float64() < c.errorProb; tries++ {
			c.Retries++
			l += l + c.cfg.WriteLatency
		}
	}
	return l
}

// charge bills every placed OSD for one replicated write of size bytes, each
// drawing its opLatency in placement order (the draws are part of the
// simulation's deterministic surface), and returns the slowest replica's
// latency: when the write is acked.
func (p *Pool) charge(name string, size int) sim.Time {
	c := p.cluster
	var worst sim.Time
	for _, id := range p.placement(name) {
		l := c.opLatency(c.cfg.WriteLatency, size)
		c.osds[id].writes++
		c.osds[id].busy += l
		if l > worst {
			worst = l
		}
	}
	c.obsWrite(worst)
	return worst
}

// commit is the ack half of a replicated write: it looks the object up,
// creating it if missing, and counts the write. The caller applies the
// mutation.
func (p *Pool) commit(name string) *Object {
	obj, ok := p.objects[name]
	if !ok {
		obj = newObject(name)
		p.objects[name] = obj
	}
	obj.Version++
	p.cluster.Writes++
	return obj
}

// write is the replicated-write path of Write, Append and OMapSet: once the
// slowest replica has acked, apply mutates the object and done, if set, runs.
func (p *Pool) write(name string, size int, apply func(*Object), done func()) {
	p.cluster.engine.Schedule(p.charge(name, size), func() {
		apply(p.commit(name))
		if done != nil {
			done()
		}
	})
}

// Write stores data into the named object (replacing existing data) and
// invokes done when all replicas have acked. done may be nil.
func (p *Pool) Write(name string, data []byte, done func()) {
	p.write(name, len(data), func(obj *Object) {
		obj.Data = append(obj.Data[:0], data...)
		obj.Size = uint64(len(data))
	}, done)
}

// Append appends data to the object, creating it if missing.
func (p *Pool) Append(name string, data []byte, done func()) {
	p.write(name, len(data), func(obj *Object) {
		obj.Data = append(obj.Data, data...)
		obj.Size += uint64(len(data))
	}, done)
}

// Read fetches the object's data. done receives nil data if the object does
// not exist (with ok=false).
func (p *Pool) Read(name string, done func(data []byte, ok bool)) {
	c := p.cluster
	placed := p.placement(name)
	primary := placed[0]
	l := c.opLatency(c.cfg.ReadLatency, 0)
	c.osds[primary].reads++
	c.osds[primary].busy += l
	c.obsRead(l)
	c.engine.Schedule(l, func() {
		c.Reads++
		obj, ok := p.objects[name]
		if !ok {
			done(nil, false)
			return
		}
		done(append([]byte(nil), obj.Data...), true)
	})
}

// OMapSet writes key/value pairs into the object's omap (used for directory
// fragments: one key per dentry, as CephFS stores dirfrags).
func (p *Pool) OMapSet(name string, kv map[string][]byte, done func()) {
	size := 0
	for k, v := range kv {
		size += len(k) + len(v)
	}
	p.write(name, size, func(obj *Object) {
		for k, v := range kv {
			obj.OMap[k] = append([]byte(nil), v...)
		}
	}, done)
}

// OMapGet reads the whole omap of an object.
func (p *Pool) OMapGet(name string, done func(kv map[string][]byte, ok bool)) {
	c := p.cluster
	placed := p.placement(name)
	l := c.opLatency(c.cfg.ReadLatency, 0)
	c.osds[placed[0]].reads++
	c.osds[placed[0]].busy += l
	c.obsRead(l)
	c.engine.Schedule(l, func() {
		c.Reads++
		obj, ok := p.objects[name]
		if !ok {
			done(nil, false)
			return
		}
		out := make(map[string][]byte, len(obj.OMap))
		for k, v := range obj.OMap {
			out[k] = append([]byte(nil), v...)
		}
		done(out, true)
	})
}

// Remove deletes an object; ok reports whether it existed.
func (p *Pool) Remove(name string, done func(ok bool)) {
	c := p.cluster
	l := c.opLatency(c.cfg.WriteLatency, 0)
	c.obsWrite(l)
	c.engine.Schedule(l, func() {
		_, ok := p.objects[name]
		delete(p.objects, name)
		c.Writes++
		if done != nil {
			done(ok)
		}
	})
}

// Stat synchronously inspects an object without simulated latency; intended
// for tests and post-run verification, not for the simulated data path.
func (p *Pool) Stat(name string) (*Object, bool) {
	o, ok := p.objects[name]
	return o, ok
}

// Len reports the number of objects in the pool (no simulated latency).
func (p *Pool) Len() int { return len(p.objects) }

// OSDStats reports per-OSD (reads, writes) counters.
func (c *Cluster) OSDStats() (reads, writes []uint64) {
	for _, o := range c.osds {
		reads = append(reads, o.reads)
		writes = append(writes, o.writes)
	}
	return
}
