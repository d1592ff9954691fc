package live

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/mds"
	"mantle/internal/namespace"
	"mantle/internal/simnet"
	"mantle/internal/telemetry"
	"mantle/internal/workload"
)

// clientAddrBase offsets load-generator addresses above MDS ranks, matching
// the simulated cluster's address plan.
const clientAddrBase = simnet.Addr(1 << 16)

// LoadConfig drives the open-loop generator.
type LoadConfig struct {
	// Clients is how many client identities requests are spread across
	// (distinct reply addresses and MDS sessions).
	Clients int
	// Rate is the aggregate arrival rate in ops/second. Open loop: arrivals
	// do not wait for completions, so overload manifests as queueing and
	// sheds rather than a slowed generator.
	Rate float64
	// Duration is how long arrivals keep coming.
	Duration time.Duration
	// Workload picks the op source: "zipf" (hotspot synthetic) or "compile"
	// (the workload.Compile phase stream replayed at Rate).
	Workload string
	// Dirs is the zipf working-set size (directories under /load).
	Dirs int
	// ZipfS is the zipf skew parameter (>1; higher = hotter hotspot).
	ZipfS float64
	// WriteRatio is the fraction of ops that are creates; the rest are
	// getattrs on the directory (zipf workload only).
	WriteRatio float64
	// Compile configures the compile replay when Workload == "compile".
	Compile workload.CompileConfig
	// FlashFactor multiplies Rate while the op stream is in its link phase
	// (ops tagged workload.PhaseLink), producing the compile flash crowd.
	// Values <= 1 leave pacing flat.
	FlashFactor float64
	// IdleTail keeps the cluster alive under zero arrivals after the stream
	// ends, giving an elastic policy its quiet window to scale back in
	// before drain.
	IdleTail time.Duration
	// OpTimeout abandons a request whose reply never arrives (crashed rank,
	// lost message) so the pending set cannot leak.
	OpTimeout time.Duration
	// HotDir concentrates HotFrac of zipf ops on getattrs of files under a
	// single shared directory (the hotspot-mitigation scenario); the rest
	// of the stream keeps the normal zipf mix. Ops aimed at the hot
	// directory are phase-tagged workload.PhaseHot.
	HotDir bool
	// HotFrac is the fraction of ops aimed at the hot directory (default
	// 0.9).
	HotFrac float64
	// HotFiles is how many files the hot directory holds (default 256,
	// pre-populated by the runtime).
	HotFiles int
	// Workers is how many dispatcher goroutines pace zipf arrivals (the
	// compile replay is inherently sequential — phase order matters — and
	// always runs one). Worker w owns arrival indices w, w+Workers, … of
	// the single aggregate schedule, so the arrival times — and the
	// coordinated-omission latency origin of every op — are identical
	// regardless of worker count. 0 defaults to GOMAXPROCS capped at 8.
	Workers int
	// Seed seeds the generator's private RNG.
	Seed int64
}

func (c *LoadConfig) setDefaults() {
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Workload == "" {
		c.Workload = "zipf"
	}
	if c.Dirs <= 0 {
		c.Dirs = 64
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	if c.WriteRatio <= 0 || c.WriteRatio > 1 {
		c.WriteRatio = 0.8
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.HotFrac <= 0 || c.HotFrac > 1 {
		c.HotFrac = 0.9
	}
	if c.HotFiles <= 0 {
		c.HotFiles = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
}

// pendingOp tracks one in-flight request. Latency is measured from the op's
// scheduled arrival time, not the instant the dispatcher got around to
// sending it, so dispatcher scheduling hiccups surface as latency instead of
// being silently absorbed (coordinated-omission correction).
type pendingOp struct {
	scheduled time.Time
	// rank is the rank the request was routed to, for inflight accounting
	// under replication; -1 for coalesced waiters (and whenever replication
	// is off), which never hit the wire.
	rank int
	// key is the singleflight key a coalescing leader carries; its reply
	// fans out to every waiter registered under the key. Zero (op 0) for
	// waiters and uncoalesced ops.
	key flightKey
}

// flightKey names a coalescible read: a comparable value, so joining or
// leading a flight builds no string.
type flightKey struct {
	op   mds.OpType
	path string
}

// pendShards is the pending-set shard count (power of two). One global map
// behind one mutex was the biggest lock in the 128-rank mutex profile —
// every issue, every reply and every reaper pass serialised on it. Sharding
// by request ID spreads that across 32 locks; IDs are a monotone counter, so
// consecutive ops land on different shards by construction.
const pendShards = 32

// pendShard is one pending-set shard, padded so two shards never share a
// cache line under concurrent issue/reply traffic.
type pendShard struct {
	mu sync.Mutex
	m  map[uint64]pendingOp
	_  [40]byte
}

// loadgen issues the open-loop stream and collects per-op latency. Replies
// arrive on transport delivery goroutines; mutable state is sharded
// (pending set), per-rank (latency windows) or atomic, so no single lock
// sits on the issue/reply path.
type loadgen struct {
	rt    *Runtime
	cfg   LoadConfig
	addrs []simnet.Addr
	rtr   *router

	pend [pendShards]pendShard

	// replication mirrors Runtime.Config.Replication: gates the coalescing
	// and replica-routing paths so the default configuration issues
	// byte-identical traffic to before the subsystem existed.
	replication bool
	// inflight counts outstanding requests per rank (replication only) —
	// the load signal power-of-two-choices routing compares.
	inflight []atomic.Int64
	// flight is the singleflight table: key → waiter request IDs riding on
	// the in-flight leader with that key.
	flightMu sync.Mutex
	flight   map[flightKey][]uint64

	replicaRouted atomic.Uint64
	coalesced     atomic.Uint64

	// rankLat holds a sliding latency window per provisioned rank, fed on
	// completions and read by the elastic host's Metrics (the per-rank
	// latency signal when_elastic votes on). Nil without an elastic
	// coordinator: nothing else reads it.
	rankLat []*latWindow

	nextID atomic.Uint64

	lat       *telemetry.ShardedHistogram
	lagMu     sync.Mutex
	lag       lagTally // every stopped pacer's, under lagMu
	issued    atomic.Uint64
	completed atomic.Uint64
	errors    atomic.Uint64
	shedSeen  atomic.Uint64
	timeouts  atomic.Uint64
	flushes   atomic.Uint64
	forwards  atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

func newLoadgen(rt *Runtime, cfg LoadConfig) *loadgen {
	cfg.setDefaults()
	lg := &loadgen{
		rt:          rt,
		cfg:         cfg,
		rtr:         newRouter(rt.cfg.Ranks),
		replication: rt.cfg.Replication,
		inflight:    make([]atomic.Int64, len(rt.mdsAddrs)),
		flight:      map[flightKey][]uint64{},
		lat:         &telemetry.ShardedHistogram{},
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for i := range lg.pend {
		lg.pend[i].m = map[uint64]pendingOp{}
	}
	if rt.cfg.MaxRanks > 0 {
		for range rt.mdsAddrs {
			lg.rankLat = append(lg.rankLat, &latWindow{})
		}
	}
	for i := 0; i < cfg.Clients; i++ {
		addr := clientAddrBase + simnet.Addr(i)
		lg.addrs = append(lg.addrs, addr)
		rt.transport.Register(addr, lg)
	}
	return lg
}

// rankLatencyMs reports the mean served latency of rank r over the recent
// window, in milliseconds (0 when the rank served nothing recently).
func (lg *loadgen) rankLatencyMs(r int) float64 {
	if r < 0 || r >= len(lg.rankLat) {
		return 0
	}
	return lg.rankLat[r].meanMs(latWindowSpan)
}

// HandleMessage implements simnet.Handler; invoked on the delivering goroutine
// (on a zero-delay link, the replying actor's), so it takes only leaf locks.
func (lg *loadgen) HandleMessage(from simnet.Addr, msg simnet.Message) {
	switch v := msg.(type) {
	case *mds.Reply:
		s := &lg.pend[v.ReqID&(pendShards-1)]
		s.mu.Lock()
		p, ok := s.m[v.ReqID]
		if ok {
			delete(s.m, v.ReqID)
		}
		s.mu.Unlock()
		if !ok {
			return // already reaped as a timeout
		}
		if p.rank >= 0 {
			lg.inflight[p.rank].Add(-1)
		}
		for _, h := range v.Hints {
			lg.rtr.learn(h)
		}
		// One clock read per reply, shared with the waiters riding on
		// it; a failed reply fails them too and reads none.
		var now time.Time
		switch {
		case IsOverloaded(v.Err):
			lg.shedSeen.Add(1)
		case v.Err != "":
			lg.errors.Add(1)
		default:
			lg.completed.Add(1)
			if v.Forwards > 0 {
				lg.forwards.Add(uint64(v.Forwards))
			}
			now = time.Now()
			lg.observe(from, now, p.scheduled)
		}
		if p.key.op != 0 {
			lg.completeWaiters(from, v, p.key, now)
		}
	case *mds.SessionFlush:
		lg.flushes.Add(1)
	}
}

// run dispatches arrivals until Duration of schedule elapses (or the op
// source dries up), then holds through IdleTail and closes done. The zipf
// workload fans the single aggregate schedule across Workers goroutines
// (worker w issues arrivals w, w+W, w+2W, …, each stamped with its planned
// time k·perOp); the compile replay keeps one dispatcher because its phase
// stream is ordered and its pacing is phase-dependent.
func (lg *loadgen) run() {
	defer close(lg.done)
	perOp := time.Duration(float64(time.Second) / lg.cfg.Rate)
	if lg.cfg.Workload == "compile" {
		lg.runCompile(perOp)
		return
	}
	start := time.Now()
	w := lg.cfg.Workers
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			lg.zipfWorker(worker, w, start, perOp)
		}(i)
	}
	wg.Wait()
	select {
	case <-lg.stop:
		return
	default:
	}
	lg.idleTail()
}

// lagTally sums how late a pacer issues arrivals: from an arrival's
// scheduled time to the clock reading of the wake that issues it. A pacer
// keeps its own and folds it into the run's once, when it stops.
type lagTally struct {
	sum, max time.Duration
	n        int64
}

// note counts an arrival scheduled at sched and issued by the wake that read
// elapsed (both offsets from the schedule's start).
func (t *lagTally) note(sched, elapsed time.Duration) {
	d := elapsed - sched
	t.sum += d
	t.n++
	t.max = max(t.max, d)
}

// addLag folds a stopped pacer's tally into the run's.
func (lg *loadgen) addLag(t *lagTally) {
	lg.lagMu.Lock()
	lg.lag.sum += t.sum
	lg.lag.n += t.n
	lg.lag.max = max(lg.lag.max, t.max)
	lg.lagMu.Unlock()
}

// issueLag reports the run's mean and largest issue lag, in milliseconds,
// and how many arrivals they cover.
func (lg *loadgen) issueLag() (mean, mx float64, n int64) {
	lg.lagMu.Lock()
	defer lg.lagMu.Unlock()
	if lg.lag.n > 0 {
		mean = float64(lg.lag.sum) / float64(lg.lag.n) / 1e6
	}
	return mean, float64(lg.lag.max) / 1e6, lg.lag.n
}

// zipfWorker paces its slice of the arrival schedule. Each worker has a
// private op source (seeded Seed+worker; worker 0 keeps the single-worker
// stream byte-identical to the old dispatcher) and wakes every millisecond
// to issue every owned arrival whose scheduled time has passed.
func (lg *loadgen) zipfWorker(worker, workers int, start time.Time, perOp time.Duration) {
	next := lg.zipfSource(worker, workers)
	sched := time.Duration(worker) * perOp
	step := time.Duration(workers) * perOp
	var lag lagTally
	defer lg.addLag(&lag)
	for sched < lg.cfg.Duration {
		select {
		case <-lg.stop:
			return
		default:
		}
		elapsed := time.Since(start)
		for sched < lg.cfg.Duration && sched <= elapsed {
			op, ok := next()
			if !ok {
				return
			}
			lg.issue(op, start.Add(sched))
			lag.note(sched, elapsed)
			sched += step
		}
		time.Sleep(time.Millisecond)
	}
}

// runCompile is the single-dispatcher replay loop: phase order matters and
// the inter-arrival gap shrinks by FlashFactor during link-phase ops.
func (lg *loadgen) runCompile(perOp time.Duration) {
	gen := workload.Compile(lg.cfg.Compile)
	next := gen.Next
	start := time.Now()
	flashOp := perOp
	if lg.cfg.FlashFactor > 1 {
		flashOp = time.Duration(float64(perOp) / lg.cfg.FlashFactor)
	}
	sched := time.Duration(0) // schedule offset of the next arrival
	var lag lagTally
	defer lg.addLag(&lag)
	for sched < lg.cfg.Duration {
		select {
		case <-lg.stop:
			return
		default:
		}
		elapsed := time.Since(start)
		for sched < lg.cfg.Duration && sched <= elapsed {
			op, ok := next()
			if !ok {
				lg.idleTail()
				return
			}
			lg.issue(op, start.Add(sched))
			lag.note(sched, elapsed)
			if op.Phase == workload.PhaseLink {
				sched += flashOp
			} else {
				sched += perOp
			}
		}
		time.Sleep(time.Millisecond)
	}
	lg.idleTail()
}

// idleTail parks the generator under zero load for IdleTail (shutdown still
// interrupts it) so scale-in completes while the runtime is still up.
func (lg *loadgen) idleTail() {
	if lg.cfg.IdleTail <= 0 {
		return
	}
	select {
	case <-lg.stop:
	case <-time.After(lg.cfg.IdleTail):
	}
}

// observe records one completed op's latency, from its scheduled arrival
// to now, in the run's histogram and, with an elastic coordinator to read
// it, in the window of the serving rank: the reply's source address.
func (lg *loadgen) observe(from simnet.Addr, now, scheduled time.Time) {
	us := float64(now.Sub(scheduled)) / float64(time.Microsecond)
	lg.lat.Observe(us)
	if r := int(from); r >= 0 && r < len(lg.rankLat) {
		lg.rankLat[r].observe(us, now)
	}
}

// completeWaiters fans a coalescing leader's outcome out to every waiter
// registered under its key, charging each waiter's latency from its own
// scheduled arrival time to now, when the leader's reply arrived.
func (lg *loadgen) completeWaiters(from simnet.Addr, v *mds.Reply, key flightKey, now time.Time) {
	lg.flightMu.Lock()
	waiters := lg.flight[key]
	delete(lg.flight, key)
	lg.flightMu.Unlock()
	for _, wid := range waiters {
		ws := &lg.pend[wid&(pendShards-1)]
		ws.mu.Lock()
		wp, ok := ws.m[wid]
		if ok {
			delete(ws.m, wid)
		}
		ws.mu.Unlock()
		if !ok {
			continue // reaped while waiting
		}
		switch {
		case IsOverloaded(v.Err):
			lg.shedSeen.Add(1)
		case v.Err != "":
			lg.errors.Add(1)
		default:
			lg.completed.Add(1)
			lg.observe(from, now, wp.scheduled)
		}
	}
}

// issue routes and sends one request. With replication on, non-mutating ops
// are first coalesced (duplicate in-flight lookups ride on one wire request)
// and then routed power-of-two-choices style across the auth rank and any
// learned replicas; everything else takes the classic auth route.
func (lg *loadgen) issue(op workload.Op, scheduled time.Time) {
	id := lg.nextID.Add(1)
	addr := lg.addrs[int(id)%len(lg.addrs)]
	s := &lg.pend[id&(pendShards-1)]
	if lg.replication && !op.Type.Mutating() {
		key := flightKey{op.Type, op.Path}
		// Register the pending entry before joining the flight table so
		// the leader's fan-out can never observe a waiter id without its
		// pending entry.
		s.mu.Lock()
		s.m[id] = pendingOp{scheduled: scheduled, rank: -1}
		s.mu.Unlock()
		lg.flightMu.Lock()
		if ids, inFlight := lg.flight[key]; inFlight {
			lg.flight[key] = append(ids, id)
			lg.flightMu.Unlock()
			lg.issued.Add(1)
			lg.coalesced.Add(1)
			return
		}
		lg.flight[key] = nil // become the leader for this key
		lg.flightMu.Unlock()
		rank := lg.routeRead(op, id)
		s.mu.Lock()
		if _, ok := s.m[id]; !ok {
			// Reaped between the two registrations, and already counted as
			// a timeout: give the key up as a reaped leader does, and let
			// any waiters expire on their own.
			s.mu.Unlock()
			lg.flightMu.Lock()
			delete(lg.flight, key)
			lg.flightMu.Unlock()
			lg.issued.Add(1)
			return
		}
		s.m[id] = pendingOp{scheduled: scheduled, rank: int(rank), key: key}
		s.mu.Unlock()
		lg.inflight[rank].Add(1)
		lg.issued.Add(1)
		lg.rt.transport.Send(addr, lg.rt.mdsAddrs[rank], &mds.Request{
			ID: id, Client: addr, Op: op.Type, Path: op.Path,
		})
		return
	}
	path := op.Src()
	rank := lg.rtr.rankFor(path)
	pr := -1
	if lg.replication {
		pr = int(rank)
		lg.inflight[rank].Add(1)
	}
	req := &mds.Request{
		ID:      id,
		Client:  addr,
		Op:      op.Type,
		Path:    path,
		DstPath: op.Dst(),
	}
	s.mu.Lock()
	s.m[id] = pendingOp{scheduled: scheduled, rank: pr}
	s.mu.Unlock()
	lg.issued.Add(1)
	lg.rt.transport.Send(addr, lg.rt.mdsAddrs[rank], req)
}

// routeRead picks the serving rank for a read: the auth route plus any
// learned replicas for the parent directory form the candidate set, and two
// hash-derived choices race on instantaneous inflight count (power of two
// choices — near-optimal load spread without global knowledge).
func (lg *loadgen) routeRead(op workload.Op, id uint64) namespace.Rank {
	auth := lg.rtr.rankFor(op.Path)
	dir, name := mds.SplitPath(op.Path)
	if name == "" {
		dir = op.Path
	}
	reps := lg.rtr.replicasOf(dir)
	if len(reps) == 0 {
		return auth
	}
	cands := make([]namespace.Rank, 0, len(reps)+1)
	cands = append(cands, auth)
	for _, rk := range reps {
		if int(rk) < 0 || int(rk) >= len(lg.inflight) || rk == auth {
			continue
		}
		cands = append(cands, rk)
	}
	if len(cands) == 1 {
		return auth
	}
	// splitmix64: two independent choices from the request id.
	z := id + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	i := int(z % uint64(len(cands)))
	j := int((z >> 32) % uint64(len(cands)))
	if i == j {
		j = (j + 1) % len(cands)
	}
	pick := cands[i]
	if lg.inflight[cands[j]].Load() < lg.inflight[pick].Load() {
		pick = cands[j]
	}
	if pick != auth {
		lg.replicaRouted.Add(1)
	}
	return pick
}

// reap abandons pending ops older than OpTimeout. Called periodically and
// during drain; each shard is swept under its own lock, so the reaper never
// stalls the whole issue/reply plane.
func (lg *loadgen) reap(now time.Time) {
	for i := range lg.pend {
		s := &lg.pend[i]
		var keys []flightKey
		s.mu.Lock()
		for id, p := range s.m {
			if now.Sub(p.scheduled) > lg.cfg.OpTimeout {
				delete(s.m, id)
				lg.timeouts.Add(1)
				if p.rank >= 0 {
					lg.inflight[p.rank].Add(-1)
				}
				if p.key.op != 0 {
					keys = append(keys, p.key)
				}
			}
		}
		s.mu.Unlock()
		// A reaped leader releases its flight key so the next duplicate
		// lookup elects a fresh leader; its waiters expire on their own
		// timeouts via the normal sweep.
		if len(keys) > 0 {
			lg.flightMu.Lock()
			for _, k := range keys {
				delete(lg.flight, k)
			}
			lg.flightMu.Unlock()
		}
	}
}

// pendingCount reports in-flight ops.
func (lg *loadgen) pendingCount() int {
	n := 0
	for i := range lg.pend {
		s := &lg.pend[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// flushPending force-expires everything still in flight (drain deadline).
func (lg *loadgen) flushPending() {
	n := 0
	for i := range lg.pend {
		s := &lg.pend[i]
		s.mu.Lock()
		n += len(s.m)
		for _, p := range s.m {
			if p.rank >= 0 {
				lg.inflight[p.rank].Add(-1)
			}
		}
		s.m = map[uint64]pendingOp{}
		s.mu.Unlock()
	}
	lg.flightMu.Lock()
	lg.flight = map[flightKey][]uint64{}
	lg.flightMu.Unlock()
	lg.timeouts.Add(uint64(n))
}

// zipfSource builds one worker's op stream. The returned function is only
// called from that worker's goroutine, so the RNG needs no locking. Create
// sequence numbers start at the worker index and step by the worker count,
// so paths stay unique across workers; directory paths are interned once
// (the getattr majority re-uses them instead of re-formatting per op).
func (lg *loadgen) zipfSource(worker, workers int) func() (workload.Op, bool) {
	rng := rand.New(rand.NewSource(lg.cfg.Seed + int64(worker)*0x9e3779b9))
	zipf := rand.NewZipf(rng, lg.cfg.ZipfS, 1, uint64(lg.cfg.Dirs-1))
	dirs := zipfDirs(lg.cfg.Dirs)
	var hot []string
	if lg.cfg.HotDir {
		hot = make([]string, lg.cfg.HotFiles)
		for i := range hot {
			hot[i] = hotDirPath + "/f" + strconv.Itoa(i)
		}
	}
	seq := worker
	var buf []byte
	return func() (workload.Op, bool) {
		if hot != nil && rng.Float64() < lg.cfg.HotFrac {
			return workload.Op{
				Type:  mds.OpGetattr,
				Path:  hot[rng.Intn(len(hot))],
				Phase: workload.PhaseHot,
			}, true
		}
		d := zipf.Uint64()
		seq += workers
		if rng.Float64() < lg.cfg.WriteRatio {
			buf = append(buf[:0], dirs[d]...)
			buf = append(buf, "/f"...)
			buf = strconv.AppendInt(buf, int64(seq), 10)
			return workload.Op{Type: mds.OpCreate, Path: string(buf)}, true
		}
		return workload.Op{Type: mds.OpGetattr, Path: dirs[d]}, true
	}
}

// hotDirPath is the shared directory the HotDir workload hammers.
const hotDirPath = "/hot"

// zipfDirs lists the directories the zipf workload touches (pre-populated by
// the runtime so getattrs resolve from the first op).
func zipfDirs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/load/d%03d", i)
	}
	return out
}

// latWindowSpan bounds how far back rank latency samples count: old samples
// from before a rank went idle must not keep its latency signal inflated
// (that would wedge every shrink vote).
const latWindowSpan = 5 * time.Second

// latWindowCap bounds one rank's sample ring.
const latWindowCap = 512

// latWindow is a ring of timestamped latency samples, safe for concurrent
// observe (delivery goroutines) and meanMs (the elastic tick). The ring is
// lazily allocated and grows by doubling up to latWindowCap: a rank that
// never serves (a warm standby, a provisioned-but-inactive elastic slot —
// most of the table at 1000 ranks) costs a pointer, not 8 KiB of samples.
type latWindow struct {
	mu  sync.Mutex
	buf []latSample
	n   int // total samples ever observed
}

type latSample struct {
	at time.Time
	us float64
}

// observe adds a sample of us microseconds taken at at.
func (w *latWindow) observe(us float64, at time.Time) {
	w.mu.Lock()
	if w.n == len(w.buf) && len(w.buf) < latWindowCap {
		size := 2 * len(w.buf)
		if size < 64 {
			size = 64
		}
		if size > latWindowCap {
			size = latWindowCap
		}
		nb := make([]latSample, size)
		copy(nb, w.buf)
		w.buf = nb
	}
	w.buf[w.n%len(w.buf)] = latSample{at: at, us: us}
	w.n++
	w.mu.Unlock()
}

func (w *latWindow) meanMs(span time.Duration) float64 {
	cutoff := time.Now().Add(-span)
	w.mu.Lock()
	defer w.mu.Unlock()
	limit := w.n
	if limit > len(w.buf) {
		limit = len(w.buf)
	}
	sum, cnt := 0.0, 0
	for i := 0; i < limit; i++ {
		if s := w.buf[i]; s.at.After(cutoff) {
			sum += s.us
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt) / 1000
}

// router is the shared routing cache: the simulated client's routing table
// (mds.Routes), made goroutine-safe because replies land on concurrent
// delivery goroutines while the dispatchers route, clamped to the active
// ranks, and extended with the replica holder sets hints carry. Writes
// (hint learning, rare and usually idempotent) upgrade to the write lock
// only when the hint actually changes something.
type router struct {
	mu       sync.RWMutex
	numRanks int
	routes   *mds.Routes
	// reps caches replica holder sets per directory, learned from hint
	// replica lists. Hints from a replication-enabled MDS always carry the
	// current holder set for the served directory (nil when there are
	// none), so an entry here is only ever as stale as the last reply.
	reps map[string][]namespace.Rank
}

func newRouter(numRanks int) *router {
	return &router{
		numRanks: numRanks,
		routes:   mds.NewRoutes(),
		reps:     map[string][]namespace.Rank{},
	}
}

// rankFor routes an op on path, mapping a rank outside the active set (a
// stale hint from before a shrink) to rank 0.
func (r *router) rankFor(path string) namespace.Rank {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if rk := r.routes.Route(path); int(rk) < r.numRanks && rk >= 0 {
		return rk
	}
	return 0
}

// seed pre-loads a subtree→rank mapping before traffic starts (the
// SeedBounds warm-mdsmap analogue); later learned hints overwrite it.
func (r *router) seed(path string, rk namespace.Rank) {
	r.mu.Lock()
	r.routes.Seed(path, rk)
	r.mu.Unlock()
}

// setNumRanks moves the clamp when the elastic coordinator changes the
// active set: stale hints pointing past the boundary re-route to rank 0
// instead of a retired address.
func (r *router) setNumRanks(n int) {
	r.mu.Lock()
	r.numRanks = n
	r.mu.Unlock()
}

// learn folds a reply hint into the cache. The fast path re-checks under the
// read lock first: most hints restate what the cache already knows, and
// skipping the write-lock upgrade keeps reply handling off the routing
// writers' lock.
func (r *router) learn(h mds.Hint) {
	r.mu.RLock()
	same := r.routes.Knows(h) && slices.Equal(r.reps[h.DirPath], h.Replicas)
	r.mu.RUnlock()
	if same {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes.Learn(h)
	if len(h.Replicas) > 0 {
		r.reps[h.DirPath] = h.Replicas
	} else {
		delete(r.reps, h.DirPath)
	}
}

// replicasOf returns the learned replica holder set for dir (nil when none).
// The slice is replaced wholesale by learn, never mutated, so reading it
// outside the lock is safe.
func (r *router) replicasOf(dir string) []namespace.Rank {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.reps[dir]
}
