package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/mds"
	"mantle/internal/mon"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// ErrOverloaded is the admission-control shed: the destination rank's
// bounded request lane was full, so the transport refused the request and
// answered the client with this error instead of queuing without bound.
var ErrOverloaded = errors.New("mds overloaded: request shed")

// IsOverloaded reports whether a reply error string is the shed signal.
func IsOverloaded(replyErr string) bool { return replyErr == ErrOverloaded.Error() }

// endpoint is one registered address: its handler plus the actor that owns
// it (nil for load-generator endpoints, whose goroutine-safe handlers run on
// the delivering goroutine — the sender's, on a zero-delay link). epoch is
// the membership epoch that owns the registration (0 for unfenced
// endpoints): a superseded daemon cannot unregister its replacement, and a
// replacement at a higher epoch forcibly evicts the zombie's registration.
type endpoint struct {
	h     simnet.Handler
	a     *actor
	epoch uint64
}

// transport implements simnet.Transport with real concurrency: a send with
// a non-zero link latency (plus jitter and fault extras) arms a wall-clock
// timer, a zero-delay send delivers on the sending goroutine, and delivery
// posts to the destination's actor. Semantics mirror simnet.Network:
// duplicate registration panics, sends to unregistered addresses drop at
// delivery time, and per-link LinkFaults add loss and latency.
type transport struct {
	rt  *Runtime
	cfg simnet.Config

	mu           sync.RWMutex
	nodes        map[simnet.Addr]*endpoint
	actors       map[simnet.Addr]*actor // bound before the MDS registers
	linkFaults   map[[2]simnet.Addr]simnet.LinkFault
	defaultFault simnet.LinkFault
	partitions   map[[2]simnet.Addr]bool // directed cuts: messages drop at send

	// rng drives loss and jitter draws. Lock-free: every Send on a lossy or
	// jittery network used to serialise on a mutex-guarded *rand.Rand, which
	// put the RNG lock on the hot path of all 1000 ranks at once. The live
	// transport has no bit-reproducibility contract (wall-clock interleaving
	// already varies run to run), so a splitmix64 counter is enough.
	rng atomicRng

	// Counters use atomics: senders run on actor goroutines, link-latency
	// timer goroutines, and the dispatcher concurrently.
	Sent         atomic.Uint64
	Delivered    atomic.Uint64
	DroppedDead  atomic.Uint64
	DroppedLoss  atomic.Uint64
	DroppedPart  atomic.Uint64 // dropped by a partition cut
	DroppedStale atomic.Uint64 // dropped because the sender's epoch was fenced
	Sheds        atomic.Uint64
	// HBMsgs/HBBytes meter the load-exchange plane only (heartbeats,
	// beacons, load maps), counted at send with modelled wire sizes, so a
	// serve run can report heartbeat traffic per balancer interval —
	// O(ranks²) all-pairs vs O(ranks) aggregated — separately from client
	// traffic.
	HBMsgs  atomic.Uint64
	HBBytes atomic.Uint64
}

// atomicRng is a lock-free splitmix64 stream: a shared atomic counter plus
// the finaliser permutation. Statistically strong enough for loss/jitter
// draws; deliberately not the simulator's seeded stream (no digest contract
// in live mode).
type atomicRng struct{ state atomic.Uint64 }

func (r *atomicRng) float64() float64 {
	x := r.state.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func (r *atomicRng) int63n(n int64) int64 {
	v := int64(r.float64() * float64(n))
	if v >= n {
		v = n - 1
	}
	return v
}

var _ simnet.Transport = (*transport)(nil)

func newTransport(rt *Runtime, cfg simnet.Config, seed int64) *transport {
	if cfg.Latency < 0 {
		panic("live: negative latency")
	}
	t := &transport{
		rt:     rt,
		cfg:    cfg,
		nodes:  map[simnet.Addr]*endpoint{},
		actors: map[simnet.Addr]*actor{},
	}
	t.rng.state.Store(uint64(seed))
	return t
}

// bind associates an address with its owning actor. Must precede Register
// for actor-owned addresses (the runtime binds before constructing the MDS).
func (t *transport) bind(a simnet.Addr, owner *actor) {
	t.mu.Lock()
	t.actors[a] = owner
	t.mu.Unlock()
}

// Register attaches a handler to an address (panics on duplicates, like the
// simulated network: silent traffic splits exist in no real deployment).
func (t *transport) Register(a simnet.Addr, h simnet.Handler) {
	if h == nil {
		panic("live: nil handler")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.nodes[a]; dup {
		panic(fmt.Sprintf("live: address %d registered twice", a))
	}
	t.nodes[a] = &endpoint{h: h, a: t.actors[a]}
}

// Unregister removes a node; in-flight messages to it drop at delivery.
func (t *transport) Unregister(a simnet.Addr) {
	t.mu.Lock()
	delete(t.nodes, a)
	t.mu.Unlock()
}

// Registered reports whether a handler currently owns the address.
func (t *transport) Registered(a simnet.Addr) bool {
	t.mu.RLock()
	_, ok := t.nodes[a]
	t.mu.RUnlock()
	return ok
}

// Partition cuts the directed link from -> to: every message on it drops at
// send time until Heal. Asymmetric by design — cutting rank->monitor while
// leaving monitor->rank intact (or vice versa) is exactly the failure shape
// that makes naive liveness detection split-brain.
func (t *transport) Partition(from, to simnet.Addr) {
	t.mu.Lock()
	if t.partitions == nil {
		t.partitions = map[[2]simnet.Addr]bool{}
	}
	t.partitions[[2]simnet.Addr{from, to}] = true
	t.mu.Unlock()
}

// Heal removes the directed cut from -> to.
func (t *transport) Heal(from, to simnet.Addr) {
	t.mu.Lock()
	delete(t.partitions, [2]simnet.Addr{from, to})
	t.mu.Unlock()
}

// HealAll removes every partition cut.
func (t *transport) HealAll() {
	t.mu.Lock()
	t.partitions = nil
	t.mu.Unlock()
}

func (t *transport) partitioned(from, to simnet.Addr) bool {
	t.mu.RLock()
	cut := t.partitions[[2]simnet.Addr{from, to}]
	t.mu.RUnlock()
	return cut
}

// registerEpoch attaches a handler whose registration is owned by a
// membership epoch. Unlike Register, an existing registration does not
// panic: a higher epoch forcibly replaces it (the monitor already fenced
// the old daemon — this is the blocklist taking effect at the message
// plane), a lower epoch is refused silently (a zombie racing its
// replacement must not steal the address back), and an equal epoch is a
// runtime bug.
func (t *transport) registerEpoch(a simnet.Addr, h simnet.Handler, epoch uint64) {
	if h == nil {
		panic("live: nil handler")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.nodes[a]; ok {
		if epoch < old.epoch {
			return
		}
		if epoch == old.epoch {
			panic(fmt.Sprintf("live: address %d registered twice at epoch %d", a, epoch))
		}
	}
	t.nodes[a] = &endpoint{h: h, a: t.actors[a], epoch: epoch}
}

// unregisterEpoch removes the registration only if the caller's epoch still
// owns it: a fenced zombie crashing after its replacement registered must
// not tear down the replacement's endpoint.
func (t *transport) unregisterEpoch(a simnet.Addr, epoch uint64) {
	t.mu.Lock()
	if ep, ok := t.nodes[a]; ok && ep.epoch == epoch {
		delete(t.nodes, a)
	}
	t.mu.Unlock()
}

// SetLinkFault installs a fault on the directed link from -> to.
func (t *transport) SetLinkFault(from, to simnet.Addr, f simnet.LinkFault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f.LossProb <= 0 && f.ExtraLatency <= 0 {
		delete(t.linkFaults, [2]simnet.Addr{from, to})
		return
	}
	if t.linkFaults == nil {
		t.linkFaults = map[[2]simnet.Addr]simnet.LinkFault{}
	}
	t.linkFaults[[2]simnet.Addr{from, to}] = f
}

// SetDefaultLinkFault applies f to every link without a specific fault.
func (t *transport) SetDefaultLinkFault(f simnet.LinkFault) {
	t.mu.Lock()
	t.defaultFault = f
	t.mu.Unlock()
}

func (t *transport) faultFor(from, to simnet.Addr) simnet.LinkFault {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if f, ok := t.linkFaults[[2]simnet.Addr{from, to}]; ok {
		return f
	}
	return t.defaultFault
}

// hbWireSize models the on-wire size of a load-exchange message (0 for
// everything else). Sizes are the field payloads a real encoding would
// carry: a full heartbeat is ~8 float64 loads plus header, a beacon is
// three scalars (plus an inlined load vector in aggregated mode), a load
// map is a header plus one vector per present rank.
func hbWireSize(msg simnet.Message) int {
	switch v := msg.(type) {
	case *mds.Heartbeat:
		return 64
	case *mon.Beacon:
		if v.Load != nil {
			return 80
		}
		return 24
	case *mon.LoadMap:
		return 16 + 57*len(v.Loads)
	}
	return 0
}

// Send schedules delivery after the link latency. Safe from any goroutine.
// A zero delay delivers inline, so the caller must hold no lock that a
// load-generator handler takes (docs/SERVING.md, ordering rule 5).
func (t *transport) Send(from, to simnet.Addr, msg simnet.Message) {
	t.Sent.Add(1)
	if sz := hbWireSize(msg); sz > 0 {
		t.HBMsgs.Add(1)
		t.HBBytes.Add(uint64(sz))
	}
	if t.partitioned(from, to) {
		t.DroppedPart.Add(1)
		return
	}
	f := t.faultFor(from, to)
	if f.LossProb > 0 {
		if t.rng.float64() < f.LossProb {
			t.DroppedLoss.Add(1)
			return
		}
	}
	delay := t.cfg.Latency + f.ExtraLatency
	if t.cfg.Jitter > 0 {
		delay += sim.Time(t.rng.int63n(int64(2*t.cfg.Jitter)+1)) - t.cfg.Jitter
	}
	if delay <= 0 {
		t.deliver(from, to, msg)
		return
	}
	time.AfterFunc(delay.Duration(), func() { t.deliver(from, to, msg) })
}

// deliver routes an arrived message: an endpoint without an actor handles it
// here; for a rank, an envelope goes on the bounded lane if it is a request
// (shedding on refusal) and on the control lane otherwise, and the actor
// runs it later through handle.
func (t *transport) deliver(from, to simnet.Addr, msg simnet.Message) {
	t.mu.RLock()
	ep := t.nodes[to]
	t.mu.RUnlock()
	if ep == nil {
		t.DroppedDead.Add(1)
		return
	}
	if ep.a == nil {
		t.Delivered.Add(1)
		ep.h.HandleMessage(from, msg)
		return
	}
	m := mail{ep: ep, from: from, msg: msg}
	if r, ok := msg.(*mds.Request); ok {
		if !ep.a.offer(m) {
			t.Sheds.Add(1)
			t.Send(to, r.Client, &mds.Reply{ReqID: r.ID, Err: ErrOverloaded.Error()})
			return
		}
		t.Delivered.Add(1)
		return
	}
	t.Delivered.Add(1)
	ep.a.enqueue(m)
}

// handle runs an envelope on its actor. A crashed MDS still has lane
// entries from before it unregistered; those are dropped here, mirroring
// the simulated network where delivery to a dead daemon fails.
func (t *transport) handle(m mail) {
	if c, ok := m.ep.h.(interface{ Crashed() bool }); ok && c.Crashed() {
		t.DroppedDead.Add(1)
		return
	}
	m.ep.h.HandleMessage(m.from, m.msg)
}

// fencedNet is the transport view handed to a monitored daemon: it stamps
// the daemon's membership epoch onto the message plane. Sends are dropped
// once the runtime's fencing table (the mdsmap/blocklist analogue, reachable
// even when the message plane is partitioned) shows a newer epoch for the
// rank, and registration is epoch-owned so a zombie can neither reclaim its
// address nor unregister its replacement. Only built when the monitor is
// enabled — unmonitored runtimes use the raw transport, byte-for-byte
// today's behavior.
type fencedNet struct {
	t     *transport
	rank  int
	epoch uint64
}

var _ simnet.Transport = (*fencedNet)(nil)

func (f *fencedNet) Send(from, to simnet.Addr, msg simnet.Message) {
	if f.t.rt.epochAt(f.rank) > f.epoch {
		f.t.DroppedStale.Add(1)
		return
	}
	f.t.Send(from, to, msg)
}

func (f *fencedNet) Register(a simnet.Addr, h simnet.Handler) {
	f.t.registerEpoch(a, h, f.epoch)
}

func (f *fencedNet) Unregister(a simnet.Addr) {
	f.t.unregisterEpoch(a, f.epoch)
}

// Registered reports whether any handler owns the address — deliberately
// epoch-blind, so a fenced daemon's Recover sees its replacement's
// registration and stays down (the same semantics mds.Recover relies on
// against the simulated network).
func (f *fencedNet) Registered(a simnet.Addr) bool { return f.t.Registered(a) }
