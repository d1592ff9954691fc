// Package simnet provides a simulated message-passing network on top of the
// discrete-event engine. Every node gets an address; messages are delivered
// after a per-link latency plus jitter. The network supports directional
// partitions so tests can exercise stale-heartbeat behaviour (§2.2.2 of the
// paper: "decentralized MDS state ... slightly stale").
package simnet

import (
	"fmt"
	"math/rand"

	"mantle/internal/sim"
	"mantle/internal/telemetry"
)

// Addr identifies a node on the network. MDS ranks and clients share one
// address space; the cluster harness assigns ranges.
type Addr int

// Message is anything a node sends to another. Concrete types are defined by
// the protocol packages (mds, client).
type Message any

// Handler receives delivered messages.
type Handler interface {
	// HandleMessage is invoked by the network when a message arrives.
	HandleMessage(from Addr, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from Addr, msg Message)

// HandleMessage calls f(from, msg).
func (f HandlerFunc) HandleMessage(from Addr, msg Message) { f(from, msg) }

// Transport is the message-passing surface protocol code (the MDS) depends
// on instead of a concrete *Network: the simulated network implements it on
// the discrete-event engine, and the live runtime implements it with real
// goroutines and wall-clock delivery delays. Semantics both share:
// registering a taken address panics, sending to an unregistered address
// silently drops at delivery time, and per-link latency/jitter/loss shape
// delivery.
type Transport interface {
	// Register attaches a handler to an address (panics on duplicates).
	Register(a Addr, h Handler)
	// Unregister removes a node; in-flight messages to it are dropped.
	Unregister(a Addr)
	// Registered reports whether a handler currently owns the address.
	Registered(a Addr) bool
	// Send delivers msg from -> to after the link's delay.
	Send(from, to Addr, msg Message)
}

// Network implements Transport.
var _ Transport = (*Network)(nil)

// Config holds the latency model.
type Config struct {
	// Latency is the one-way message delay.
	Latency sim.Time
	// Jitter is the max absolute deviation added to Latency, drawn
	// uniformly from [-Jitter, +Jitter].
	Jitter sim.Time
}

// DefaultConfig models a LAN: 150 µs one-way, ±30 µs jitter.
func DefaultConfig() Config {
	return Config{Latency: 150 * sim.Microsecond, Jitter: 30 * sim.Microsecond}
}

// LinkFault degrades one directed link: each message is dropped with
// probability LossProb, and surviving messages pay ExtraLatency on top of
// the configured delay. The zero LinkFault is a healthy link.
type LinkFault struct {
	// LossProb is the per-message drop probability in [0, 1].
	LossProb float64
	// ExtraLatency is added to the one-way delay of surviving messages.
	ExtraLatency sim.Time
}

// active reports whether the fault degrades anything.
func (f LinkFault) active() bool { return f.LossProb > 0 || f.ExtraLatency > 0 }

// Network delivers messages between registered nodes.
type Network struct {
	engine *sim.Engine
	cfg    Config
	nodes  map[Addr]Handler
	cut    map[[2]Addr]bool

	// Link-fault state (probabilistic loss and extra latency). Loss draws
	// come from a dedicated RNG so a run with no faults installed performs
	// zero draws and stays bit-identical to a run without the machinery.
	linkFaults   map[[2]Addr]LinkFault
	defaultFault LinkFault
	faultRng     *rand.Rand
	faultSeed    int64

	free []*delivery // idle delivery records

	// Sent and Delivered count messages for observability. Dropped is the
	// total of the three causes broken out below it.
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	// DroppedPartition counts messages cut at send time by Partition.
	DroppedPartition uint64
	// DroppedDead counts messages that arrived at an unregistered address
	// (the destination died or was never there).
	DroppedDead uint64
	// DroppedLoss counts messages lost to an installed LinkFault.
	DroppedLoss uint64

	// Telemetry (nil = disabled).
	tel        *telemetry.Telemetry
	cSent      *telemetry.Counter
	cDelivered *telemetry.Counter
	cDropped   *telemetry.Counter
	cDropPart  *telemetry.Counter
	cDropDead  *telemetry.Counter
	cDropLoss  *telemetry.Counter
	hDelay     *telemetry.Histogram
}

// New creates a network on the engine.
func New(engine *sim.Engine, cfg Config) *Network {
	if cfg.Latency < 0 {
		panic("simnet: negative latency")
	}
	return &Network{engine: engine, cfg: cfg, nodes: map[Addr]Handler{}, cut: map[[2]Addr]bool{}}
}

// SetTelemetry attaches a telemetry sink. Metric handles are resolved once
// here so the per-message cost when enabled is a few pointer bumps, and a
// single nil check when disabled.
func (n *Network) SetTelemetry(t *telemetry.Telemetry) {
	n.tel = t
	if t == nil {
		return
	}
	n.cSent = t.Reg.Counter("net.sent", telemetry.NoRank)
	n.cDelivered = t.Reg.Counter("net.delivered", telemetry.NoRank)
	n.cDropped = t.Reg.Counter("net.dropped", telemetry.NoRank)
	n.cDropPart = t.Reg.Counter("net.dropped_partition", telemetry.NoRank)
	n.cDropDead = t.Reg.Counter("net.dropped_dead", telemetry.NoRank)
	n.cDropLoss = t.Reg.Counter("net.dropped_loss", telemetry.NoRank)
	n.hDelay = t.Reg.Histogram("net.delay_us", telemetry.NoRank)
}

// Register attaches a handler to an address. Registering an address twice
// panics: it would silently split traffic in a way no real deployment allows.
func (n *Network) Register(a Addr, h Handler) {
	if _, dup := n.nodes[a]; dup {
		panic(fmt.Sprintf("simnet: address %d registered twice", a))
	}
	if h == nil {
		panic("simnet: nil handler")
	}
	n.nodes[a] = h
}

// Unregister removes a node; in-flight messages to it are dropped on arrival.
func (n *Network) Unregister(a Addr) { delete(n.nodes, a) }

// Registered reports whether a handler currently owns the address.
func (n *Network) Registered(a Addr) bool {
	_, ok := n.nodes[a]
	return ok
}

// Partition cuts the directed link from -> to. Messages sent on a cut link
// are silently dropped (counted in Dropped).
func (n *Network) Partition(from, to Addr) { n.cut[[2]Addr{from, to}] = true }

// Heal restores the directed link from -> to.
func (n *Network) Heal(from, to Addr) { delete(n.cut, [2]Addr{from, to}) }

// HealAll restores every link.
func (n *Network) HealAll() { n.cut = map[[2]Addr]bool{} }

// SetFaultSeed seeds the RNG behind probabilistic link faults. The stream is
// separate from the engine's so installing (or removing) loss on one link
// never perturbs any other random decision in the run. Call before
// installing faults; calling again reseeds.
func (n *Network) SetFaultSeed(seed int64) {
	n.faultSeed = seed
	n.faultRng = rand.New(rand.NewSource(seed))
}

// SetLinkFault installs a fault on the directed link from -> to, replacing
// any previous fault on it. A zero LinkFault clears it.
func (n *Network) SetLinkFault(from, to Addr, f LinkFault) {
	if !f.active() {
		delete(n.linkFaults, [2]Addr{from, to})
		return
	}
	if n.linkFaults == nil {
		n.linkFaults = map[[2]Addr]LinkFault{}
	}
	n.linkFaults[[2]Addr{from, to}] = f
}

// SetDefaultLinkFault applies f to every link without a specific fault
// installed. A zero LinkFault restores healthy defaults.
func (n *Network) SetDefaultLinkFault(f LinkFault) { n.defaultFault = f }

// ClearLinkFaults removes every installed fault, including the default.
func (n *Network) ClearLinkFaults() {
	n.linkFaults = nil
	n.defaultFault = LinkFault{}
}

// faultFor returns the fault governing one directed link.
func (n *Network) faultFor(from, to Addr) LinkFault {
	if f, ok := n.linkFaults[[2]Addr{from, to}]; ok {
		return f
	}
	return n.defaultFault
}

// Send schedules delivery of msg from -> to after the configured latency.
// Sending to an unknown address is not an error at send time; the message is
// dropped at delivery time, as a real network would deliver to a dead host.
func (n *Network) Send(from, to Addr, msg Message) {
	n.Sent++
	if n.tel != nil {
		n.cSent.Add(1)
	}
	if n.cut[[2]Addr{from, to}] {
		n.Dropped++
		n.DroppedPartition++
		if n.tel != nil {
			n.cDropped.Add(1)
			n.cDropPart.Add(1)
		}
		return
	}
	var extra sim.Time
	if n.defaultFault.active() || len(n.linkFaults) > 0 {
		f := n.faultFor(from, to)
		if f.LossProb > 0 {
			if n.faultRng == nil {
				n.SetFaultSeed(n.faultSeed + 1)
			}
			if n.faultRng.Float64() < f.LossProb {
				n.Dropped++
				n.DroppedLoss++
				if n.tel != nil {
					n.cDropped.Add(1)
					n.cDropLoss.Add(1)
				}
				return
			}
		}
		extra = f.ExtraLatency
	}
	delay := n.cfg.Latency + extra + n.engine.Jitter(n.cfg.Jitter)
	if delay < 0 {
		delay = 0
	}
	d := n.alloc()
	d.from, d.to, d.msg, d.sentAt = from, to, msg, n.engine.Now()
	n.engine.Schedule(delay, d.arriveFn)
}

// delivery is one message in flight. Records are pooled on the network (the
// engine's goroutine owns both) with arrive bound once, so a send schedules
// no fresh closure.
type delivery struct {
	n        *Network
	from, to Addr
	msg      Message
	sentAt   sim.Time
	arriveFn func()
}

// alloc takes a delivery record from the free list, or makes one.
func (n *Network) alloc() *delivery {
	if k := len(n.free); k > 0 {
		d := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return d
	}
	d := &delivery{n: n}
	d.arriveFn = d.arrive
	return d
}

// arrive hands the message to its destination. The record goes back to the
// free list before the handler runs, because handlers send.
func (d *delivery) arrive() {
	n := d.n
	from, to, msg, sentAt := d.from, d.to, d.msg, d.sentAt
	d.msg = nil
	n.free = append(n.free, d)
	h, ok := n.nodes[to]
	if !ok {
		n.Dropped++
		n.DroppedDead++
		if n.tel != nil {
			n.cDropped.Add(1)
			n.cDropDead.Add(1)
		}
		return
	}
	n.Delivered++
	if n.tel != nil {
		n.cDelivered.Add(1)
		n.hDelay.Observe(float64(n.engine.Now() - sentAt))
		if n.tel.NetTrace && n.tel.Tracer != nil {
			n.tel.Tracer.Complete(telemetry.PIDNet, 0, "net",
				fmt.Sprintf("%d->%d %T", from, to, msg), sentAt, n.engine.Now()-sentAt)
		}
	}
	h.HandleMessage(from, msg)
}

// Broadcast sends msg from -> each address in to.
func (n *Network) Broadcast(from Addr, to []Addr, msg Message) {
	for _, a := range to {
		n.Send(from, a, msg)
	}
}

// Latency reports the configured base one-way latency.
func (n *Network) Latency() sim.Time { return n.cfg.Latency }
