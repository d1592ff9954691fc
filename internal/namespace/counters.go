package namespace

import (
	"mantle/internal/sim"
	"mantle/internal/stats"
)

// OpKind classifies metadata operations for the popularity counters, matching
// the metric names Mantle exposes to balancer scripts (Table 2 of the paper).
type OpKind uint8

// Counter kinds.
const (
	OpIRD     OpKind = iota // inode read: getattr, lookup, open
	OpIWR                   // inode write: create, mkdir, unlink, rename
	OpReaddir               // directory listing
	OpFetch                 // dirfrag fetched from the object store
	OpStore                 // dirfrag stored to the object store
	numOpKinds
)

func (k OpKind) String() string {
	switch k {
	case OpIRD:
		return "IRD"
	case OpIWR:
		return "IWR"
	case OpReaddir:
		return "READDIR"
	case OpFetch:
		return "FETCH"
	case OpStore:
		return "STORE"
	default:
		return "?"
	}
}

// Counters is the set of decaying popularity counters CephFS keeps per
// directory (and, here, per dirfrag). The five share one half-life, kept
// here once rather than in each counter.
type Counters struct {
	c        [numOpKinds]stats.DecayCounter
	halfLife sim.Time
}

// NewCounters returns counters with the given half-life.
func NewCounters(halfLife sim.Time) Counters {
	return Counters{halfLife: halfLife}
}

// Hit records one operation of kind k at time now.
func (cs *Counters) Hit(k OpKind, now sim.Time) { cs.c[k].Hit(now, 1, cs.halfLife) }

// Get reports the decayed value of counter k.
func (cs *Counters) Get(k OpKind, now sim.Time) float64 { return cs.c[k].Get(now, cs.halfLife) }

// Seed adds a snapshot's values into the counters at time now; used when a
// fragment split divides a parent frag's heat among its children.
func (cs *Counters) Seed(s CounterSnapshot, now sim.Time) {
	cs.c[OpIRD].Hit(now, s.IRD, cs.halfLife)
	cs.c[OpIWR].Hit(now, s.IWR, cs.halfLife)
	cs.c[OpReaddir].Hit(now, s.Readdir, cs.halfLife)
	cs.c[OpFetch].Hit(now, s.Fetch, cs.halfLife)
	cs.c[OpStore].Hit(now, s.Store, cs.halfLife)
}

// Snapshot captures all counters at time now.
func (cs *Counters) Snapshot(now sim.Time) CounterSnapshot {
	return CounterSnapshot{
		IRD:     cs.Get(OpIRD, now),
		IWR:     cs.Get(OpIWR, now),
		Readdir: cs.Get(OpReaddir, now),
		Fetch:   cs.Get(OpFetch, now),
		Store:   cs.Get(OpStore, now),
	}
}

// CounterSnapshot is a point-in-time view of a directory's popularity, the
// per-dirfrag metrics a metaload policy consumes.
type CounterSnapshot struct {
	IRD, IWR, Readdir, Fetch, Store float64
}

// Add returns the element-wise sum of two snapshots.
func (s CounterSnapshot) Add(o CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		IRD:     s.IRD + o.IRD,
		IWR:     s.IWR + o.IWR,
		Readdir: s.Readdir + o.Readdir,
		Fetch:   s.Fetch + o.Fetch,
		Store:   s.Store + o.Store,
	}
}

// Scale returns the snapshot with every counter multiplied by f.
func (s CounterSnapshot) Scale(f float64) CounterSnapshot {
	return CounterSnapshot{
		IRD:     s.IRD * f,
		IWR:     s.IWR * f,
		Readdir: s.Readdir * f,
		Fetch:   s.Fetch * f,
		Store:   s.Store * f,
	}
}

// CephLoad evaluates the hard-coded CephFS metadata-load scalarisation from
// Table 1 of the paper: inode reads + 2*(inode writes) + readdirs +
// 2*fetches + 4*stores.
func (s CounterSnapshot) CephLoad() float64 {
	return s.IRD + 2*s.IWR + s.Readdir + 2*s.Fetch + 4*s.Store
}
