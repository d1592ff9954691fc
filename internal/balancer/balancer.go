// Package balancer defines the load-balancing policy framework: the metrics
// environment each MDS evaluates (Table 2 of the paper), the Balancer policy
// interface (the four decisions Mantle decouples: load calculation, when,
// where, how-much), the dirfrag selectors, and NoBalancer, which never
// migrates.
//
// The paper's balancers are Lua policies (policies/*.lua), run by package
// core through the same interface; a Go type that implements it is a
// balancer too, so the MDS mechanism is identical whichever way a policy is
// authored.
package balancer

import (
	"fmt"
	"slices"

	"mantle/internal/namespace"
)

// MDSMetrics is one MDS's view of a peer, extracted from heartbeats. Field
// names follow the Mantle environment (MDSs[i]["..."] in scripts).
type MDSMetrics struct {
	// Auth is the metadata load on subtrees this MDS is authoritative for.
	Auth float64
	// All is the metadata load on all subtrees it touches (auth+replica).
	All float64
	// CPU is percent CPU utilisation (0-100), an instantaneous sample.
	CPU float64
	// Mem is percent memory (cache) utilisation (0-100).
	Mem float64
	// Queue is the number of requests waiting in the MDS op queue.
	Queue float64
	// Req is the request rate in requests/second.
	Req float64
	// Load is the scalarised MDS load, filled in by the framework from
	// the active mdsload policy.
	Load float64
}

// Env is the evaluation environment for when/where decisions: everything a
// policy may consult, mirroring Table 2 of the paper.
type Env struct {
	// WhoAmI is the rank of the deciding MDS.
	WhoAmI namespace.Rank
	// MDSs holds the latest per-rank metrics (index = rank). Entries for
	// ranks whose heartbeat has not arrived yet are zero — policies see
	// stale or missing data exactly as the paper describes (§2.2.2).
	MDSs []MDSMetrics
	// Total is the sum of MDSs[i].Load.
	Total float64
	// AuthMetaLoad and AllMetaLoad are the local metadata loads.
	AuthMetaLoad float64
	AllMetaLoad  float64
	// State persists small values between balancer invocations
	// (WRstate/RDstate in Mantle scripts).
	State StateStore
}

// Targets maps a destination rank to the amount of load to send there — the
// output of the "where" decision.
type Targets map[namespace.Rank]float64

// TotalTarget sums the load across all destinations, in ascending rank
// order: a float sum depends on its order, and a map's is random.
func (t Targets) TotalTarget() float64 {
	var buf [64]namespace.Rank
	ranks := buf[:0]
	for r := range t {
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	sum := 0.0
	for _, r := range ranks {
		sum += t[r]
	}
	return sum
}

// Balancer is a complete balancing policy. The MDS mechanism invokes the
// methods in order: MetaLoad (per dirfrag/subtree), MDSLoad (per peer),
// When, then — only if When is true — Where and HowMuch.
type Balancer interface {
	// Name identifies the policy in logs and experiment output.
	Name() string
	// MetaLoad quantifies the work represented by one dirfrag or subtree.
	MetaLoad(d namespace.CounterSnapshot) (float64, error)
	// MDSLoad scalarises the metrics of e.MDSs[rank] into a comparable
	// load. The framework scores ranks in order (see ScoreAll): when
	// MDSLoad runs for rank i, the Load of every rank before i holds that
	// rank's score and e.Total is their running sum, while rank i and the
	// ranks after it still carry the Load they came in with (zero on a
	// fresh tick or a replayed record).
	MDSLoad(rank namespace.Rank, e *Env) (float64, error)
	// When reports whether this MDS should migrate load now.
	When(e *Env) (bool, error)
	// Where distributes load to target ranks.
	Where(e *Env) (Targets, error)
	// HowMuch names the dirfrag selectors to try, in preference order.
	HowMuch(e *Env) ([]string, error)
}

// Seeder is an optional Balancer extension for a policy whose MetaLoad may
// read its own rank's scalars (whoami, authmetaload, allmetaload). A tick
// binds them only after the heartbeat that prices units with MetaLoad, so
// Seed publishes them for a fresh rank, both loads zero; the MDS calls it
// once, when the daemon is built.
type Seeder interface {
	Seed(whoami namespace.Rank)
}

// Scorer is an optional Balancer extension that scores many ranks in one
// call. ScoreRanks must leave e exactly as calling MDSLoad for each rank from
// `from` on, in order, and recording each result with e.Score would. It
// returns the rank it stopped at: len(e.MDSs), or the rank whose MDSLoad
// failed, with every rank before it scored.
type Scorer interface {
	ScoreRanks(e *Env, from int) (int, error)
}

// ScoreAll fills every e.MDSs[i].Load with b's MDSLoad for rank i, and
// e.Total with their sum, scoring rank 0 first. A Scorer does it in one call;
// any other balancer is called once per rank. On an error the ranks before
// the failing one stay scored, as a loop that stops there leaves them.
func ScoreAll(b Balancer, e *Env) error {
	_, err := scoreFrom(b, e, 0)
	return err
}

func scoreFrom(b Balancer, e *Env, from int) (int, error) {
	if s, ok := b.(Scorer); ok {
		return s.ScoreRanks(e, from)
	}
	for r := from; r < len(e.MDSs); r++ {
		load, err := b.MDSLoad(namespace.Rank(r), e)
		if err != nil {
			return r, err
		}
		e.Score(r, load)
	}
	return len(e.MDSs), nil
}

// Score records rank r's MDSLoad result: a negative load counts as zero, and
// e.Total accumulates it.
func (e *Env) Score(r int, load float64) {
	if load < 0 {
		load = 0
	}
	e.MDSs[r].Load = load
	e.Total += load
}

// StateStore persists a small value between balancer invocations on one MDS
// (the paper implements it with temporary files; an in-memory store behaves
// identically for simulation).
type StateStore interface {
	// Write saves v, replacing any previous value.
	Write(v any)
	// Read returns the last written value, or nil.
	Read() any
}

// MemState is an in-memory StateStore.
type MemState struct{ v any }

// Write saves v.
func (m *MemState) Write(v any) { m.v = v }

// Read returns the saved value or nil.
func (m *MemState) Read() any { return m.v }

// Validate sanity-checks targets against the environment: destinations must
// be valid ranks and not the sender itself; amounts must be non-negative and
// not NaN. Of several offending ranks it reports the lowest, so the error
// does not depend on the map's iteration order.
func (t Targets) Validate(e *Env) error {
	bad, found := namespace.Rank(0), false
	for rank, amt := range t {
		if (!found || rank < bad) && !validTarget(e, rank, amt) {
			bad, found = rank, true
		}
	}
	if !found {
		return nil
	}
	switch amt := t[bad]; {
	case bad < 0 || int(bad) >= len(e.MDSs):
		return fmt.Errorf("balancer: target rank %d out of range [0,%d)", bad, len(e.MDSs))
	case bad == e.WhoAmI:
		return fmt.Errorf("balancer: policy targeted itself (rank %d)", bad)
	default:
		return fmt.Errorf("balancer: invalid target load %v for rank %d", amt, bad)
	}
}

func validTarget(e *Env, rank namespace.Rank, amt float64) bool {
	return rank >= 0 && int(rank) < len(e.MDSs) && rank != e.WhoAmI && amt >= 0 // false for NaN
}
