package balancer

import (
	"fmt"
	"sync"

	"mantle/internal/namespace"
)

// Versioned layers balancer versions with last-known-good fallback, the
// safety net §3 of the paper gets from storing balancer versions in RADOS:
// injected policies are untrusted, so a version whose hook errors or whose
// targets fail sanity checks is demoted and the previous version reinstated,
// transparently, within the same evaluation.
//
// Versioned itself implements Balancer; the MDS mechanism is unchanged. When
// every version on the stack has failed, the base version's error surfaces to
// the caller exactly as an unwrapped balancer's would, so existing
// policy-error accounting still applies.
//
// The demote/retry machinery is guarded by an internal mutex so live-mode
// heartbeats evaluating hooks from concurrent rank actors cannot race a
// Push or each other; in the single-threaded simulation the uncontended
// lock changes nothing. The wrapped versions themselves are still invoked
// under the lock, serialising hook evaluation per Versioned instance — each
// rank owns its own instance, so ranks never serialise against each other.
// OnDemote likewise fires under the lock and must not call back in.
type Versioned struct {
	mu    sync.Mutex
	stack []Balancer // stack[len-1] is active; stack[0] is the base
	// seed is the rank Seed was called with, passed on to later pushes.
	seed   namespace.Rank
	seeded bool

	// Demotions counts versions demoted over the Versioned's lifetime.
	// Read it only from the owning rank's context (or after quiescing).
	Demotions uint64
	// OnDemote, if set, observes each demotion as it happens.
	OnDemote func(d Demotion)

	events []Demotion
}

// Demotion records one fallback: the failing version, the reinstated one,
// and why.
type Demotion struct {
	From   string
	To     string
	Reason string
}

// NewVersioned wraps base as version 1 of a balancer stack.
func NewVersioned(base Balancer) *Versioned {
	if base == nil {
		panic("balancer: nil base balancer")
	}
	return &Versioned{stack: []Balancer{base}}
}

// Seed implements Seeder: every version that is a Seeder is seeded, and so
// is every version pushed later, whose VM no tick has bound yet.
func (v *Versioned) Seed(whoami namespace.Rank) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seed, v.seeded = whoami, true
	for _, b := range v.stack {
		if s, ok := b.(Seeder); ok {
			s.Seed(whoami)
		}
	}
}

// Push installs b as the new active version. The previous active version
// becomes the fallback.
func (v *Versioned) Push(b Balancer) {
	if b == nil {
		panic("balancer: nil balancer version")
	}
	v.mu.Lock()
	if s, ok := b.(Seeder); ok && v.seeded {
		s.Seed(v.seed)
	}
	v.stack = append(v.stack, b)
	v.mu.Unlock()
}

// Active reports the version currently in charge.
func (v *Versioned) Active() Balancer {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.active()
}

// active is Active without the lock, for use under it.
func (v *Versioned) active() Balancer { return v.stack[len(v.stack)-1] }

// Versions reports the stack depth.
func (v *Versioned) Versions() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.stack)
}

// DrainDemotions returns the demotions since the last drain. The MDS drains
// once per heartbeat into its flight record and counters.
func (v *Versioned) DrainDemotions() []Demotion {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := v.events
	v.events = nil
	return out
}

// demote pops the failing active version and reinstates the previous one;
// the caller must hold v.mu. It reports false when there is nothing left to
// fall back to (the base version itself failed); the base stays installed so
// a transient failure does not leave the MDS with no policy at all.
func (v *Versioned) demote(reason error) bool {
	if len(v.stack) == 1 {
		return false
	}
	from := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	d := Demotion{From: from.Name(), To: v.active().Name(), Reason: reason.Error()}
	v.Demotions++
	v.events = append(v.events, d)
	if v.OnDemote != nil {
		v.OnDemote(d)
	}
	return true
}

// Name reports the active version's name.
func (v *Versioned) Name() string { return v.Active().Name() }

// MetaLoad applies the active version, demoting and retrying on error.
func (v *Versioned) MetaLoad(d namespace.CounterSnapshot) (float64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		load, err := v.active().MetaLoad(d)
		if err == nil {
			return load, nil
		}
		if !v.demote(err) {
			return 0, err
		}
	}
}

// MDSLoad applies the active version, demoting and retrying on error.
func (v *Versioned) MDSLoad(rank namespace.Rank, e *Env) (float64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		load, err := v.active().MDSLoad(rank, e)
		if err == nil {
			return load, nil
		}
		if !v.demote(err) {
			return 0, err
		}
	}
}

// ScoreRanks implements Scorer. When the active version fails at rank k it
// is demoted and the version reinstated resumes at rank k, on the ranks the
// failed one already scored — what a loop of MDSLoad calls does.
func (v *Versioned) ScoreRanks(e *Env, from int) (int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		at, err := scoreFrom(v.active(), e, from)
		if err == nil {
			return at, nil
		}
		if !v.demote(err) {
			return at, err
		}
		from = at
	}
}

// When applies the active version, demoting and retrying on error.
func (v *Versioned) When(e *Env) (bool, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		ok, err := v.active().When(e)
		if err == nil {
			return ok, nil
		}
		if !v.demote(err) {
			return false, err
		}
	}
}

// Where applies the active version, demoting and retrying when the hook
// errors or its targets fail validation or the sanity check: a policy may
// not ship away more load than the deciding MDS carries. With no fallback
// installed the targets pass through untouched — the caller validates, as it
// would against an unwrapped balancer — so wrapping a single trusted version
// never changes a run.
func (v *Versioned) Where(e *Env) (Targets, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		t, err := v.active().Where(e)
		if err == nil && len(v.stack) > 1 {
			err = sanityCheck(t, e)
		}
		if err == nil {
			return t, nil
		}
		if !v.demote(err) {
			return nil, err
		}
	}
}

// HowMuch applies the active version, demoting and retrying on error.
func (v *Versioned) HowMuch(e *Env) ([]string, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		sel, err := v.active().HowMuch(e)
		if err == nil {
			return sel, nil
		}
		if !v.demote(err) {
			return nil, err
		}
	}
}

// sanityCheck rejects targets a sane policy cannot produce: structurally
// invalid destinations/amounts, or a total exceeding the sender's own load
// (a garbage policy trying to export more than exists). The small tolerance
// forgives float noise in honest sum-to-my-load policies.
func sanityCheck(t Targets, e *Env) error {
	if err := t.Validate(e); err != nil {
		return err
	}
	own := e.MDSs[e.WhoAmI].Load
	if sum := t.TotalTarget(); sum > own*1.0001+1e-6 {
		return fmt.Errorf("balancer: targets sum %v exceeds own load %v", sum, own)
	}
	return nil
}
