package balancer

import "mantle/internal/namespace"

// NoBalancer never migrates: all metadata stays where it is (the "high
// locality" configuration of Figure 3).
type NoBalancer struct{}

// Name implements Balancer.
func (NoBalancer) Name() string { return "none" }

// MetaLoad implements Balancer using the CephFS scalarisation.
func (NoBalancer) MetaLoad(d namespace.CounterSnapshot) (float64, error) { return d.CephLoad(), nil }

// MDSLoad implements Balancer.
func (NoBalancer) MDSLoad(rank namespace.Rank, e *Env) (float64, error) {
	return e.MDSs[rank].Auth, nil
}

// When implements Balancer: never migrate.
func (NoBalancer) When(_ *Env) (bool, error) { return false, nil }

// Where implements Balancer.
func (NoBalancer) Where(_ *Env) (Targets, error) { return nil, nil }

// HowMuch implements Balancer.
func (NoBalancer) HowMuch(_ *Env) ([]string, error) { return []string{"big_first"}, nil }
