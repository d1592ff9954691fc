package core

import (
	"strings"

	"mantle/internal/lua"
)

// The when_elastic hook extends Mantle's programmable surface from load
// placement to cluster membership: where when/where/howmuch decide how load
// moves between a fixed set of ranks, when_elastic decides whether the rank
// pool itself should grow or shrink. It is evaluated by the elastic
// coordinator (not by every MDS) against per-rank queue and latency metrics
// — the signals Prequal argues predict overload better than raw load — plus
// the pool bounds.
//
// Environment:
//
//	active            number of active ranks
//	min_ranks         lower pool bound (the coordinator never shrinks past it)
//	max_ranks         upper pool bound
//	MDSs[i]           per active rank, 1-based like the Table 2 environment:
//	  ["q"]           queued requests (last heartbeat)
//	  ["req"]         request rate, ops/s
//	  ["cpu"]         percent utilisation
//	  ["load"]        scalarised metadata load
//	  ["lat"]         recent p99 request latency in milliseconds (0 when the
//	                  host has no latency feed, e.g. headless simulations)
//	WRstate/RDstate   persistent scratch, as in the balancing hooks
//
// The hook returns a number: > 0 votes to grow by one rank, < 0 to shrink by
// one, 0 (or nil) to hold. Debouncing lives in the coordinator (sustain
// counts and a cooldown), so a policy can be a memoryless threshold — or
// keep its own counters via WRstate if it wants different hysteresis.

// ElasticRankMetrics is one active rank's signal set for the elastic hook.
type ElasticRankMetrics struct {
	Queue float64 // queued requests at last heartbeat
	Req   float64 // request rate, ops/s
	CPU   float64 // percent utilisation
	Load  float64 // scalarised metadata load
	LatMS float64 // recent p99 request latency, milliseconds (0 = no feed)
}

// ElasticEnv is the cluster state bound for one when_elastic evaluation.
type ElasticEnv struct {
	Active   int
	MinRanks int
	MaxRanks int
	MDSs     []ElasticRankMetrics
}

// Elastic hook verdicts.
const (
	ElasticHold   = 0
	ElasticGrow   = 1
	ElasticShrink = -1
)

// DefaultElasticScript is the built-in when_elastic policy: grow when the
// pool is queue-bound or latency-bound on average, shrink when it is idle.
// The thresholds are deliberately round — they are the policy a deployment
// is expected to replace (policies/elastic.lua carries a tunable version).
const DefaultElasticScript = `
local q, lat = 0, 0
for i = 1, active do
	q = q + MDSs[i]["q"]
	lat = lat + MDSs[i]["lat"]
end
q = q / active
lat = lat / active
if q > 50 or lat > 50 then
	return 1
end
if q < 5 and lat < 5 then
	return -1
end
return 0`

// ElasticHook is a compiled when_elastic script. It owns its VM (the
// coordinator is not an MDS and shares no balancer state), so evaluation
// never races a rank's balancing hooks.
type ElasticHook struct {
	hookEnv
	chunk *lua.Chunk
}

// NewElasticHook compiles src (empty = DefaultElasticScript).
func NewElasticHook(src string, opts Options) (*ElasticHook, error) {
	if strings.TrimSpace(src) == "" {
		src = DefaultElasticScript
	}
	chunk, err := compile("when_elastic", src)
	if err != nil {
		return nil, err
	}
	h := &ElasticHook{chunk: chunk}
	h.init(elasticKeys, opts)
	return h, nil
}

// Eval runs the hook and reports ElasticGrow, ElasticShrink or ElasticHold.
// Membership moves one rank per epoch so every transition is individually
// journaled and abortable.
func (h *ElasticHook) Eval(e ElasticEnv) (int, error) {
	h.setNum("active", float64(e.Active))
	h.setNum("min_ranks", float64(e.MinRanks))
	h.setNum("max_ranks", float64(e.MaxRanks))
	h.bindRanks(elasticBits(h.spare[:0], e.MDSs))
	return h.verdict(h.chunk)
}

// syntheticElasticEnvs is the validator's state spread for when_elastic:
// idle, loaded, latency-bound and mixed pools at several sizes, each at the
// pool bounds and in the middle.
func syntheticElasticEnvs() []ElasticEnv {
	shapes := [][]ElasticRankMetrics{
		{{}},
		{{Queue: 200, Req: 5000, CPU: 95, Load: 80, LatMS: 120}},
		{{Queue: 1, LatMS: 1}, {Queue: 2, LatMS: 2}},
		{{Queue: 90, LatMS: 60}, {Queue: 110, LatMS: 80}, {Queue: 100, LatMS: 70}},
		{{Queue: 60, LatMS: 10}, {Queue: 0, LatMS: 1}, {Queue: 0, LatMS: 1}, {Queue: 0, LatMS: 1}},
	}
	var envs []ElasticEnv
	for _, mdss := range shapes {
		n := len(mdss)
		envs = append(envs,
			ElasticEnv{Active: n, MinRanks: 1, MaxRanks: n + 4, MDSs: mdss},
			ElasticEnv{Active: n, MinRanks: n, MaxRanks: n, MDSs: mdss},
		)
	}
	return envs
}

// validateElastic dry-runs a when_elastic script and appends problems.
func validateElastic(src string, add func(format string, args ...any)) {
	h, err := NewElasticHook(src, Options{MaxSteps: 200_000})
	if err != nil {
		add("%s", err)
		return
	}
	for _, e := range syntheticElasticEnvs() {
		if _, err := h.Eval(e); err != nil {
			add("%s (state: %d active)", err, e.Active)
		}
	}
}
