package core

import (
	"strings"

	"mantle/internal/balancer"
	"mantle/internal/lua"
)

// The when_replicate hook extends the programmable surface to hotspot
// mitigation: where when/where/howmuch move authority between ranks,
// when_replicate decides whether a read-hot directory should additionally be
// served from read replicas on peer ranks — and when those replicas should
// be torn down again. The authoritative rank evaluates it per hot-directory
// candidate on every balancer epoch.
//
// Environment:
//
//	whoami            evaluating rank, 1-based like the Table 2 env
//	active            number of active ranks
//	max_replicas      configured ceiling on replicas per directory
//	total             cluster-wide metadata load
//	MDSs[i]           per rank, 1-based:
//	  ["auth"|"all"|"cpu"|"mem"|"q"|"req"|"load"]
//	path              candidate directory path
//	heat              candidate's metadata load (decay counters)
//	rd                candidate's read rate (inode reads + readdirs)
//	wr                candidate's write rate (inode writes)
//	replicas          replicas currently granted for the candidate
//	WRstate/RDstate   persistent scratch, as in the balancing hooks
//
// The hook returns a number: > 0 grants one more replica, < 0 revokes the
// candidate's replicas, 0 (or nil) holds. Placement (which peer receives
// the grant) stays with the runtime — the hook decides *whether*, the
// least-loaded active peer receives.

// Replicate hook verdicts.
const (
	ReplicateHold   = 0
	ReplicateGrant  = 1
	ReplicateRevoke = -1
)

// ReplicateHook is a compiled when_replicate script. Like ElasticHook it
// owns its VM: each rank holds its own hook, and evaluation never races the
// rank's balancing hooks (both run on the rank's execution lane, but the
// VMs share no tables).
type ReplicateHook struct {
	hookEnv
	chunk *lua.Chunk
}

// NewReplicateHook compiles src (empty = the when_replicate hook of
// policies/replicate.lua: replicate a directory whose load is well above its
// fair share and read-dominated, and revoke once it cools off or writes pick
// up, since each write pays a revoke round trip).
func NewReplicateHook(src string, opts Options) (*ReplicateHook, error) {
	if strings.TrimSpace(src) == "" {
		src = builtin("replicate").WhenReplicate
	}
	chunk, err := compile("when_replicate", src)
	if err != nil {
		return nil, err
	}
	h := &ReplicateHook{chunk: chunk}
	h.init(mdsKeys, opts)
	return h, nil
}

// Eval runs the hook and reports ReplicateGrant, ReplicateRevoke or
// ReplicateHold. Replicas are granted one per epoch so every placement
// reacts to the previous one's effect on the load map.
func (h *ReplicateHook) Eval(e balancer.ReplicaEnv) (int, error) {
	h.setNum("whoami", float64(e.WhoAmI)+1)
	h.setNum("active", float64(e.Active))
	h.setNum("max_replicas", float64(e.MaxReplicas))
	h.setNum("total", e.Total)
	h.vm.Globals.Set("path", e.Path)
	h.setNum("heat", e.Heat)
	h.setNum("rd", e.Rd)
	h.setNum("wr", e.Wr)
	h.setNum("replicas", float64(e.Replicas))
	h.bindRanks(mdsBits(h.spare[:0], e.MDSs))
	return h.verdict(h.chunk)
}

// syntheticReplicateEnvs is the validator's state spread for when_replicate:
// cold, read-hot, write-hot and mixed candidates, with and without existing
// replicas, across a few cluster sizes.
func syntheticReplicateEnvs() []balancer.ReplicaEnv {
	mk := func(loads ...float64) []balancer.MDSMetrics {
		out := make([]balancer.MDSMetrics, len(loads))
		var total float64
		for i, l := range loads {
			out[i] = balancer.MDSMetrics{Auth: l, All: l, Load: l, CPU: l, Mem: 10, Queue: l / 10, Req: l * 2}
			total += l
		}
		return out
	}
	sum := func(ms []balancer.MDSMetrics) float64 {
		var t float64
		for _, m := range ms {
			t += m.Load
		}
		return t
	}
	var envs []balancer.ReplicaEnv
	shapes := []struct {
		mdss     []balancer.MDSMetrics
		heat     float64
		rd, wr   float64
		replicas int
	}{
		{mk(0), 0, 0, 0, 0},
		{mk(100, 0), 90, 900, 10, 0},
		{mk(100, 0), 90, 900, 10, 1},
		{mk(50, 50, 50), 10, 50, 50, 0},
		{mk(80, 10, 10, 10), 70, 100, 600, 0},
		{mk(5, 5, 5, 5), 1, 4, 0, 2},
	}
	for _, s := range shapes {
		envs = append(envs, balancer.ReplicaEnv{
			WhoAmI: 0, Active: len(s.mdss), MaxReplicas: 2, Total: sum(s.mdss),
			MDSs: s.mdss, Path: "/hot", Heat: s.heat, Rd: s.rd, Wr: s.wr,
			Replicas: s.replicas,
		})
	}
	return envs
}

// validateReplicate dry-runs a when_replicate script and appends problems.
func validateReplicate(src string, add func(format string, args ...any)) {
	h, err := NewReplicateHook(src, Options{MaxSteps: 200_000})
	if err != nil {
		add("%s", err)
		return
	}
	for _, e := range syntheticReplicateEnvs() {
		if _, err := h.Eval(e); err != nil {
			add("%s (state: %d ranks, heat=%g)", err, e.Active, e.Heat)
		}
	}
}
