// Custompolicy shows both ways to author a balancer for the MDS cluster:
//
//  1. injecting Lua (the Mantle way — runtime-changeable, sandboxed), and
//  2. implementing the balancer.Balancer interface in Go (compile-time).
//
// The custom Lua policy below is a "queue watcher": it migrates only when
// its request queue has been long for two consecutive ticks, remembering the
// streak with WRstate/RDstate, and ships load to the least-loaded rank.
//
// Run with: go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"

	"mantle/internal/balancer"
	"mantle/internal/cluster"
	"mantle/internal/core"
	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/workload"
)

// queueWatcher is the same policy expressed natively in Go.
type queueWatcher struct {
	threshold float64
}

func (queueWatcher) Name() string { return "queue_watcher_go" }

func (queueWatcher) MetaLoad(d namespace.CounterSnapshot) (float64, error) {
	return d.IWR + d.IRD, nil
}

func (queueWatcher) MDSLoad(rank namespace.Rank, e *balancer.Env) (float64, error) {
	return e.MDSs[rank].All + 5*e.MDSs[rank].Queue, nil
}

func (q queueWatcher) When(e *balancer.Env) (bool, error) {
	streak, _ := e.State.Read().(float64)
	if e.MDSs[e.WhoAmI].Queue > q.threshold {
		if streak >= 1 {
			e.State.Write(0.0)
			return true, nil
		}
		e.State.Write(streak + 1)
		return false, nil
	}
	e.State.Write(0.0)
	return false, nil
}

func (queueWatcher) Where(e *balancer.Env) (balancer.Targets, error) {
	best := namespace.Rank(-1)
	bestLoad := 0.0
	for r, m := range e.MDSs {
		if namespace.Rank(r) == e.WhoAmI {
			continue
		}
		if best < 0 || m.Load < bestLoad {
			best = namespace.Rank(r)
			bestLoad = m.Load
		}
	}
	if best < 0 {
		return nil, nil
	}
	return balancer.Targets{best: e.MDSs[e.WhoAmI].Load / 3}, nil
}

func (queueWatcher) HowMuch(e *balancer.Env) ([]string, error) {
	return []string{"big_small", "small_first"}, nil
}

// luaQueueWatcher is the identical policy as an injectable script.
var luaQueueWatcher = core.Policy{
	Name:     "queue_watcher_lua",
	MetaLoad: `IWR + IRD`,
	MDSLoad:  `MDSs[i]["all"] + 5*MDSs[i]["q"]`,
	When: `
local streak = RDstate() or 0
if MDSs[whoami]["q"] > 2 then
  if streak >= 1 then WRstate(0) return true end
  WRstate(streak + 1)
else
  WRstate(0)
end
return false`,
	Where: `
local best, bestLoad = nil, nil
for i = 1, #MDSs do
  if i ~= whoami and (best == nil or MDSs[i]["load"] < bestLoad) then
    best, bestLoad = i, MDSs[i]["load"]
  end
end
if best ~= nil then
  targets[best] = MDSs[whoami]["load"]/3
end`,
	HowMuch: `{"big_small","small_first"}`,
}

func main() {
	// Lint the Lua policy first, as always.
	if rep := core.Validate(luaQueueWatcher); !rep.OK() {
		log.Fatalf("lua policy invalid:\n%s", rep)
	}

	factories := map[string]cluster.BalancerFactory{
		"queue_watcher_lua": cluster.LuaBalancers(luaQueueWatcher),
		"queue_watcher_go": cluster.GoBalancers(func() balancer.Balancer {
			return queueWatcher{threshold: 2}
		}),
	}
	for _, name := range []string{"queue_watcher_lua", "queue_watcher_go"} {
		cfg := cluster.DefaultConfig(3, 21)
		cfg.MDS.HeartbeatInterval = sim.Second
		c, err := cluster.New(cfg, factories[name])
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			c.AddClient(workload.SeparateDirCreates("", i, 8000))
		}
		res := c.Run(30 * sim.Minute)
		fmt.Printf("%-18s done=%v makespan=%.2fs exports=%d served=",
			name, res.AllDone, res.Makespan.Seconds(), res.TotalExports)
		for i, cnt := range res.MDSCounters {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Print(cnt.Served)
		}
		fmt.Println()
	}
	fmt.Println("\nsame policy, two implementations — the mechanism never changed.")
}
