// Createheavy compares the paper's balancers head-to-head on the
// Figure 7 workload: four clients creating files in one shared directory on
// a 4-MDS cluster. The same storage system runs each strategy — exactly the
// methodological point of Mantle.
//
// Run with: go run ./examples/createheavy
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"mantle/internal/cluster"
	"mantle/internal/core"
	"mantle/internal/sim"
	"mantle/internal/workload"
)

const (
	numMDS         = 4
	numClients     = 4
	filesPerClient = 10000
)

func main() {
	policies := []core.Policy{
		{Name: "no_balancing", When: "false"}, // 1-MDS-equivalent baseline
		core.GreedySpillPolicy(),
		core.GreedySpillEvenPolicy(),
		core.FillAndSpillPolicy(),
		core.DefaultPolicy(),
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\ttime\texports\tflushes\tper-MDS served")
	var baseline sim.Time
	for _, p := range policies {
		res := run(p)
		if baseline == 0 {
			baseline = res.Makespan
		}
		served := ""
		for _, cnt := range res.MDSCounters {
			served += fmt.Sprintf("%6d ", cnt.Served)
		}
		fmt.Fprintf(w, "%s\t%.2fs (%+.1f%%)\t%d\t%d\t%s\n",
			p.Name, res.Makespan.Seconds(),
			(float64(baseline)/float64(res.Makespan)-1)*100,
			res.TotalExports, res.TotalFlushes, strings.TrimRight(served, " "))
	}
	w.Flush()
	fmt.Println("\npositive % = faster than no balancing; the paper's claim is that")
	fmt.Println("modest spilling wins while aggressive distribution loses (Figure 8).")
}

func run(p core.Policy) *cluster.Result {
	cfg := cluster.DefaultConfig(numMDS, 7)
	cfg.MDS.SplitSize = numClients * filesPerClient / 8
	cfg.MDS.HeartbeatInterval = sim.Second
	cfg.MDS.RebalanceDelay = 100 * sim.Millisecond
	cfg.ThroughputWindow = sim.Second
	c, err := cluster.New(cfg, cluster.LuaBalancers(p))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < numClients; i++ {
		c.AddClient(workload.SharedDirCreates("/shared", i, filesPerClient))
	}
	res := c.Run(30 * sim.Minute)
	if !res.AllDone {
		log.Fatalf("policy %s did not finish", p.Name)
	}
	return res
}
