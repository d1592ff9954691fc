// Failover demonstrates the monitor-driven recovery path: a 3-MDS cluster
// with one standby loses the rank that owns a hot subtree mid-job. The
// monitor notices the missing beacons, fences the daemon, replays its
// journal onto a standby, and the clients — who resend timed-out requests —
// never see an error, only a latency bubble.
//
// Run with: go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"mantle/internal/cluster"
	"mantle/internal/core"
	"mantle/internal/mon"
	"mantle/internal/sim"
	"mantle/internal/workload"
)

func main() {
	cfg := cluster.DefaultConfig(3, 7)
	cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
	cfg.Client.RequestTimeout = 400 * sim.Millisecond
	cfg.ThroughputWindow = sim.Second

	c, err := cluster.New(cfg, cluster.LuaBalancers(core.DefaultPolicy()))
	if err != nil {
		log.Fatal(err)
	}
	c.EnableFailover(1 /* standby daemons */, mon.Config{
		CheckInterval: 250 * sim.Millisecond,
		Grace:         1500 * sim.Millisecond,
	})

	// Rank 1 owns the hot directory.
	if err := c.PrePopulate([]string{"/hot"}, true); err != nil {
		log.Fatal(err)
	}
	if err := c.PreAssign("/hot", 1); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.AddClient(workload.Creates(workload.CreateConfig{
			Dir: "/hot", Files: 15000, Prefix: fmt.Sprintf("c%d-", i),
		}))
	}

	// Kill rank 1 four seconds in.
	doomed := c.MDSs[1]
	c.Engine.Schedule(4*sim.Second, func() {
		fmt.Printf("t=%.1fs  injecting failure on mds.1\n", c.Engine.Now().Seconds())
		doomed.Crash()
	})

	res := c.Run(10 * sim.Minute)

	fmt.Printf("t=%.1fs  job done=%v, %d ops\n", res.Duration.Seconds(), res.AllDone, res.TotalOps)
	fmt.Printf("monitor: %d failure(s) declared, %d takeover(s)\n",
		c.Monitor.Failures, c.Monitor.Takeovers)
	timeouts, errs := 0, 0
	for i, cl := range c.Clients {
		timeouts += cl.Timeouts
		errs += res.ClientErrors[i]
	}
	fmt.Printf("clients: %d request timeouts during the outage, %d residual errors\n", timeouts, errs)
	fmt.Println("\nper-second cluster throughput (watch the outage bubble):")
	fmt.Print(" ")
	for _, p := range res.TotalSeries.Points {
		fmt.Printf(" %5.0f", p.V)
	}
	fmt.Println()
	if d, err := c.NS.Resolve("/hot"); err == nil {
		fmt.Printf("/hot holds %d files, served finally by the replacement mds.1\n", d.NumChildren())
	}
}
