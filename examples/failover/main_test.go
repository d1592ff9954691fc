package main

// Example runs the failover and pins its timeline. The simulation is
// deterministic, so the output is exact.
func Example() {
	main()
	// Output:
	// t=4.0s  injecting failure on mds.1
	// t=20.5s  job done=true, 44999 ops
	// monitor: 1 failure(s) declared, 1 takeover(s)
	// clients: 27 request timeouts during the outage, 1 residual errors
	//
	// per-second cluster throughput (watch the outage bubble):
	//    2650  2654  2656  2660     0     0     0  1058  2667  2667  2661  2659  2650  2661  2664  2660  2662  2663  2666  2661  2649
	// /hot holds 45000 files, served finally by the replacement mds.1
}
