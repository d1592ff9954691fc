package main

// Example runs the Figure 8 comparison and pins its table. The simulation
// is deterministic, so the output is exact.
func Example() {
	main()
	// Output:
	// policy             time             exports  flushes  per-MDS served
	// no_balancing       11.59s (+0.0%)   0        0         39998      0      0      0
	// greedy_spill       14.46s (-19.9%)  7        28        23871   8870   4056   3201
	// greedy_spill_even  13.87s (-16.4%)  8        32        16699   7172   8937   7190
	// fill_and_spill     11.56s (+0.2%)   4        16        32577   7421      0      0
	// cephfs_original    14.00s (-17.2%)  6        24        16522   8061   8065   7350
	//
	// positive % = faster than no balancing; the paper's claim is that
	// modest spilling wins while aggressive distribution loses (Figure 8).
}
