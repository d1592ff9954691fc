package main

// Example runs the Figure 8 comparison and pins its table. The simulation
// is deterministic, so the output is exact.
func Example() {
	main()
	// Output:
	// policy             time             exports  flushes  per-MDS served
	// no_balancing       11.59s (+0.0%)   0        0         39998      0      0      0
	// greedy_spill       14.43s (-19.7%)  7        28        23871   8879   4044   3204
	// greedy_spill_even  13.87s (-16.5%)  8        32        16704   7167   8942   7185
	// fill_and_spill     11.33s (+2.3%)   4        16        28166  11832      0      0
	// cephfs_original    14.01s (-17.3%)  6        24        16516   8061   8065   7356
	//
	// positive % = faster than no balancing; the paper's claim is that
	// modest spilling wins while aggressive distribution loses (Figure 8).
}
