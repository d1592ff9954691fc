package main

// Example runs the compile job and pins its heat map and throughput. The
// simulation is deterministic, so the output is exact.
func Example() {
	main()
	// Output:
	// compile of 5 trees finished=true in 13.7s; 4 subtree exports
	//
	// per-directory heat over time for /src0 (Figure 1):
	// include |              .:-=++*#%%@%%|
	// arch    |  .......    ..:---::::::::|
	// kernel  |   ........     .:---::::::|
	// fs      |     ........      .:---:::|
	// mm      |      ........        .:--:|
	// drivers |       ........         :..|
	// net     |        ........        .:.|
	// lib     |          .......        :.|
	// crypto  |           ........      .:|
	// sound   |            ........      :|
	// scripts |             ........     .|
	//
	// per-MDS request rate over time:
	//   mds.0:  3447  3440  2989  1188  1018  1020  1083  1860  1858  1857  1856  1855  2523  1970
	//   mds.1:     0     0   903  1895  2030  2026  2115  3630  3630  3636  3637  3637  4823  4923
	//   mds.2:     0     0   904  1907  2032  2024  2133  3632  3633  3642  3632  3638  4830  4861
}
