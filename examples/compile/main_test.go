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
	// lib     |         ........        :.|
	// crypto  |           ........      .:|
	// sound   |            ........      :|
	// scripts |             ........     .|
	//
	// per-MDS request rate over time:
	//   mds.0:  3447  3440  2984  1187  1018  1020  1081  1860  1858  1857  1860  1856  2526  1954
	//   mds.1:     0     0   902  1906  2024  2025  2114  3634  3636  3633  3631  3632  4813  4913
	//   mds.2:     0     0   904  1905  2023  2022  2117  3634  3624  3639  3633  3636  4805  4924
}
