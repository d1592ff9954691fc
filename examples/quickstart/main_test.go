package main

// Example runs the quickstart and pins its output. The simulation is
// deterministic, so the output is exact.
func Example() {
	main()
	// Output:
	// done=true in 4.52s of virtual time, 16001 ops at 3538 req/s
	// the directory fragmented 5 time(s) and 4 dirfrags migrated
	//   mds.0 served 11729 requests
	//   mds.1 served 4272 requests
	// /shared has 16000 entries in 36 fragments spread over 2 rank(s)
}
