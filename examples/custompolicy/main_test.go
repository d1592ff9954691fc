package main

// Example runs the policy as Lua and as Go and pins both lines: the two
// simulations must agree number for number, as docs/POLICIES.md claims.
func Example() {
	main()
	// Output:
	// queue_watcher_lua  done=true makespan=10.65s exports=2 served=36697 11309 0
	// queue_watcher_go   done=true makespan=10.65s exports=2 served=36697 11309 0
	//
	// same policy, two implementations — the mechanism never changed.
}
