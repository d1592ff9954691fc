package cluster

import (
	"math"
	"testing"

	"mantle/internal/balancer"
	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/workload"
)

// authRecorder never migrates and keeps the per-rank auth loads the last
// tick on rank 0 was handed: Table 2's MDSs[i]["auth"] as the policies see
// it, built from every rank's heartbeat.
type authRecorder struct {
	balancer.NoBalancer
	auth *[]float64
}

func (b authRecorder) When(e *balancer.Env) (bool, error) {
	if e.WhoAmI == 0 {
		*b.auth = (*b.auth)[:0]
		for _, m := range e.MDSs {
			*b.auth = append(*b.auth, m.Auth)
		}
	}
	return false, nil
}

// TestAuthShareTracksServedOps: a hot /proj that four clients create in
// directly, while four more create in their own /proj/clientN/. /proj is
// split in two and the fragment holding client0's dentry belongs to rank 1,
// so rank 1 serves the creates that hash into it and everything under the
// subdirectories whose dentries it holds. Each rank's reported auth share
// must track its share of the ops served within 0.03: every op is a create,
// so the two are the same quantity, one decayed and one counted. The
// fragment's load used to be its own counters only, which left the
// subdirectories' load with rank 0.
func TestAuthShareTracksServedOps(t *testing.T) {
	cfg := DefaultConfig(2, 5)
	cfg.MDS.SplitSize = 0 // the one split is the test's
	var auth []float64
	c, err := New(cfg, GoBalancers(func() balancer.Balancer { return authRecorder{auth: &auth} }))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PrePopulate([]string{"/proj"}, true); err != nil {
		t.Fatal(err)
	}
	proj, err := c.NS.Resolve("/proj")
	if err != nil {
		t.Fatal(err)
	}
	c.NS.SplitDir(proj, namespace.RootFrag, 1, 0)
	hot := proj.FragOfName("client0")
	c.NS.SetFragAuth(proj, hot, 1)
	for i := 0; i < 4; i++ {
		c.AddClient(workload.SharedDirCreates("/proj", i, 1<<20))
		c.AddClient(workload.SeparateDirCreates("/proj", i, 1<<20))
	}
	res := c.Run(40 * sim.Second)

	if len(auth) != 2 {
		t.Fatalf("rank 0 saw auth loads %v", auth)
	}
	served := []float64{float64(res.MDSCounters[0].Served), float64(res.MDSCounters[1].Served)}
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("served %v: the scenario needs both ranks serving", served)
	}
	// The shape is reached: rank 1 serves a subdirectory's creates, which
	// are not charged to /proj's fragment counters.
	if c.NS.AuthForDentry(proj, "client0") != 1 {
		t.Fatal("client0's dentry is not in rank 1's fragment")
	}
	for r := range auth {
		authShare := auth[r] / (auth[0] + auth[1])
		servedShare := served[r] / (served[0] + served[1])
		if math.Abs(authShare-servedShare) > 0.03 {
			t.Errorf("rank %d: auth share %.3f (auth %v), served share %.3f (served %v)",
				r, authShare, auth, servedShare, served)
		}
	}
}
