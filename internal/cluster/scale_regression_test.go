package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mantle/internal/sim"
	"mantle/internal/telemetry"
	"mantle/internal/workload"
)

// scaleArtifactDigest runs one telemetry-enabled cluster and returns a
// SHA-256 over every serialised artifact plus the run summary. The namespace
// scale pass (lazy counter propagation, the resolution cache, the bound
// index) must not move a single byte of this digest: the optimisations are
// pure reorderings of when work happens, never of what is computed.
func scaleArtifactDigest(t *testing.T, seed int64, addClients func(c *Cluster)) string {
	t.Helper()
	cfg := DefaultConfig(3, seed)
	cfg.MDS.HeartbeatInterval = 500 * sim.Millisecond
	cfg.MDS.RebalanceDelay = cfg.MDS.HeartbeatInterval / 10
	cfg.ThroughputWindow = cfg.MDS.HeartbeatInterval
	cfg.Client.StartJitter = 2 * sim.Millisecond
	c, err := New(cfg, LuaBalancers(mustPolicy(t, "greedy_spill")))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTelemetry(telemetry.Options{Metrics: true, Trace: true, FlightRecorder: true})
	addClients(c)
	res := c.Run(5 * sim.Minute)
	if !res.AllDone {
		t.Fatal("run did not finish")
	}
	var buf bytes.Buffer
	if err := c.Tel.Recorder.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Tel.Reg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Tel.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "ops=%d makespan=%d forwards=%d exports=%d splits=%d\n",
		res.TotalOps, res.Makespan, res.TotalForwards, res.TotalExports, res.TotalSplits)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestScalePassArtifactsPinned byte-compares same-seed telemetry artifacts
// against digests recorded on the pre-scale-pass tree (PR 4's acceptance
// bar, the same gate PRs 2 and 3 used). The create-heavy run exercises the
// resolution cache's steady state and dirfrag splits; the churn run
// exercises every invalidation edge (rename, unlink, merge) plus
// migrations re-labelling subtrees mid-run.
func TestScalePassArtifactsPinned(t *testing.T) {
	const (
		wantShared = "8b4bf0f7720dc3d7fa80bfd34321d7bf00034e758b7d6abf812d223b1939d5ae"
		wantChurn  = "94da77d92404d4e6d568e65be78d990121b5f7848dd7739c7d639aaaac1d4760"
	)
	gotShared := scaleArtifactDigest(t, 21, func(c *Cluster) {
		for i := 0; i < 3; i++ {
			c.AddClient(workload.SharedDirCreates("/shared", i, 1200))
		}
	})
	if gotShared != wantShared {
		t.Errorf("shared-create artifact digest drifted:\n got %s\nwant %s", gotShared, wantShared)
	}
	gotChurn := scaleArtifactDigest(t, 33, func(c *Cluster) {
		for i := 0; i < 3; i++ {
			c.AddClient(workload.Churn(workload.ChurnConfig{
				Dir:    fmt.Sprintf("/churn%d", i),
				Files:  400,
				Rounds: 2,
				Prefix: fmt.Sprintf("c%d-", i),
				Seed:   int64(100 + i),
			}))
		}
	})
	if gotChurn != wantChurn {
		t.Errorf("churn artifact digest drifted:\n got %s\nwant %s", gotChurn, wantChurn)
	}
}
