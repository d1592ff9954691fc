package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

// TestRunAllParallelMatchesSequential is the acceptance gate for the worker
// pool: for multiple seeds, the parallel sweep must render byte-for-byte
// the output of the sequential sweep — same reports, same order, same
// stream written to Out. Seed 1's sequential side is the cached sweep.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		var parBuf bytes.Buffer
		var seq []*Report
		var seqOut []byte
		if seed == 1 {
			seq, seqOut = sequentialSweep()
		} else {
			var seqBuf bytes.Buffer
			seq = RunAll(Options{Seed: seed, Scale: 0.05, Out: &seqBuf})
			seqOut = seqBuf.Bytes()
		}
		par, err := RunAllParallel(Options{Seed: seed, Scale: 0.05, Out: &parBuf}, 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameSweep(t, fmt.Sprintf("seed %d parallel", seed), seq, seqOut, par, parBuf.Bytes())
	}
}

// TestRunAllParallelDegradesToSequential: workers <= 1 uses the sequential
// path, still streams to Out, and renders what the sequential sweep does.
func TestRunAllParallelDegradesToSequential(t *testing.T) {
	var buf bytes.Buffer
	reports, err := RunAllParallel(Options{Seed: 1, Scale: 0.05, Out: &buf}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(IDs()) {
		t.Fatalf("got %d reports, want %d", len(reports), len(IDs()))
	}
	seq, seqOut := sequentialSweep()
	sameSweep(t, "workers=1", seq, seqOut, reports, buf.Bytes())
}

// sameSweep fails unless got renders byte-for-byte what the sequential sweep
// seq did: same reports in the same order, same checks, same stream.
func sameSweep(t *testing.T, name string, seq []*Report, seqOut []byte, got []*Report, gotOut []byte) {
	t.Helper()
	if len(seq) != len(got) {
		t.Fatalf("%s: %d sequential reports vs %d", name, len(seq), len(got))
	}
	for i := range seq {
		if seq[i].ID != got[i].ID {
			t.Fatalf("%s: report %d is %q sequentially but %q here", name, i, seq[i].ID, got[i].ID)
		}
		if seq[i].String() != got[i].String() {
			t.Errorf("%s: report %q diverges from the sequential sweep", name, seq[i].ID)
		}
		if len(seq[i].Checks) != len(got[i].Checks) {
			t.Errorf("%s: report %q check counts diverge", name, seq[i].ID)
		}
	}
	if !bytes.Equal(seqOut, gotOut) {
		t.Errorf("%s: streamed output differs from the sequential sweep", name)
	}
	if len(seqOut) == 0 {
		t.Fatalf("%s: sequential sweep wrote nothing", name)
	}
}
