package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a fresh process of this same binary, as the
// driver does, copies its output to w and returns its result line.
func runChild(name string, seed int64, seconds, trace int, w io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(w, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &res, nil
}

// benchmarkFile is the part of BENCHMARK.json the A/A comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs the whole set twice, back to back, and holds the second set to
// the first by the bounds of BENCHMARK.json: same code, so any metric that
// moves by more than its bound is noise the bound does not cover.
func runAA(seed int64, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var sets [2]map[string]*result
	for s := range sets {
		sets[s] = map[string]*result{}
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "set %c: %s\n", 'A'+s, w.name)
			res, err := runChild(w.name, seed, seconds, 0, io.Discard)
			if err != nil {
				return err
			}
			sets[s][w.name] = res
		}
	}
	fmt.Printf("%-14s %-14s %12s %12s %9s %7s\n", "workload", "metric", "A", "B", "worse_by", "bound")
	exceeded := 0
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][w.name].Metrics[m.Name].Value, sets[1][w.name].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				mark = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-14s %-14s %12.4f %12.4f %+8.2f%% %6.1f%%%s\n", w.name, m.Name, a, b, 100*worse, 100*m.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metrics moved by more than their bound between two runs of the same code", exceeded)
	}
	return nil
}
