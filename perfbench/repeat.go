package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the repeat mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs the workload k times, each in its own process with seeds
// seed..seed+k-1, and prints each end-to-end metric's median, quartiles and
// spread (interquartile distance over the median) against its bound from
// BENCHMARK.json in the working directory, plus each run's failed share.
func repeatRuns(name string, seed int64, seconds, k int, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("reading the bounds: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := range k {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var rep report
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		if !rep.Correct {
			return fmt.Errorf("seed %d: incorrect output", s)
		}
		fmt.Fprintf(stdout, "seed %d: attempted %d failed %d (share %.6f)",
			s, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted))
		for _, e := range bf.EndToEnd {
			v := rep.Metrics[e.Name].Value
			values[e.Name] = append(values[e.Name], v)
			fmt.Fprintf(stdout, " %s=%.4g", e.Name, v)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-20s %14s %14s %14s %8s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "")
	sort.Slice(bf.EndToEnd, func(i, j int) bool { return bf.EndToEnd[i].Name < bf.EndToEnd[j].Name })
	for _, e := range bf.EndToEnd {
		med, q1, q3, rel := spread(values[e.Name])
		verdict := "ok"
		switch {
		case rel > e.Bound:
			verdict = "OVER BOUND"
		case rel > e.Bound/3:
			verdict = "over a third of the bound"
		}
		fmt.Fprintf(stdout, "%-20s %14.4f %14.4f %14.4f %8.4f %8.4f  %s\n", e.Name, med, q1, q3, rel, e.Bound, verdict)
	}
	return nil
}
