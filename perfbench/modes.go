package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runStamp records what a result was measured on.
func runStamp(name string, seed int64, seconds float64, traced bool) map[string]any {
	describe := "unavailable"
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output(); err == nil {
		describe = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"git_describe": describe,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"workload":     name,
		"seed":         seed,
		"seconds":      seconds,
		"trace":        traced,
	}
}

// child runs one workload in a fresh process of this binary, so each run
// starts from an empty heap and its own peak RSS, and returns the parsed
// result line.
func child(name string, seed int64, seconds float64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return &res, nil
}

// runAll runs every workload once, prints each metric by name with its
// unit, and ends with one merged result line whose metric names carry the
// workload as a prefix.
func runAll(seed int64, seconds float64, trace int) error {
	merged := &result{Correct: true}
	for _, name := range workloadOrder {
		res, err := child(name, seed, seconds, trace)
		if err != nil {
			return err
		}
		fmt.Printf("%s: correct=%t attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		for _, m := range sortedKeys(res.Metrics) {
			fmt.Printf("  %-36s %14.6g %s\n", m, res.Metrics[m].Value, res.Metrics[m].Unit)
			merged.set(name+"."+m, res.Metrics[m].Value, res.Metrics[m].Unit)
		}
		merged.Correct = merged.Correct && res.Correct
		merged.Attempted += res.Attempted
		merged.Failed += res.Failed
	}
	line, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// steadiness runs each chosen workload n times untraced, with seeds seed
// to seed+n-1, and prints every end-to-end metric's median, quartiles and
// spread — the distance between the quartiles as a share of the median —
// next to the bound BENCHMARK.json fixes for it (read from the current
// directory when present).
func steadiness(name string, seed int64, seconds float64, n int) error {
	names := workloadOrder
	if name != "" && name != "all" {
		if _, ok := workloads[name]; !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		names = []string{name}
	}
	if n < 2 {
		return fmt.Errorf("steadiness needs at least 2 runs, got %d", n)
	}
	bounds := benchmarkBounds()
	for _, w := range names {
		values := map[string][]float64{}
		var attempted, failed int64
		for i := 0; i < n; i++ {
			res, err := child(w, seed+int64(i), seconds, 0)
			if err != nil {
				return err
			}
			attempted += res.Attempted
			failed += res.Failed
			fmt.Printf("  seed %d:", seed+int64(i))
			for _, m := range sortedKeys(res.Metrics) {
				values[m] = append(values[m], res.Metrics[m].Value)
				fmt.Printf(" %s=%.4g", m, res.Metrics[m].Value)
			}
			fmt.Println()
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %d ops attempted, %d failed\n",
			w, n, seed, seed+int64(n)-1, attempted, failed)
		fmt.Printf("  %-18s %12s %12s %12s %8s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range sortedKeys(values) {
			q1, q2, q3 := quartiles(values[m])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			b, verdict := bounds[m], ""
			if b > 0 {
				verdict = "ok"
				if spread > b/3 {
					verdict = "WIDE"
				}
			}
			fmt.Printf("  %-18s %12.6g %12.6g %12.6g %8.4f %7.3f %s\n", m, q1, q2, q3, spread, b, verdict)
		}
	}
	return nil
}

// benchmarkBounds reads each end-to-end metric's bound from BENCHMARK.json
// in the current directory; missing or unreadable gives no bounds.
func benchmarkBounds() map[string]float64 {
	out := map[string]float64{}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return out
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(raw, &doc) == nil {
		for _, m := range doc.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}
