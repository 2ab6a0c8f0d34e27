package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchMetric is one metric entry of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is the part of BENCHMARK.json this program reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBenchmark(root string) (*benchFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	Record map[string]any `json:"record,omitempty"` // the run_record line
}

// runSteady runs every selected workload k times per set (seeds 1..k),
// each in a child process, and prints each metric's median, quartiles and
// relative spread per set. Spreads above the metric's bound in
// BENCHMARK.json are flagged, and so is any later set whose median is
// worse than the first set's by more than the bound.
func runSteady(root string, k, sets int, only string, seconds float64, trace int) error {
	names := []string{}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if only != "" {
		names = strings.Split(only, ",")
	}
	bf, err := loadBenchmark(root)
	if err != nil {
		return err
	}
	bounds := map[string]benchMetric{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// runs[workload][set] holds one result per seed.
	runs := map[string][][]runResult{}
	for set := 0; set < sets; set++ {
		for _, w := range names {
			var rs []runResult
			for seed := 1; seed <= k; seed++ {
				cmd := exec.Command(self, "-root", root, "-workload", w, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var r runResult
				if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
					return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
				}
				for _, l := range lines {
					if rec, ok := bytes.CutPrefix(l, []byte("run_record ")); ok {
						_ = json.Unmarshal(rec, &r.Record) // kept for reading; the result line is what counts
					}
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d: correct=%v attempted=%d failed=%d\n",
					set+1, w, seed, r.Correct, r.Attempted, r.Failed)
				rs = append(rs, r)
			}
			runs[w] = append(runs[w], rs)
		}
	}
	if data, err := json.Marshal(runs); err == nil {
		path := filepath.Join(root, ".bench_build", fmt.Sprintf("steady-%d.json", time.Now().Unix()))
		if err := os.WriteFile(path, data, 0o644); err == nil {
			fmt.Printf("raw results: %s\n", path)
		}
	}
	for _, w := range names {
		printSteady(w, runs[w], bounds)
	}
	return nil
}

func printSteady(w string, sets [][]runResult, bounds map[string]benchMetric) {
	fmt.Printf("\n%s\n%-34s %4s %12s %12s %12s %8s %6s  %s\n", w, "metric", "set", "q1", "median", "q3", "spread", "bound", "flag")
	var metricNames []string
	for name := range sets[0][0].Metrics {
		metricNames = append(metricNames, name)
	}
	sort.Strings(metricNames)
	for _, name := range metricNames {
		b := bounds[name]
		var firstMed float64
		for si, rs := range sets {
			var vals []float64
			for _, r := range rs {
				vals = append(vals, r.Metrics[name].Value)
			}
			q1, med, q3 := quartiles(vals)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			var flags []string
			if b.Bound > 0 && spread > b.Bound {
				flags = append(flags, "SPREAD>BOUND")
			}
			if b.Bound > 0 && b.Bound/3 < spread && spread <= b.Bound {
				flags = append(flags, "spread>bound/3")
			}
			if si == 0 {
				firstMed = med
			} else if b.Bound > 0 && firstMed != 0 {
				worse := (med - firstMed) / firstMed
				if b.Better == "higher" {
					worse = -worse
				}
				if worse > b.Bound {
					flags = append(flags, "MEDIAN-DRIFT")
				}
			}
			fmt.Printf("%-34s %4d %12.5g %12.5g %12.5g %8.4f %6.2f  %s\n",
				name, si+1, q1, med, q3, spread, b.Bound, strings.Join(flags, " "))
		}
	}
	for si, rs := range sets {
		bad := 0
		var steal []float64
		for _, r := range rs {
			if !r.Correct {
				bad++
			}
			if v, ok := r.Record["host_steal"].(float64); ok {
				steal = append(steal, v)
			}
		}
		fmt.Printf("set %d: %d of %d runs incorrect; host steal median %.3f, max %.3f\n",
			si+1, bad, len(rs), median(steal), maxOf(steal))
	}
}
