// Running every workload: each in a process of its own, exactly as the
// driver runs it, so that one workload's heap never colours the next one's
// numbers. -repeat runs whole sets and holds them to BENCHMARK.json's bounds.

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runOne runs one workload in a child process, passes its report through,
// and returns the line it ended with.
func runOne(name string, seed int64, seconds float64, trace int) (line, error) {
	self, err := os.Executable()
	if err != nil {
		return line{}, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var l line
	if err := json.Unmarshal([]byte(last), &l); err != nil {
		if runErr != nil {
			return l, fmt.Errorf("%s: %w", name, runErr)
		}
		return l, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return l, nil
}

// runAll runs every workload `repeat` times over. It returns the process's
// exit code: 1 if any run was incorrect or two sets disagree by more than
// a bound.
func runAll(seed int64, seconds float64, trace, repeat int) int {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	sets := make([]map[string]line, repeat)
	for i := range sets {
		sets[i] = map[string]line{}
		for _, w := range workloads {
			l, err := runOne(w.Name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			}
			if !l.Correct {
				code = 1
			}
			sets[i][w.Name] = l
		}
	}

	// The summary: one row per metric and workload.
	type column struct {
		name, better string
		bound        float64
	}
	var cols []column
	if trace == 0 {
		for _, m := range sp.EndToEnd {
			cols = append(cols, column{m.Name, m.Better, m.Bound})
		}
	} else {
		for _, m := range sp.PerLayer {
			cols = append(cols, column{name: m.Name, better: m.Better})
		}
	}
	fmt.Printf("\n%-34s %-18s", "metric", "workload")
	for i := range sets {
		fmt.Printf(" %14s", "set "+strconv.Itoa(i+1))
	}
	if repeat > 1 {
		fmt.Printf(" %9s %7s", "worse by", "bound")
	}
	fmt.Println()
	for _, c := range cols {
		for _, w := range workloads {
			fmt.Printf("%-34s %-18s", c.name, w.Name)
			var vals []float64
			for i := range sets {
				m, ok := sets[i][w.Name].Metrics[c.name]
				if !ok {
					fmt.Printf(" %14s", "missing")
					code = 1
					continue
				}
				vals = append(vals, m.Value)
				fmt.Printf(" %14.6g", m.Value)
			}
			if repeat > 1 && len(vals) == repeat && c.bound > 0 {
				// How much worse the worst later set is than the first.
				worst := 0.0
				for _, v := range vals[1:] {
					d := (v - vals[0]) / vals[0]
					if c.better == "higher" {
						d = -d
					}
					worst = math.Max(worst, d)
				}
				flag := ""
				if worst > c.bound {
					flag = "  EXCEEDS BOUND"
					code = 1
				}
				fmt.Printf(" %8.2f%% %6.1f%%%s", 100*worst, 100*c.bound, flag)
			}
			fmt.Println()
		}
	}
	for _, w := range workloads {
		var parts []string
		for i := range sets {
			l := sets[i][w.Name]
			parts = append(parts, fmt.Sprintf("%d/%d correct=%v", l.Failed, l.Attempted, l.Correct))
		}
		fmt.Printf("%-34s %-18s %s\n", "failed/attempted", w.Name, strings.Join(parts, "  "))
	}
	return code
}
