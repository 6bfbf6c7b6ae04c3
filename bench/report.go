// Results: the metric names and units this benchmark reports (the same
// names BENCHMARK.json declares — bench_test.go holds the two together),
// the record written for every run, and the line the driver reads.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type metricDef struct{ Name, Unit string }

// endToEnd is what an operator of bro-mini/hilti-fw/hilti-bpf sees, the
// same five on every workload. The share of packets not fully processed
// is reported too, as the result line's failed/attempted: it is 0 on a
// correct run, so it cannot carry a relative bound.
var endToEnd = []metricDef{
	{"pkts_per_s", "packets/s"},
	{"allocs_per_pkt", "allocs/packet"},
	{"alloc_bytes_per_pkt", "B/packet"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the object printed as the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment records where a result was measured.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Race       bool   `json:"race"`
}

func currentEnvironment() environment {
	return environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev("."),
		Race:       raceEnabled,
	}
}

// gitRev reads the checked-out commit from dir/.git without running git
// (the driver's checkout is not a repository; then the answer is "none").
func gitRev(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(packed), "\n") {
			if rev, ok := strings.CutSuffix(l, " "+ref); ok {
				return rev
			}
		}
	}
	return "unknown"
}

// result is the full record of one run of one workload.
type result struct {
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"environment"`
	Scale    scale       `json:"scale"`
	Input    traceInfo   `json:"input"`
	Replays  int         `json:"replays_per_pass"`

	// Timings appear twice: in the reference machine's seconds (what the
	// metrics report, see calibrate.go) and raw, as the wall clock read.
	Passes                 int        `json:"timed_passes"`
	PacketsPerPass         int        `json:"packets_per_pass"`
	PktsPerSQuartiles      [3]float64 `json:"pkts_per_s_quartiles"`
	RawPktsPerSQuartiles   [3]float64 `json:"raw_pkts_per_s_quartiles"`
	SetupSamples           int        `json:"setup_samples"`
	RawSetupQuartiles      [3]float64 `json:"raw_setup_s_quartiles"`
	CalibrationMsQuartiles [3]float64 `json:"calibration_ms_quartiles"`

	Events      uint64            `json:"events"`
	LogLines    uint64            `json:"log_lines"`
	LogCounts   map[string]int    `json:"log_line_counts,omitempty"`
	LogDigests  map[string]string `json:"log_digests,omitempty"`
	FailedShare float64           `json:"failed_share"`
	Problems    []string          `json:"problems,omitempty"`

	line
}

// print writes the human-readable report, then the driver's line.
func (r *result) print(w io.Writer) error {
	mode := "end-to-end, tracing off"
	if r.Traced {
		mode = "per-layer, tracing on"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  GOMAXPROCS %d of %d  %s  rev %s\n", r.Workload, r.Seed, mode, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.GoVersion, r.Env.GitRev)
	fmt.Fprintf(w, "  input: %d packets, %d bytes, %d flows, sizes q1/q2/q3 %v, digest %s, %d replays per pass\n",
		r.Input.Packets, r.Input.Bytes, r.Input.Flows, r.Input.SizeQuartiles, r.Input.Digest, r.Replays)
	fmt.Fprintf(w, "  output: %d events, %d log lines %v; %d timed passes; %d set-ups\n", r.Events, r.LogLines, r.LogCounts, r.Passes, r.SetupSamples)
	if !r.Traced {
		fmt.Fprintf(w, "  raw wall clock: %.6g packets/s, set-up %.6g s; calibration work took %.2f ms (reference machine: %.2f ms)\n",
			r.RawPktsPerSQuartiles[1], r.RawSetupQuartiles[1], r.CalibrationMsQuartiles[1], calibrationNominal.Seconds()*1e3)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  %-34s %16.6g (%d of %d packets)\n", "failed_share", r.FailedShare, r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	b, err := json.Marshal(r.line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// save writes the record next to the span files.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	traced := 0
	if r.Traced {
		traced = 1
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", r.Workload, r.Seed, traced)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
