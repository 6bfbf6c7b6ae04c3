package main

import (
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current mixed-std-interp output")

func toyOptions(t *testing.T, seed int64) options {
	return options{seed: seed, seconds: 0, scale: toyScale, outDir: t.TempDir()}
}

// The harness and BENCHMARK.json must name the same workloads and metrics,
// and the names must be ones the driver accepts.
func TestSpecMatchesHarness(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not well-formed", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is not well-formed", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name, "")
		if got := sp.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(sp.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(sp.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		checkName(m.Name, m.Unit)
		got := sp.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", i, got.Name, got.Unit, m.Name, m.Unit)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
		if got.Better != "higher" && got.Better != "lower" {
			t.Errorf("%s: better is %q", got.Name, got.Better)
		}
		if got.Name == "setup_s" {
			hasSetup = got.Unit == "s" && got.Better == "lower"
			for _, other := range sp.EndToEnd {
				if other.Bound > got.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", other.Name, other.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(sp.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		checkName(m.Name, m.Unit)
		if got := sp.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", i, got.Name, got.Unit, m.Name, m.Unit)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", sp.Paths)
	}
}

// Every workload runs at toy size, passes its oracle, and reports every
// metric BENCHMARK.json promises — end to end and traced.
func TestEveryWorkloadAtToySize(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			for _, mode := range []struct {
				name    string
				measure func(*workload, options) (*result, error)
				defs    []metricDef
			}{{"end-to-end", runEndToEnd, endToEnd}, {"traced", runTraced, perLayer}} {
				res, err := mode.measure(w, toyOptions(t, 1))
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s: correct=%v failed=%d attempted=%d problems=%v", mode.name, res.Correct, res.Failed, res.Attempted, res.Problems)
				}
				if len(res.Metrics) != len(mode.defs) {
					t.Errorf("%s: %d metrics reported, %d declared", mode.name, len(res.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("%s: metric %s [%s] missing or with unit %q", mode.name, d.Name, d.Unit, m.Unit)
					}
					// Timings mean nothing under the race detector; that
					// they are reported at all is checked above.
					if mode.name == "end-to-end" && !raceEnabled && m.Value <= 0 {
						t.Errorf("%s: %s = %v, must be positive", mode.name, d.Name, m.Value)
					}
				}
			}
		})
	}
}

// Same seed, same traffic and same logs; another seed, other traffic.
func TestSeedDeterminism(t *testing.T) {
	w := findWorkload("mixed-std-interp")
	digests := func(seed int64) (string, map[string]string) {
		t.Helper()
		res, err := runEndToEnd(w, toyOptions(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		return res.Input.Digest, res.LogDigests
	}
	trace1, logs1 := digests(1)
	trace1b, logs1b := digests(1)
	trace2, logs2 := digests(2)
	if trace1 != trace1b {
		t.Errorf("seed 1 generated traces %s and %s", trace1, trace1b)
	}
	if trace1 == trace2 {
		t.Errorf("seeds 1 and 2 generated the same trace %s", trace1)
	}
	for _, s := range logStreams {
		if logs1[s] != logs1b[s] {
			t.Errorf("%s.log: seed 1 produced digests %s and %s", s, logs1[s], logs1b[s])
		}
		if logs1[s] == logs2[s] {
			t.Errorf("%s.log: seeds 1 and 2 produced the same digest %s", s, logs1[s])
		}
	}
}

// verifiedOutcome makes a workload's verified pass and returns what the
// oracle is given.
func verifiedOutcome(t *testing.T, name string, seed int64) (*run, outcome) {
	t.Helper()
	r, err := newRun(findWorkload(name), seed, toyScale)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := r.setup(runOpts{verify: true})
	if err != nil {
		t.Fatal(err)
	}
	out := r.feed(sys)
	if v, err := r.verify(out); err != nil || len(v.Problems) > 0 {
		t.Fatalf("%s: untouched output fails its oracle: %v %v", name, err, v.Problems)
	}
	return r, out
}

func mustFail(t *testing.T, what string, r *run, out outcome, wantInMessage string) {
	t.Helper()
	v, err := r.verify(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Problems) == 0 {
		t.Errorf("%s: the oracle accepted it", what)
		return
	}
	if !strings.Contains(strings.Join(v.Problems, "\n"), wantInMessage) {
		t.Errorf("%s: the oracle's report does not mention %q:\n%s", what, wantInMessage, strings.Join(v.Problems, "\n"))
	}
}

// Each oracle must notice a wrong output, and say where it differs.
func TestOraclesCatchInjectedMismatch(t *testing.T) {
	t.Run("golden digest", func(t *testing.T) {
		r, out := verifiedOutcome(t, "mixed-std-interp", 1)
		out.Logs["http"][0] = strings.Replace(out.Logs["http"][0], "HTTP", "HTTQ", 1) + "x"
		mustFail(t, "an altered http.log line at the golden seed", r, out, "golden")
	})
	t.Run("wire counts", func(t *testing.T) {
		r, out := verifiedOutcome(t, "mixed-std-interp", 2)
		out.Logs["dns"] = out.Logs["dns"][1:]
		mustFail(t, "a dropped dns.log line at a seed without golden", r, out, "parseable responses")
	})
	t.Run("reference path", func(t *testing.T) {
		r, out := verifiedOutcome(t, "http-std-hilti", 1)
		altered := out.Logs["http"][0] + "-altered"
		out.Logs["http"][0] = altered
		mustFail(t, "an altered http.log line", r, out, altered)
	})
	t.Run("TXT allowance is confined to TXT", func(t *testing.T) {
		r, out := verifiedOutcome(t, "dns-pac-interp", 1)
		for i, l := range out.Logs["dns"] {
			if !strings.Contains(l, "\tTXT\t") {
				out.Logs["dns"][i] = l + "-altered"
				break
			}
		}
		mustFail(t, "an altered non-TXT dns.log line", r, out, "outside TXT")
	})
	t.Run("pipeline against single engine", func(t *testing.T) {
		r, out := verifiedOutcome(t, "pipeline-full", 1)
		out.Logs["dns"] = out.Logs["dns"][:len(out.Logs["dns"])-1]
		mustFail(t, "a dropped dns.log line", r, out, "dns.log differs")
	})
	t.Run("lost packet", func(t *testing.T) {
		r, out := verifiedOutcome(t, "ingress-bare", 1)
		out.Handled--
		mustFail(t, "a packet offered and not handled", r, out, "not fully processed")
	})
	t.Run("unverified pass with other counts", func(t *testing.T) {
		r, out := verifiedOutcome(t, "vm-packet", 1)
		res := r.newResult(options{seed: 1, scale: toyScale}, false)
		other := out
		other.LogLines++
		r.account(res, out, other)
		res.finish()
		if res.Correct || res.Failed != res.Attempted || res.FailedShare != 1 {
			t.Errorf("a pass with other counts was booked as correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
		}
	})
}

// The recorded golden matches what mixed-std-interp produces today; with
// -update it is rewritten instead.
func TestGolden(t *testing.T) {
	scales := []scale{toyScale}
	if !testing.Short() || *update {
		scales = append(scales, fullScale)
	}
	now := map[string]golden{}
	for _, sc := range scales {
		r, err := newRun(findWorkload("mixed-std-interp"), 1, sc)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := r.setup(runOpts{verify: true})
		if err != nil {
			t.Fatal(err)
		}
		out := r.feed(sys)
		lines, digests := logDigests(out.Logs)
		now[sc.Name] = golden{Seed: 1, TraceDigest: r.in.info.Digest, Lines: lines, Digests: digests}
	}
	if *update {
		b, err := json.MarshalIndent(now, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	recorded, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range now {
		want, ok := recorded[name]
		if !ok {
			t.Errorf("no golden recorded for scale %s; run go test -run TestGolden -update", name)
			continue
		}
		if got.TraceDigest != want.TraceDigest {
			t.Errorf("%s: trace digest %s, golden %s", name, got.TraceDigest, want.TraceDigest)
		}
		for _, s := range logStreams {
			if got.Lines[s] != want.Lines[s] || got.Digests[s] != want.Digests[s] {
				t.Errorf("%s: %s.log %d lines digest %s, golden %d lines digest %s", name, s, got.Lines[s], got.Digests[s], want.Lines[s], want.Digests[s])
			}
		}
	}
}
