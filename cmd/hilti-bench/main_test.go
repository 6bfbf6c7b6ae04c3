package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The -bench-json document feeds EXPERIMENTS.md refreshes and offline
// regression tracking; downstream scripts key on exact field names. This
// test locks the schema without running any benchmark: a renamed or
// dropped JSON key fails here first, not in a consumer.

func TestBenchRowJSONSchema(t *testing.T) {
	row := benchRow{
		Name:         "hilti_filter_O1",
		OptLevel:     1,
		Packets:      1000,
		NsPerOp:      123456.7,
		AllocsPerOp:  8,
		BytesPerOp:   512,
		NsPerPkt:     123.4,
		StaticInstrs: 42,
		InstrsPerPkt: 9.5,
	}
	out, err := json.Marshal(struct {
		Rows []benchRow `json:"benchmarks"`
	}{[]benchRow{row}})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string][]map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	rows, ok := doc["benchmarks"]
	if !ok || len(rows) != 1 {
		t.Fatalf("top-level shape wrong: %s", out)
	}
	got := make([]string, 0, len(rows[0]))
	for k := range rows[0] {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"allocs_per_op", "bytes_per_op", "instrs_per_pkt", "name",
		"ns_per_op", "ns_per_pkt", "opt_level", "packets", "static_instrs",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bench-json keys changed:\n  got  %v\n  want %v", got, want)
	}
}

// The omitempty fields exist so non-VM rows (BPF baseline, hand-written
// firewall) stay clean; their absence is part of the schema too.
func TestBenchRowOmitsVMFieldsWhenZero(t *testing.T) {
	out, err := json.Marshal(benchRow{Name: "bpf_interpreter", Packets: 10})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"static_instrs", "instrs_per_pkt"} {
		if _, ok := m[absent]; ok {
			t.Errorf("%s serialized on a non-VM row: %s", absent, out)
		}
	}
	for _, present := range []string{"name", "packets", "ns_per_op", "allocs_per_op", "bytes_per_op", "ns_per_pkt", "opt_level"} {
		if _, ok := m[present]; !ok {
			t.Errorf("%s missing: %s", present, out)
		}
	}
}

// captureStdout returns what f prints to standard output.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// CI reads an experiment's verdict from its FAIL lines, its success line
// and its exit status: a failed check reports and the experiment goes on,
// and done exits 1 without the success line.
func TestCheckerReportsEveryFailureThenExits(t *testing.T) {
	code := -1
	osExit = func(c int) { code = c }
	defer func() { osExit = os.Exit }()
	out := captureStdout(t, func() {
		var chk checker
		check := chk.check
		check(true, "holds")
		check(false, "first violation")
		check(false, "second violation")
		chk.done("    all invariants held")
	})
	if want := "    FAIL: first violation\n    FAIL: second violation\n"; out != want || code != 1 {
		t.Fatalf("failing run printed %q and exited %d, want %q and 1", out, code, want)
	}
	code = -1
	out = captureStdout(t, func() {
		var chk checker
		chk.check(true, "holds")
		chk.done("    all invariants held")
	})
	if want := "    all invariants held\n"; out != want || code != -1 {
		t.Fatalf("passing run printed %q and exited %d, want %q and no exit", out, code, want)
	}
}

// The log oracle reports a divergence as one failed check naming the
// stream, followed by the lines that make it up, and is silent on a match.
func TestCheckLogsReportsMissingAndExtraLines(t *testing.T) {
	code := -1
	osExit = func(c int) { code = c }
	defer func() { osExit = os.Exit }()
	want := []string{"a\t1", "b\t2", "c\t3"}
	out := captureStdout(t, func() {
		var chk checker
		checkLogs(&chk, "pipeline http.log", want, []string{"a\t1", "c\t3", "d\t4"})
		chk.done("    all invariants held")
	})
	if strings.Count(out, "FAIL") != 1 || !strings.Contains(out, "FAIL: pipeline http.log diverged") ||
		!strings.Contains(out, `missing: "b\t2"`) || !strings.Contains(out, `extra:   "d\t4"`) ||
		strings.Contains(out, "all invariants held") || code != 1 {
		t.Fatalf("diverging logs printed %q and exited %d", out, code)
	}
	code = -1
	out = captureStdout(t, func() {
		var chk checker
		checkLogs(&chk, "pipeline http.log", want, slices.Clone(want))
	})
	if out != "" || code != -1 {
		t.Fatalf("identical logs printed %q and exited %d, want nothing", out, code)
	}
}

// The optimizer and tier-2 harnesses, which CI runs as gates, hold at a
// small scale and say so: their success lines, no FAIL, no exit. No
// wall-clock bound is asserted at this scale: -exp tier holds tier-2 by its
// lowering and its executed fused pairs below minTimedPackets, and CI's
// tier stage keeps the timing checks at 200 sessions.
func TestExperimentsHoldAtSmallScale(t *testing.T) {
	code := -1
	osExit = func(c int) { code = c }
	defer func() { osExit = os.Exit }()
	prevHTTP, prevDNS := *httpSessions, *dnsTxns
	*httpSessions, *dnsTxns = 40, 400
	defer func() { *httpSessions, *dnsTxns = prevHTTP, prevDNS }()
	h := &harness{}
	for _, name := range []string{"vmopt", "tier"} {
		i := slices.IndexFunc(experiments, func(x experiment) bool { return x.name == name })
		if i < 0 {
			t.Fatalf("no experiment %q", name)
		}
		out := captureStdout(t, func() { h.run(experiments[i]) })
		if !strings.HasSuffix(out, "    all "+name+" invariants held\n") || strings.Contains(out, "FAIL") || code != -1 {
			t.Errorf("-exp %s exited %d, output:\n%s", name, code, out)
		}
		code = -1
	}
}
