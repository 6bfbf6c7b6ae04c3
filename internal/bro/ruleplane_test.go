package bro

import (
	"testing"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/values"
)

// gateClientSubnet builds a single gate program that drops traffic whose
// source lies in 10.1.3.0/24 — a deterministic slice of the generators'
// client pool.
func gateClientSubnet() []ruleplane.Program {
	net := values.MustParseNet("10.1.3.0/24")
	return []ruleplane.Program{{
		Name:    "gate",
		Gate:    true,
		Rules:   []ruleplane.Rule{{Src: []ruleplane.AddrPred{ruleplane.AddrInNet(net)}, Verdict: 0}},
		Default: 1,
	}}
}

// filterPkts applies the programs' gate decision to a trace with the
// linear reference evaluator — the test's independent oracle for what a
// gated engine should have seen.
func filterPkts(progs []ruleplane.Program, pkts []pcap.Packet) []pcap.Packet {
	lin := ruleplane.NewLinear(progs)
	v := make([]int64, lin.NumPrograms())
	m := make([]int32, lin.NumPrograms())
	var out []pcap.Packet
	for _, pk := range pkts {
		if key, ok := flow.FromFrame(pk.Data); ok {
			h := ruleplane.HeaderFrom16(key.SrcIP, key.DstIP, key.Proto, key.SrcPort, key.DstPort)
			lin.Eval(&h, v, m)
			if lin.GateDrop(v) {
				continue
			}
		}
		out = append(out, pk)
	}
	return out
}

// TestEngineRulePlaneGate: an engine hosting a gate program produces
// byte-identical logs to an ungated engine fed the pre-filtered trace —
// the in-path gate and the linear oracle agree packet for packet.
func TestEngineRulePlaneGate(t *testing.T) {
	pkts := mergedTrace(t)
	progs := gateClientSubnet()
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}

	plane, err := ruleplane.New(progs)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := cfg
	gcfg.RulePlane = plane
	gated, err := NewEngine(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	gated.ProcessTrace(pkts)

	kept := filterPkts(progs, pkts)
	if len(kept) == len(pkts) {
		t.Fatal("gate matched nothing; trace/rule mismatch")
	}
	base, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base.ProcessTrace(kept)

	if got, want := gated.PlaneDropped(), uint64(len(pkts)-len(kept)); got != want {
		t.Fatalf("PlaneDropped = %d, want %d", got, want)
	}
	sameLogs(t, "gated vs pre-filtered", sortedLogs(base), sortedLogs(gated))
}

// TestParallelHoistsRulePlane: NewParallelWith lifts cfg.RulePlane to the
// pipeline ingress — worker engines never evaluate it — and the sharded
// result still matches the pre-filtered single-engine baseline.
func TestParallelHoistsRulePlane(t *testing.T) {
	pkts := mergedTrace(t)
	progs := gateClientSubnet()
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}

	plane, err := ruleplane.New(progs)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := cfg
	gcfg.RulePlane = plane
	par, err := NewParallel(gcfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.RulePlane() != plane {
		t.Fatal("Parallel did not hoist the rule plane to its pipeline")
	}
	par.ProcessTrace(pkts)

	kept := filterPkts(progs, pkts)
	if got, want := par.PlaneDropped(), uint64(len(pkts)-len(kept)); got != want {
		t.Fatalf("pipeline PlaneDropped = %d, want %d", got, want)
	}
	for _, e := range par.Engines {
		if e.PlaneDropped() != 0 {
			t.Fatal("worker engine evaluated the plane; it must be hoisted to ingress")
		}
	}

	base, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base.ProcessTrace(kept)
	sameLogs(t, "parallel vs pre-filtered", sortedLogs(base), par.MergedLines)
}
