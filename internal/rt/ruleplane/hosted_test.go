package ruleplane_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"hilti/internal/bpf"
	"hilti/internal/firewall"
	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/gen"
	"hilti/internal/rt/classifier"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/values"
)

// The production shape: the plane the pipeline ingress hosts in bench/'s
// pipeline workloads — a 10k-rule classifier, a BPF gate that accepts all
// generated traffic, and the firewall statics. The gate and firewall
// rules sit at global indexes past the classifier's, so this is the shape
// where per-program bounds decide how much of the classifier is scanned.
// External package: bpf and firewall import ruleplane.

// hostedClassifier has bench/traffic.go makeClassifier's shape (copied,
// not imported): its constants overlap the generators' address pools.
func hostedClassifier(t testing.TB, n int, seed int64) *classifier.Classifier {
	rng := rand.New(rand.NewSource(seed))
	netField := func() classifier.Field {
		switch rng.Intn(6) {
		case 0:
			return classifier.Wildcard{}
		case 1:
			return classifier.NetField{Net: values.MustParseNet(fmt.Sprintf("10.%d.0.0/16", 1+rng.Intn(2)))}
		case 2:
			return classifier.NetField{Net: values.MustParseNet(fmt.Sprintf("172.16.%d.0/24", 1+rng.Intn(40)))}
		case 3:
			return classifier.NetField{Net: values.MustParseNet(fmt.Sprintf("172.20.0.%d/32", 1+rng.Intn(8)))}
		default:
			return classifier.NetField{Net: values.MustParseNet(fmt.Sprintf("10.%d.%d.0/24", 1+rng.Intn(2), 1+rng.Intn(120)))}
		}
	}
	portField := func() classifier.Field {
		switch rng.Intn(4) {
		case 0:
			return classifier.PortRangeField{Lo: 53, Hi: 53, Proto: values.ProtoUDP}
		case 1:
			lo := uint16(1 + rng.Intn(60000))
			return classifier.PortRangeField{Lo: lo, Hi: lo + uint16(rng.Intn(2000)), Proto: values.ProtoTCP}
		default:
			return classifier.Wildcard{}
		}
	}
	c := classifier.New(3)
	for i := 0; i < n; i++ {
		if err := c.Add([]classifier.Field{netField(), netField(), portField()}, values.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Compile()
	return c
}

func hostedPrograms(t testing.TB, rules int, seed int64) []ruleplane.Program {
	cls, err := ruleplane.FromClassifier(hostedClassifier(t, rules, seed),
		[]ruleplane.FieldRole{ruleplane.RoleSrcAddr, ruleplane.RoleDstAddr, ruleplane.RoleDstPort}, "classifier")
	if err != nil {
		t.Fatal(err)
	}
	expr, err := bpf.ParseFilter("not (src net 192.168.0.0/16 and tcp) and not (udp and dst port 99)")
	if err != nil {
		t.Fatal(err)
	}
	gate, err := bpf.FilterProgram("filter", expr)
	if err != nil {
		t.Fatal(err)
	}
	gate.Gate = true
	fw, err := firewall.ParseRules(strings.NewReader(
		"10.1.0.0/16 172.20.0.0/16 allow\n10.2.0.0/16 172.20.0.0/16 deny\n* 172.20.0.5/32 allow\n"))
	if err != nil {
		t.Fatal(err)
	}
	return []ruleplane.Program{cls, gate, firewall.RulePlaneProgram("firewall", fw)}
}

// hostedHeaders is a merged HTTP+DNS trace's headers in trace order.
func hostedHeaders(seed int64, sessions, txns int) []ruleplane.Header {
	start := time.Unix(1400000000, 0).UTC()
	hc := gen.DefaultHTTPConfig()
	hc.Seed, hc.Sessions, hc.Start = 2*seed-1, sessions, start
	dc := gen.DefaultDNSConfig()
	dc.Seed, dc.Transactions, dc.Start = 2*seed, txns, start
	pkts := append(gen.GenerateHTTP(hc), gen.GenerateDNS(dc)...)
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time.Before(pkts[j].Time) })
	hs := make([]ruleplane.Header, 0, len(pkts))
	for _, p := range pkts {
		if k, ok := flow.FromFrame(p.Data); ok {
			hs = append(hs, ruleplane.HeaderFrom16(k.SrcIP, k.DstIP, k.Proto, k.SrcPort, k.DstPort))
		}
	}
	return hs
}

// TestHostedPlaneMatchesLinear: on the production shape, the compiled
// automaton agrees with Linear on every program's verdict and winning
// rule for every header of a merged trace.
func TestHostedPlaneMatchesLinear(t *testing.T) {
	progs := hostedPrograms(t, 10_000, 1)
	auto, err := ruleplane.Compile(progs)
	if err != nil {
		t.Fatal(err)
	}
	lin := ruleplane.NewLinear(progs)
	hs := hostedHeaders(1, 300, 3000)
	np := len(progs)
	av, lv := make([]int64, np), make([]int64, np)
	am, lm := make([]int32, np), make([]int32, np)
	matched := 0
	for i := range hs {
		auto.Eval(&hs[i], av, am)
		lin.Eval(&hs[i], lv, lm)
		for p := 0; p < np; p++ {
			if av[p] != lv[p] || am[p] != lm[p] {
				t.Fatalf("header %d %+v, program %s: compiled (verdict %d, rule %d) vs linear (verdict %d, rule %d)",
					i, hs[i], progs[p].Name, av[p], am[p], lv[p], lm[p])
			}
		}
		if am[0] >= 0 {
			matched++
		}
		if auto.GateDrop(av) {
			t.Fatalf("header %d: the gate must accept all generated traffic", i)
		}
	}
	// The check is only meaningful if the classifier decides most headers
	// by a rule, not its default.
	if matched < len(hs)/2 {
		t.Fatalf("classifier matched %d of %d headers; table/trace mismatch", matched, len(hs))
	}
}

func TestHostedPlaneEvalAllocFree(t *testing.T) {
	auto, err := ruleplane.Compile(hostedPrograms(t, 2_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	hs := hostedHeaders(1, 50, 200)
	v, m := make([]int64, 3), make([]int32, 3)
	if n := testing.AllocsPerRun(5, func() {
		for i := range hs {
			auto.Eval(&hs[i], v, m)
		}
	}); n != 0 {
		t.Fatalf("Eval allocated %.1f times per pass", n)
	}
}

// BenchmarkHostedPlaneEval times the production shape over trace-order
// headers (bench/'s ruleplane.eval_ns_per_pkt in miniature).
func BenchmarkHostedPlaneEval(b *testing.B) {
	auto, err := ruleplane.Compile(hostedPrograms(b, 10_000, 1))
	if err != nil {
		b.Fatal(err)
	}
	hs := hostedHeaders(1, 300, 3000)
	v, m := make([]int64, 3), make([]int32, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auto.Eval(&hs[i%len(hs)], v, m)
	}
}

// BenchmarkHostedPlaneCompile is most of ingress-bare's setup_s.
func BenchmarkHostedPlaneCompile(b *testing.B) {
	progs := hostedPrograms(b, 10_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ruleplane.Compile(progs); err != nil {
			b.Fatal(err)
		}
	}
}
