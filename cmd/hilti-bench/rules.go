// The rules experiment: the shared rule plane (internal/rt/ruleplane)
// hosting every rule source at once — the classifier table, the firewall's
// static programs, a synthetic ACL, and a BPF gate filter — compiled into
// one automaton and checked four ways:
//
//	A. verdict identity: the compiled automaton against the permanent
//	   linear reference, byte-for-byte (FNV over the verdict stream), at
//	   256 / 10k / 100k hosted rules;
//	B. lookup cost: the classifier table evaluated as a linear list and
//	   through the compiled plane, per scale, plus the plane the pipeline
//	   ingress hosts (that table, a BPF gate and the firewall statics) —
//	   the table EXPERIMENTS.md cites (with -rules-json, the rows feed the
//	   -rules-baseline regression check);
//	C. hot reload under live load: a shadow-window swap injected while a
//	   4-worker parallel engine host drains the trace — the swap must
//	   commit after exactly Window packets, with a full ledger, no worker
//	   restarts, and no feed-path pause;
//	D. the differential tripwire: an injected miscompile must abort the
//	   swap with a structured report, retaining the committed rules;
//	E. determinism: two identical feed+swap runs hash identically.
//
// Any violation exits nonzero, so CI runs this as a gate.
package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"hilti/internal/bpf"
	"hilti/internal/bro"
	"hilti/internal/firewall"
	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/pipeline"
	"hilti/internal/rt/classifier"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/values"
)

// planeHeaders extracts the 5-tuple headers the plane evaluates from a
// trace, in feed order (unkeyable frames bypass the plane, so they are
// skipped here too).
func planeHeaders(pkts []pcap.Packet) []ruleplane.Header {
	hs := make([]ruleplane.Header, 0, len(pkts))
	for _, p := range pkts {
		if key, ok := flow.FromFrame(p.Data); ok {
			hs = append(hs, ruleplane.HeaderFrom16(key.SrcIP, key.DstIP, key.Proto, key.SrcPort, key.DstPort))
		}
	}
	return hs
}

// sampleHeaders thins a header stream to at most max entries, evenly, so
// the linear reference stays affordable at the 100k-rule scale.
func sampleHeaders(hs []ruleplane.Header, max int) []ruleplane.Header {
	if len(hs) <= max {
		return hs
	}
	out := make([]ruleplane.Header, 0, max)
	step := len(hs) / max
	for i := 0; i < len(hs) && len(out) < max; i += step {
		out = append(out, hs[i])
	}
	return out
}

// rulesClassifier builds an n-rule, 3-column classifier (src net, dst
// net, dst port) whose constants overlap the synthetic traces' address
// pools (clients 10.1-2.x, servers 172.16.x, DNS servers 93-96.x), so
// probes constantly hit and near-miss real rules.
func rulesClassifier(n int, rng *rand.Rand) *classifier.Classifier {
	c := classifier.New(3)
	netField := func() classifier.Field {
		switch rng.Intn(6) {
		case 0:
			return classifier.Wildcard{}
		case 1:
			return classifier.NetField{Net: values.MustParseNet(fmt.Sprintf("10.%d.0.0/16", 1+rng.Intn(2)))}
		case 2:
			return classifier.NetField{Net: values.MustParseNet(fmt.Sprintf("172.16.%d.0/24", 1+rng.Intn(40)))}
		case 3:
			return classifier.NetField{Net: values.MustParseNet(fmt.Sprintf("93.%d.0.0/16", rng.Intn(4)))}
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
	for i := 0; i < n; i++ {
		must(c.Add([]classifier.Field{netField(), netField(), portField()}, values.Int(int64(i))))
	}
	return c
}

var clsRoles = []ruleplane.FieldRole{ruleplane.RoleSrcAddr, ruleplane.RoleDstAddr, ruleplane.RoleDstPort}

// rulesPrograms builds the full hosted rule set at a scale: half the
// rules from a classifier table (via FromClassifier), a quarter from the
// firewall's static rules (the paper set plus generated ones), the rest
// a synthetic ACL with negated predicates, plus the small gating filter.
// Different seeds produce different-but-compatible sets (same program
// count), so a seed change models an operator's rule edit for swap tests.
func rulesPrograms(scale int, seed int64) []ruleplane.Program {
	rng := rand.New(rand.NewSource(seed))
	ncls := scale / 2
	nfw := scale / 4
	nacl := scale - ncls - nfw

	c := rulesClassifier(ncls, rng)
	c.Compile()
	clsProg, err := ruleplane.FromClassifier(c, clsRoles, "classifier")
	must(err)

	fwRules, err := firewall.ParseRules(strings.NewReader(fwRuleText))
	must(err)
	for len(fwRules) < nfw {
		r := firewall.Rule{Allow: rng.Intn(2) == 0}
		if rng.Intn(5) != 0 {
			r.Src = values.MustParseNet(fmt.Sprintf("10.%d.%d.0/24", 1+rng.Intn(2), 1+rng.Intn(200)))
		}
		if rng.Intn(5) != 0 {
			r.Dst = values.MustParseNet(fmt.Sprintf("172.16.%d.0/24", rng.Intn(40)))
		}
		fwRules = append(fwRules, r)
	}
	fwProg := firewall.RulePlaneProgram("firewall", fwRules)

	acl := ruleplane.Program{Name: "acl", Default: -1}
	for i := 0; i < nacl; i++ {
		var r ruleplane.Rule
		if rng.Intn(3) != 0 {
			p := ruleplane.AddrInNet(values.MustParseNet(fmt.Sprintf("10.%d.%d.0/24", 1+rng.Intn(2), 1+rng.Intn(200))))
			if rng.Intn(5) == 0 {
				p.Kind = ruleplane.AddrNotIn
			}
			r.Src = append(r.Src, p)
		}
		if rng.Intn(3) != 0 {
			p := ruleplane.AddrInNet(values.MustParseNet(fmt.Sprintf("172.16.%d.0/24", rng.Intn(60))))
			if rng.Intn(5) == 0 {
				p.Kind = ruleplane.AddrNotIn
			}
			r.Dst = append(r.Dst, p)
		}
		if rng.Intn(4) == 0 {
			lo := uint16(rng.Intn(60000))
			kind := ruleplane.PortIn
			if rng.Intn(3) == 0 {
				kind = ruleplane.PortNotIn
			}
			r.DstPort = append(r.DstPort, ruleplane.PortPred{Kind: kind, Lo: lo, Hi: lo + uint16(rng.Intn(4000))})
		}
		if rng.Intn(5) == 0 {
			r.Proto = append(r.Proto, ruleplane.ProtoPred{Kind: ruleplane.ProtoIs, Proto: []uint8{6, 17}[rng.Intn(2)]})
		}
		r.Verdict = int64(i % 97)
		acl.Rules = append(acl.Rules, r)
	}

	fexpr, err := bpf.ParseFilter("not (src net 10.1.3.0/24 and tcp) and not (udp and dst port 99)")
	must(err)
	filterProg, err := bpf.FilterProgram("filter", fexpr)
	must(err)
	filterProg.Gate = true

	return []ruleplane.Program{clsProg, fwProg, acl, filterProg}
}

// hashEval folds one packet's full plane outcome into a stream hash.
func hashEval(h hash.Hash64, seq uint64, v []int64, m []int32, drop bool) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	h.Write(b[:])
	for i := range v {
		binary.LittleEndian.PutUint64(b[:], uint64(v[i]))
		h.Write(b[:])
		if m != nil {
			binary.LittleEndian.PutUint32(b[:4], uint32(m[i]))
			h.Write(b[:4])
		}
	}
	if drop {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

func minTime(reps int, fn func()) time.Duration {
	best := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if el := time.Since(start); el < best {
			best = el
		}
	}
	return best
}

// rulesRow is one scale's lookup-cost measurement: the same classifier
// table evaluated as a linear first-match list, through the compiled rule
// plane alone, and hosted beside the gate and firewall programs.
type rulesRow struct {
	Scale            int     `json:"scale"`
	Headers          int     `json:"headers"`
	LinearNsPerPkt   float64 `json:"linear_ns_per_pkt"`
	CompiledNsPerPkt float64 `json:"compiled_ns_per_pkt"`
	HostedNsPerPkt   float64 `json:"hosted_ns_per_pkt"`
}

// hostedPrograms is the production ingress shape (bench/'s pipeline
// workloads): the classifier program first, then a gate that accepts all
// generated traffic and the firewall statics, whose rules therefore carry
// the highest global indexes.
func hostedPrograms(clsProg ruleplane.Program) []ruleplane.Program {
	fexpr, err := bpf.ParseFilter("not (src net 192.168.0.0/16 and tcp) and not (udp and dst port 99)")
	must(err)
	gate, err := bpf.FilterProgram("filter", fexpr)
	must(err)
	gate.Gate = true
	fw, err := firewall.ParseRules(strings.NewReader(fwRuleText))
	must(err)
	return []ruleplane.Program{clsProg, gate, firewall.RulePlaneProgram("firewall", fw)}
}

// recordedRulesRatio reads a -rules-json file and returns the
// compiled/linear per-packet ratio recorded at the largest scale.
func recordedRulesRatio(path string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		Rows []rulesRow `json:"rules"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, err
	}
	best := rulesRow{}
	for _, r := range doc.Rows {
		if r.Scale > best.Scale {
			best = r
		}
	}
	if best.LinearNsPerPkt <= 0 || best.CompiledNsPerPkt <= 0 {
		return 0, fmt.Errorf("no usable rules row in %s", path)
	}
	return best.CompiledNsPerPkt / best.LinearNsPerPkt, nil
}

func (h *harness) rules() {
	header("Compiled rule plane: one automaton, atomic hot reload",
		"compiled == linear verdicts at every scale; swaps commit atomically under live load")
	var chk checker
	check := chk.check

	pkts := append([]pcap.Packet(nil), h.httpTrace()...)
	pkts = append(pkts, h.dnsTrace()...)
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time.Before(pkts[j].Time) })
	allHeaders := planeHeaders(pkts)

	// A+B: verdict identity and lookup cost per scale. The header sample
	// shrinks with scale so the O(N) linear walks stay affordable; the
	// identity check covers the same sampled stream at every scale.
	scales := []int{256, 10_000, 100_000}
	caps := map[int]int{256: 4000, 10_000: 1500, 100_000: 400}
	var rows []rulesRow
	for _, scale := range scales {
		hs := sampleHeaders(allHeaders, caps[scale])
		progs := rulesPrograms(scale, 1)
		auto, err := ruleplane.Compile(progs)
		must(err)
		lin := ruleplane.NewLinear(progs)
		st := auto.Stats()

		n := lin.NumPrograms()
		av, lv := make([]int64, n), make([]int64, n)
		am, lm := make([]int32, n), make([]int32, n)
		ah, lh := fnv.New64a(), fnv.New64a()
		diverge := 0
		for i := range hs {
			auto.Eval(&hs[i], av, am)
			lin.Eval(&hs[i], lv, lm)
			hashEval(ah, 0, av, am, auto.GateDrop(av))
			hashEval(lh, 0, lv, lm, lin.GateDrop(lv))
			for j := 0; j < n; j++ {
				if av[j] != lv[j] || am[j] != lm[j] {
					diverge++
				}
			}
		}
		same := diverge == 0 && ah.Sum64() == lh.Sum64()
		fmt.Printf("    %6d rules (%d src + %d dst trie nodes, %d tails / %d refs shared): %d headers, verdict stream %016x, divergences %d\n",
			st.Rules, st.SrcNodes, st.DstNodes, st.Tails, st.TailRefs, len(hs), ah.Sum64(), diverge)
		check(same, fmt.Sprintf("%d rules: compiled diverged from linear on %d verdicts", scale, diverge))

		// Lookup cost: the classifier table alone, both ways, same probes.
		c1 := rulesClassifier(scale, rand.New(rand.NewSource(3)))
		c1.Compile()
		clsProg, err := ruleplane.FromClassifier(c1, clsRoles, "classifier")
		must(err)
		clsAuto, err := ruleplane.Compile([]ruleplane.Program{clsProg})
		must(err)

		type probe struct {
			src, dst, port values.Value
			h              ruleplane.Header
		}
		probes := make([]probe, len(hs))
		for i, hd := range hs {
			probes[i] = probe{
				src:  values.Value{K: values.KindAddr, A: hd.SrcHi, B: hd.SrcLo},
				dst:  values.Value{K: values.KindAddr, A: hd.DstHi, B: hd.DstLo},
				port: values.PortVal(hd.DstPort, hd.Proto),
				h:    hd,
			}
		}
		reps := 3
		linT := minTime(reps, func() {
			for i := range probes {
				c1.Get(probes[i].src, probes[i].dst, probes[i].port) //nolint:errcheck
			}
		})
		cv := make([]int64, 1)
		cm := make([]int32, 1)
		compT := minTime(reps, func() {
			for i := range probes {
				clsAuto.Eval(&probes[i].h, cv, cm)
			}
		})
		hosted, err := ruleplane.Compile(hostedPrograms(clsProg))
		must(err)
		hv := make([]int64, hosted.NumPrograms())
		hm := make([]int32, hosted.NumPrograms())
		hostT := minTime(reps, func() {
			for i := range probes {
				hosted.Eval(&probes[i].h, hv, hm)
			}
		})
		np := float64(len(probes))
		rows = append(rows, rulesRow{
			Scale: scale, Headers: len(probes),
			LinearNsPerPkt:   float64(linT.Nanoseconds()) / np,
			CompiledNsPerPkt: float64(compT.Nanoseconds()) / np,
			HostedNsPerPkt:   float64(hostT.Nanoseconds()) / np,
		})
	}
	fmt.Println("    lookup cost (classifier table, ns/header; hosted = + gate + firewall programs):")
	fmt.Println("      rules      linear    compiled      hosted")
	for _, r := range rows {
		fmt.Printf("    %7d  %10.0f  %10.0f  %10.0f\n", r.Scale, r.LinearNsPerPkt, r.CompiledNsPerPkt, r.HostedNsPerPkt)
	}
	for _, r := range rows {
		if r.Scale >= 10_000 {
			check(r.CompiledNsPerPkt < r.LinearNsPerPkt,
				fmt.Sprintf("%d rules: compiled (%.0fns) not faster than linear (%.0fns)",
					r.Scale, r.CompiledNsPerPkt, r.LinearNsPerPkt))
		}
		if r.Scale == 10_000 {
			// A program that has its answer must stop costing: hosting two
			// small programs beside the table may not multiply its lookup.
			check(r.HostedNsPerPkt <= 4*r.CompiledNsPerPkt,
				fmt.Sprintf("%d rules: hosted plane (%.0fns) above 4x the classifier alone (%.0fns)",
					r.Scale, r.HostedNsPerPkt, r.CompiledNsPerPkt))
		}
	}
	last := rows[len(rows)-1]
	gotRatio := last.CompiledNsPerPkt / last.LinearNsPerPkt
	ceiling := *rulesCeiling
	if *rulesBaseline != "" {
		if rec, err := recordedRulesRatio(*rulesBaseline); err != nil {
			check(false, fmt.Sprintf("rules baseline %s: %v", *rulesBaseline, err))
		} else {
			// Same x2 headroom rationale as the tier baseline: the ratio
			// divides two noisy timings.
			ceiling = rec * 2
			fmt.Printf("    recorded baseline (%s): compiled/linear %.4fx -> ceiling %.4fx\n",
				*rulesBaseline, rec, ceiling)
		}
	}
	fmt.Printf("    compiled/linear at %d rules: %.4fx (ceiling %.4fx)\n", last.Scale, gotRatio, ceiling)
	check(gotRatio <= ceiling, fmt.Sprintf("compiled/linear ratio %.4fx above ceiling %.4fx", gotRatio, ceiling))

	// C: hot reload under live load. A 4-worker parallel engine host
	// drains the trace while a shadow-window swap lands a third of the way
	// in. Feed never pauses (the swap is a pointer install; the window
	// drains on the feed path), the window is exact (Feed is the only
	// evaluator), and the post-swap ledger accounts for every packet.
	const window = 512
	progs := rulesPrograms(10_000, 1)
	next := rulesPrograms(10_000, 2)
	plane, err := ruleplane.New(progs)
	must(err)
	cfg := bro.Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{bro.HTTPScript, bro.FilesScript, bro.DNSScript},
		Quiet:   true, RulePlane: plane}
	par, err := bro.NewParallelWith(cfg, pipeline.Config{Workers: 4})
	must(err)
	swapAt := len(pkts) / 3
	feedLat := make([]time.Duration, 0, len(pkts))
	var swapDur time.Duration
	var swapSeq uint64
	for i := range pkts {
		if i == swapAt {
			start := time.Now()
			swapSeq, err = plane.Swap(next, ruleplane.SwapOptions{Window: window})
			swapDur = time.Since(start)
			must(err)
		}
		start := time.Now()
		par.Feed(pkts[i].Time.UnixNano(), pkts[i].Data) //nolint:errcheck
		feedLat = append(feedLat, time.Since(start))
	}
	par.Close()
	sort.Slice(feedLat, func(i, j int) bool { return feedLat[i] < feedLat[j] })
	p99 := feedLat[len(feedLat)*99/100]
	st := plane.Stats()
	fmt.Printf("    live swap: %d pkts, swap at %d (compile+install %v), committed seq %d, ledger %+v\n",
		len(pkts), swapAt, swapDur.Round(time.Microsecond), plane.CommittedSeq(), st)
	fmt.Printf("    feed p50 %v  p99 %v  max %v; plane dropped %d; worker restarts %d\n",
		feedLat[len(feedLat)/2].Round(time.Nanosecond), p99.Round(time.Nanosecond),
		feedLat[len(feedLat)-1].Round(time.Nanosecond), par.PlaneDropped(), par.Restarts())
	check(swapSeq == 2 && plane.CommittedSeq() == 2, "swap did not commit generation 2")
	check(st.Swaps == 1 && st.Committed == 1 && st.Aborted == 0,
		fmt.Sprintf("swap ledger %+v, want exactly one clean commit", st))
	check(st.ShadowPackets == window,
		fmt.Sprintf("shadow window drained %d packets, want exactly %d (single feeder)", st.ShadowPackets, window))
	check(par.Restarts() == 0, "workers restarted during the swap")
	checkLedger(check, par.Ledger(), len(pkts))
	check(par.PlaneDropped() > 0, "gate filter dropped nothing; trace/rule mismatch")
	check(p99 < 10*time.Millisecond, fmt.Sprintf("feed p99 %v: the swap paused the pipeline", p99))
	check(swapDur < 5*time.Second, "swap call blocked") // compile included; install itself is atomic

	// D: the differential tripwire. An injected miscompile on the shadow
	// generation must abort on the first packet with a structured report,
	// leaving the committed rules in place and the plane ready to swap
	// again.
	smallProgs := rulesPrograms(256, 1)
	smallNext := rulesPrograms(256, 2)
	tripwire, err := ruleplane.New(smallProgs)
	must(err)
	_, err = tripwire.Swap(smallNext, ruleplane.SwapOptions{Window: 64, InjectDivergence: true})
	must(err)
	verd := make([]int64, tripwire.NumPrograms())
	hs := sampleHeaders(allHeaders, 64)
	for i := range hs {
		tripwire.Eval(&hs[i], verd)
	}
	tst := tripwire.Stats()
	rep := tripwire.LastReport()
	check(tst.Aborted == 1 && tst.Divergences == 1 && tst.ShadowPackets == 1,
		fmt.Sprintf("injected divergence ledger %+v, want abort on the first shadow packet", tst))
	check(tripwire.CommittedSeq() == 1, "abort did not retain the committed generation")
	check(rep != nil, "no divergence report after abort")
	if rep != nil {
		fmt.Printf("    tripwire: %s\n", rep)
	}
	// The retained rules still answer exactly like their linear oracle.
	oracle := ruleplane.NewLinear(smallProgs)
	ov := make([]int64, len(smallProgs))
	om := make([]int32, len(smallProgs))
	stale := 0
	for i := range hs {
		seq, _ := tripwire.Eval(&hs[i], verd)
		oracle.Eval(&hs[i], ov, om)
		if seq != 1 {
			stale++
		}
		for j := range ov {
			if verd[j] != ov[j] {
				stale++
			}
		}
	}
	check(stale == 0, "post-abort verdicts no longer match the source rules")
	if _, err := tripwire.Swap(smallNext, ruleplane.SwapOptions{Window: 4}); err != nil {
		check(false, fmt.Sprintf("clean re-swap after abort rejected: %v", err))
	}

	// E: determinism. Two identical eval+swap sequences must hash
	// identically — seeds pin the rule sets, Feed order pins the stream.
	twin := func() uint64 {
		p, err := ruleplane.New(rulesPrograms(256, 1))
		must(err)
		hsh := fnv.New64a()
		v := make([]int64, p.NumPrograms())
		at := len(allHeaders) / 3
		for i := range allHeaders {
			if i == at {
				if _, err := p.Swap(rulesPrograms(256, 2), ruleplane.SwapOptions{Window: 256}); err != nil {
					must(err)
				}
			}
			seq, drop := p.Eval(&allHeaders[i], v)
			hashEval(hsh, seq, v, nil, drop)
		}
		return hsh.Sum64()
	}
	h1, h2 := twin(), twin()
	fmt.Printf("    determinism: twin feed+swap runs hash %016x / %016x\n", h1, h2)
	check(h1 == h2, "identical runs produced different verdict streams")

	if *rulesJSON != "" {
		doc := struct {
			Rows []rulesRow `json:"rules"`
		}{rows}
		raw, err := json.MarshalIndent(doc, "", "  ")
		must(err)
		must(os.WriteFile(*rulesJSON, append(raw, '\n'), 0o644))
		fmt.Printf("    wrote %s\n", *rulesJSON)
	}

	chk.done("    all rule-plane invariants held")
}
