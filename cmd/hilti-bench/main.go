// hilti-bench regenerates the paper's evaluation (§5–§6): every table and
// figure row, on synthetic traces standing in for the Berkeley captures
// (see DESIGN.md). Output names the paper's reference numbers next to the
// measured ones so EXPERIMENTS.md can be refreshed from a single run.
//
// Usage:
//
//	hilti-bench -exp all
//	hilti-bench -exp fig9 -http-sessions 2000 -dns-txns 20000
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hilti"
	"hilti/internal/binpac/grammars"
	"hilti/internal/bpf"
	"hilti/internal/bro"
	"hilti/internal/firewall"
	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/layers"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/pipeline"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/fiber"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

var (
	expFlag       = flag.String("exp", "all", "experiment: fibers|bpf|firewall|table2|fig9|table3|fig10|fib|threads|vmopt|tier|rules|observe|soak|all")
	httpSessions  = flag.Int("http-sessions", 800, "HTTP sessions in the synthetic trace")
	dnsTxns       = flag.Int("dns-txns", 8000, "DNS transactions in the synthetic trace")
	seed          = flag.Int64("seed", 1, "generator seed")
	optFlag       = flag.String("opt", "", "VM optimizer level applied to every experiment: 0 (off), 1, or 2/tier2 (eager tier-2 specialization); empty keeps the package default")
	tierCeiling   = flag.Float64("tier-ratio-ceiling", 5.0, "tier experiment: fail when the tier-2/BPF time ratio exceeds this")
	tierBaseline  = flag.String("tier-baseline", "", "tier experiment: derive the ratio ceiling from the tier-2/BPF rows recorded in this -bench-json file (x2 noise headroom) instead of -tier-ratio-ceiling")
	benchJSON     = flag.String("bench-json", "", "write ns/op, allocs/op, and instruction counts for the §6.2/§6.3 configurations to this file")
	rulesCeiling  = flag.Float64("rules-ratio-ceiling", 1.0, "rules experiment: fail when the compiled/linear lookup ratio at the largest scale exceeds this")
	rulesBaseline = flag.String("rules-baseline", "", "rules experiment: derive the ratio ceiling from the rows recorded in this -rules-json file (x2 noise headroom) instead of -rules-ratio-ceiling")
	rulesJSON     = flag.String("rules-json", "", "rules experiment: write the per-scale lookup-cost table to this file")
	metricsAddr   = flag.String("metrics-addr", "", "serve Prometheus text at /metrics (plus expvar and pprof) on this address for the duration of the run")

	soakDuration = flag.Duration("soak-duration", 30*time.Second, "soak: trace-time span of the adversarial run")
	soakRate     = flag.Float64("soak-rate", 8000, "soak: base offered load, packets/sec of trace time")
	soakFlows    = flag.Int("soak-flows", 1500, "soak: steady-state concurrent flows")
	soakFactor   = flag.Float64("soak-factor", 2, "soak: overload-window rate multiplier")
	soakMemMB    = flag.Uint64("soak-mem-mb", 768, "soak: heap-alloc ceiling in MiB (invariant)")
)

// parseOptLevel maps the -opt flag to a vm optimizer level: plain digits,
// or the "tier2" alias for level 2.
func parseOptLevel(s string) (int, error) {
	if s == "tier2" {
		return 2, nil
	}
	lvl, err := strconv.Atoi(s)
	if err != nil || lvl < 0 || lvl > 2 {
		return 0, fmt.Errorf("invalid -opt %q (want 0, 1, 2, or tier2)", s)
	}
	return lvl, nil
}

func main() {
	flag.Parse()
	if *optFlag != "" {
		lvl, err := parseOptLevel(*optFlag)
		must(err)
		vm.SetDefaultOptLevel(lvl)
	}
	h := &harness{}
	if *metricsAddr != "" {
		addr, err := h.metricsReg().Serve(*metricsAddr)
		must(err)
		h.metricsReg().PublishExpvar("hilti_bench")
		fmt.Printf("metrics: http://%s/metrics (expvar /debug/vars, pprof /debug/pprof/)\n", addr)
	}
	if *benchJSON != "" {
		h.writeBenchJSON(*benchJSON)
		return
	}
	ran := false
	for _, x := range experiments {
		// soak is deliberately not in "all": it is the long-running
		// adversarial stage, invoked explicitly (CI runs it as its own step).
		if x.name == *expFlag || *expFlag == "all" && x.name != "soak" {
			h.run(x)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(1)
	}
}

// experiment is one -exp name: the header it prints, naming the paper's
// claim, and the run that measures it and asserts its invariants.
type experiment struct {
	name, title, paperRef string
	run                   func(*harness, *checker)
}

// experiments lists every -exp name, in "all" order.
var experiments = []experiment{
	{"fibers", "Fiber microbenchmarks (paper §5)",
		"~18M context switches/s; ~5M create/start/finish/delete cycles/s (setcontext, Xeon 5570)", (*harness).fibers},
	{"bpf", "Berkeley Packet Filter (paper §6.2)",
		"HILTI/BPF cycle ratio 1.70x; 1.35x ignoring the C stub (stub = 20.6% of the difference)", (*harness).bpf},
	{"firewall", "Stateful firewall (paper §6.3)",
		"identical match counts vs. independent implementation; orders of magnitude faster than scripted baseline", (*harness).firewall},
	{"table2", "Table 2: BinPAC++ vs standard parsers, log agreement",
		"http.log 98.91% / files.log 98.36% / dns.log >99.9% identical", (*harness).table2},
	{"fig9", "Figure 9: protocol-parsing cycles by component",
		"BinPAC++ parsing 1.28x (HTTP) / 3.03x (DNS) vs standard; glue 1.3%/6.9% of total", (*harness).fig9},
	{"table3", "Table 3: compiled scripts vs interpreter, log agreement",
		">99.99% / 99.98% / >99.99% identical", (*harness).table3},
	{"fig10", "Figure 10: script execution cycles by component",
		"compiled scripts 1.30x (HTTP) / 0.93x (DNS) vs interpreter; glue 4.2%/20.0%", (*harness).fig10},
	{"fib", "Fibonacci baseline (paper §6.5)",
		"compiled version solves it orders of magnitude faster than the interpreter", (*harness).fib},
	{"threads", "Threaded DNS analysis (paper §6.6)",
		"the same HILTI parsing code supports threaded and non-threaded setups; results agree", (*harness).threads},
	{"vmopt", "Post-lowering VM optimizer",
		"behavior-preserving: identical outputs at -O0/-O1, fewer instructions both statically and dynamically", (*harness).vmopt},
	{"tier", "Tier-2 execution: overlay specialization",
		"transparent re-lowering: same results as O0/O1; filter ratio closes toward the paper's 1.35x", (*harness).tier},
	{"rules", "Compiled rule plane: one automaton, atomic hot reload",
		"compiled == linear verdicts at every scale; swaps commit atomically under live load", (*harness).rules},
	{"observe", "Observability layer (unified metrics)",
		"profilers are first-class (§3.3); counters survive crash-only restarts; hot path stays within budget", (*harness).observe},
	{"soak", "Adversarial soak: overload control with graceful degradation",
		"load shedding by class, not by arrival order: established flows keep full service under 2x overload", (*harness).soak},
}

// run prints x's header, runs it, and settles its checks: any failure
// exits 1, otherwise a checked experiment prints its success line.
func (h *harness) run(x experiment) {
	fmt.Printf("\n=== %s ===\n    paper reference: %s\n", x.title, x.paperRef)
	var chk checker
	x.run(h, &chk)
	chk.done(fmt.Sprintf("    all %s invariants held", x.name))
}

type harness struct {
	httpPkts, dnsPkts, merged []pcap.Packet
	reg                       *metrics.Registry
}

// metricsReg returns the run's shared metrics registry, creating it on
// first use. With -metrics-addr it is served for live scraping; the
// observe experiment uses it for its accounting run either way.
func (h *harness) metricsReg() *metrics.Registry {
	if h.reg == nil {
		h.reg = metrics.NewRegistry()
	}
	return h.reg
}

func (h *harness) httpTrace() []pcap.Packet {
	if h.httpPkts == nil {
		cfg := gen.DefaultHTTPConfig()
		cfg.Seed, cfg.Sessions = *seed, *httpSessions
		h.httpPkts = gen.GenerateHTTP(cfg)
	}
	return h.httpPkts
}

func (h *harness) dnsTrace() []pcap.Packet {
	if h.dnsPkts == nil {
		cfg := gen.DefaultDNSConfig()
		cfg.Seed, cfg.Transactions = *seed+1, *dnsTxns
		h.dnsPkts = gen.GenerateDNS(cfg)
	}
	return h.dnsPkts
}

// mergedTrace is the HTTP and DNS traces as one capture, interleaved in
// time order like a capture interface.
func (h *harness) mergedTrace() []pcap.Packet {
	if h.merged == nil {
		h.merged = slices.Concat(h.httpTrace(), h.dnsTrace())
		slices.SortStableFunc(h.merged, func(a, b pcap.Packet) int { return a.Time.Compare(b.Time) })
	}
	return h.merged
}

// streams are the logs the standard configuration writes.
var streams = []string{"http", "files", "dns"}

// stdConfig is the engine configuration every log oracle runs: standard
// parsers and all three scripts on the given script backend.
func stdConfig(scriptExec string) bro.Config {
	return bro.Config{Parser: "standard", ScriptExec: scriptExec,
		Scripts: []string{bro.HTTPScript, bro.FilesScript, bro.DNSScript}, Quiet: true}
}

func newEngine(cfg bro.Config) *bro.Engine {
	e, err := bro.NewEngine(cfg)
	must(err)
	return e
}

// process feeds pkts to an engine without finishing it.
func process(e *bro.Engine, pkts []pcap.Packet) {
	for i := range pkts {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
	}
}

// feed offers pkts to a pipeline without closing it. Feed's error needs
// no handling here: a refused packet still lands in a packet fate, and
// the ledger checks account for it.
func feed(par *bro.Parallel, pkts []pcap.Packet) {
	for i := range pkts {
		par.Feed(pkts[i].Time.UnixNano(), pkts[i].Data) //nolint:errcheck
	}
}

// atOptLevel runs fn with the VM's package-default optimizer level, the
// one firewall.New and bro.NewEngine link at, set to lvl.
func atOptLevel(lvl int, fn func()) {
	prev := vm.DefaultOptLevel()
	vm.SetDefaultOptLevel(lvl)
	defer vm.SetDefaultOptLevel(prev)
	fn()
}

// --- §5: fiber microbenchmarks ------------------------------------------------

func (h *harness) fibers(_ *checker) {
	f := fiber.New(func(f *fiber.Fiber, arg any) (any, error) {
		for {
			f.Yield(nil)
		}
	})
	f.Resume(nil)
	const switches = 2_000_000
	start := time.Now()
	for i := 0; i < switches; i++ {
		f.Resume(nil)
	}
	el := time.Since(start)
	f.Abort()
	fmt.Printf("    context switches: %.2fM/s (%v per switch)\n",
		float64(switches)/el.Seconds()/1e6, el/switches)

	fn := func(f *fiber.Fiber, arg any) (any, error) { return nil, nil }
	const cycles = 1_000_000
	start = time.Now()
	for i := 0; i < cycles; i++ {
		fiber.New(fn).Resume(nil)
	}
	el = time.Since(start)
	fmt.Printf("    create/run/finish cycles: %.2fM/s (%v per cycle)\n",
		float64(cycles)/el.Seconds()/1e6, el/cycles)

	// What parsers actually park on: the VM's explicit call stack. The same
	// two measurements, a call that waits for input forever (each Resume
	// retries the instruction and parks again) and a call that returns at
	// once, with no goroutine behind either.
	b := ast.NewBuilder("M")
	it := types.IterT(types.BytesT)
	fb := b.Function("wait", types.BoolT, ast.Param{Name: "cur", Type: it})
	c := fb.Local("c", types.BoolT)
	fb.Assign(c, "iterator.at_end", ast.VarOp("cur"))
	fb.Return(c)
	b.Function("nop", types.VoidT).ReturnVoid()
	prog, err := vm.Link(b.M)
	must(err)
	ex, err := vm.NewExec(prog)
	must(err)
	wait := ex.FiberCall(prog.Fn("M::wait"), values.IterBytes(hbytes.New().Begin()))
	wait.Resume() //nolint:errcheck // parks at the open rope's end
	start = time.Now()
	for i := 0; i < switches; i++ {
		wait.Resume() //nolint:errcheck
	}
	el = time.Since(start)
	wait.Abort()
	fmt.Printf("    VM suspend+resume: %.2fM/s (%v per switch; paper's setcontext: 55ns)\n",
		float64(switches)/el.Seconds()/1e6, el/switches)
	nop := prog.Fn("M::nop")
	start = time.Now()
	for i := 0; i < cycles; i++ {
		ex.FiberCall(nop).Resume() //nolint:errcheck
	}
	el = time.Since(start)
	fmt.Printf("    VM create/run/finish cycles: %.2fM/s (%v per cycle)\n",
		float64(cycles)/el.Seconds()/1e6, el/cycles)
}

// --- §6.2: BPF vs HILTI filter --------------------------------------------------

// paperFilter uses addresses that actually appear in the synthetic trace,
// so it matches a small share of packets like the paper's adapted Figure
// 4 filter.
const paperFilter = "host 10.1.9.77 or src net 10.1.3.0/24"

// filterProgs compiles the §6.2 filter for the BPF interpreter and as a
// HILTI module.
func filterProgs() (bpf.Program, *ast.Module) {
	e, err := bpf.ParseFilter(paperFilter)
	must(err)
	prog, err := bpf.CompileBPF(e)
	must(err)
	mod, err := bpf.CompileHILTI(e)
	must(err)
	return prog, mod
}

// linkFilter links the §6.2 HILTI module at an optimizer level and
// returns the program, an Exec for it, and its filter function.
func linkFilter(mod *ast.Module, lvl int) (*vm.Program, *vm.Exec, *vm.CompiledFunc) {
	prog, err := vm.LinkWith(vm.Options{OptLevel: lvl}, mod)
	must(err)
	ex, err := vm.NewExec(prog)
	must(err)
	return prog, ex, prog.Fn("Filter::filter")
}

// bpfRun runs the BPF filter over pkts and returns its match count.
func bpfRun(prog bpf.Program, pkts []pcap.Packet) (matches int) {
	for _, p := range pkts {
		if prog.Run(p.Data) != 0 {
			matches++
		}
	}
	return matches
}

func (h *harness) bpf(chk *checker) {
	pkts := h.httpTrace()
	prog, mod := filterProgs()
	_, ex, fn := linkFilter(mod, vm.DefaultOptLevel())

	// BPF interpretation.
	start := time.Now()
	bpfMatches := bpfRun(prog, pkts)
	bpfTime := time.Since(start)

	// HILTI with the host stub (per-packet boxing + dispatch).
	start = time.Now()
	stubMatches := 0
	for _, p := range pkts {
		v, err := ex.Call("Filter::filter", values.BytesFrom(p.Data))
		must(err)
		if v.AsBool() {
			stubMatches++
		}
	}
	hiltiStub := time.Since(start)

	// HILTI without stub overhead (direct call, recycled buffer).
	noStubMatches, _, hiltiNoStub := filterRun(ex, fn, pkts)

	chk.check(bpfMatches == stubMatches && bpfMatches == noStubMatches,
		fmt.Sprintf("match counts differ: bpf=%d stub=%d nostub=%d", bpfMatches, stubMatches, noStubMatches))
	fmt.Printf("    filter: %q, matches: %d/%d packets (%.1f%%)\n",
		paperFilter, bpfMatches, len(pkts), 100*float64(bpfMatches)/float64(len(pkts)))
	fmt.Printf("    BPF interpreter:     %v (%v/pkt)\n", bpfTime, bpfTime/time.Duration(len(pkts)))
	fmt.Printf("    HILTI (with stub):   %v  ratio %.2fx\n", hiltiStub, float64(hiltiStub)/float64(bpfTime))
	fmt.Printf("    HILTI (no stub):     %v  ratio %.2fx\n", hiltiNoStub, float64(hiltiNoStub)/float64(bpfTime))
	if hiltiStub > hiltiNoStub && hiltiStub > bpfTime {
		stubShare := float64(hiltiStub-hiltiNoStub) / float64(hiltiStub-bpfTime)
		fmt.Printf("    stub share of the HILTI-BPF difference: %.1f%% (paper: 20.6%%)\n", 100*stubShare)
	}
}

// --- §6.3: stateful firewall ----------------------------------------------------

func (h *harness) firewall(chk *checker) {
	rules := fwRules()
	fw := newFirewall()
	base := firewall.NewBaseline(rules, 5*time.Minute)

	inputs := h.fwInputs()

	start := time.Now()
	hm, disagree := 0, 0
	for _, in := range inputs {
		ok, err := fw.Match(in.ts, in.src, in.dst)
		must(err)
		if ok {
			hm++
		}
	}
	hiltiTime := time.Since(start)

	start = time.Now()
	bm := 0
	for _, in := range inputs {
		if base.Match(in.ts, in.src, in.dst) {
			bm++
		}
	}
	baseTime := time.Since(start)
	// Replay for per-packet agreement (fresh instances: state is stateful).
	fw2, base2 := newFirewall(), firewall.NewBaseline(rules, 5*time.Minute)
	for _, in := range inputs {
		a, _ := fw2.Match(in.ts, in.src, in.dst)
		if a != base2.Match(in.ts, in.src, in.dst) {
			disagree++
		}
	}
	fmt.Printf("    packets: %d, HILTI matches: %d, baseline matches: %d, disagreements: %d\n",
		len(inputs), hm, bm, disagree)
	chk.check(disagree == 0, fmt.Sprintf("HILTI firewall disagrees with the baseline on %d packets", disagree))
	fmt.Printf("    HILTI:    %v (%v/pkt)\n", hiltiTime, hiltiTime/time.Duration(len(inputs)))
	fmt.Printf("    baseline: %v (%v/pkt)  ratio %.2fx\n",
		baseTime, baseTime/time.Duration(len(inputs)), float64(hiltiTime)/float64(baseTime))
}

// fwPkt is one firewall input: timestamp plus the IPv4 endpoints.
type fwPkt struct {
	ts       int64
	src, dst values.Value
}

// fwInputs decodes the DNS trace into firewall match inputs.
func (h *harness) fwInputs() []fwPkt {
	var inputs []fwPkt
	for _, p := range h.dnsTrace() {
		eth, _ := layers.DecodeEthernet(p.Data)
		ip, err := layers.DecodeIPv4(eth.Payload)
		if err != nil {
			continue
		}
		inputs = append(inputs, fwPkt{p.Time.UnixNano(), values.AddrFrom4(ip.Src), values.AddrFrom4(ip.Dst)})
	}
	return inputs
}

const fwRuleText = `
10.1.0.0/16   172.20.0.0/16 allow
10.2.0.0/16   172.20.0.0/16 deny
*             172.20.0.5/32 allow
`

// fwRules parses the §6.3 example rule set.
func fwRules() []firewall.Rule {
	rules, err := firewall.ParseRules(strings.NewReader(fwRuleText))
	must(err)
	return rules
}

// newFirewall links the §6.3 firewall at the package-default opt level.
func newFirewall() *firewall.Firewall {
	fw, err := firewall.New(fwRules(), 5*time.Minute)
	must(err)
	return fw
}

// --- §6.4: protocol parsers (Table 2 + Figure 9) --------------------------------

func (h *harness) runEngine(parser, scriptExec string, scripts []string, pkts []pcap.Packet) (*bro.Engine, *bro.Stats) {
	e := newEngine(bro.Config{Parser: parser, ScriptExec: scriptExec, Scripts: scripts, Quiet: true})
	return e, e.ProcessTrace(pkts)
}

func (h *harness) table2(_ *checker) {
	httpScripts := []string{bro.HTTPScript, bro.FilesScript}
	std, _ := h.runEngine("standard", "interp", httpScripts, h.httpTrace())
	pac, _ := h.runEngine("binpac", "interp", httpScripts, h.httpTrace())
	stdD, _ := h.runEngine("standard", "interp", []string{bro.DNSScript}, h.dnsTrace())
	pacD, _ := h.runEngine("binpac", "interp", []string{bro.DNSScript}, h.dnsTrace())

	fmt.Printf("    %-10s %8s %8s %10s %10s %10s\n", "#Lines", "Std", "Pac", "Norm-Std", "Norm-Pac", "Identical")
	for _, row := range []struct {
		stream string
		a, b   *bro.Engine
	}{
		{"http", std, pac}, {"files", std, pac}, {"dns", stdD, pacD},
	} {
		agr := bro.CompareLogs(row.stream, row.a.Logs.Lines(row.stream), row.b.Logs.Lines(row.stream))
		fmt.Printf("    %-10s %8d %8d %10d %10d %9.2f%%\n",
			row.stream+".log", agr.TotalA, agr.TotalB, agr.NormA, agr.NormB, 100*agr.IdenticalFrac)
	}
	fmt.Println("    known deviations (bro.ParserDeviations; FuzzParsersAgree checks the rest):")
	for _, d := range bro.ParserDeviations {
		fmt.Printf("      %s: %s\n", d.Name, d.Reason)
	}
}

func statsRow(label string, st *bro.Stats) {
	fmt.Printf("    %-22s parse=%-12v script=%-12v glue=%-12v other=%-12v total=%v\n",
		label, st.Parsing.Round(time.Millisecond), st.Script.Round(time.Millisecond),
		st.Glue.Round(time.Millisecond), st.Other.Round(time.Millisecond), st.Total.Round(time.Millisecond))
}

func (h *harness) fig9(_ *checker) {
	httpScripts := []string{bro.HTTPScript, bro.FilesScript}
	_, stdH := h.runEngine("standard", "interp", httpScripts, h.httpTrace())
	_, pacH := h.runEngine("binpac", "interp", httpScripts, h.httpTrace())
	_, stdD := h.runEngine("standard", "interp", []string{bro.DNSScript}, h.dnsTrace())
	_, pacD := h.runEngine("binpac", "interp", []string{bro.DNSScript}, h.dnsTrace())

	fmt.Println("    HTTP:")
	statsRow("Standard", stdH)
	statsRow("HILTI (BinPAC++)", pacH)
	fmt.Printf("    parsing ratio: %.2fx (paper: 1.28x); glue share of total: %.1f%% (paper: 1.3%%)\n",
		ratio(pacH.Parsing, stdH.Parsing), 100*float64(pacH.Glue)/float64(pacH.Total))
	fmt.Println("    DNS:")
	statsRow("Standard", stdD)
	statsRow("HILTI (BinPAC++)", pacD)
	fmt.Printf("    parsing ratio: %.2fx (paper: 3.03x); glue share of total: %.1f%% (paper: 6.9%%)\n",
		ratio(pacD.Parsing, stdD.Parsing), 100*float64(pacD.Glue)/float64(pacD.Total))
}

// --- §6.5: script compiler (Table 3 + Figure 10 + fib) ---------------------------

func (h *harness) table3(_ *checker) {
	httpScripts := []string{bro.HTTPScript, bro.FilesScript}
	ip, _ := h.runEngine("standard", "interp", httpScripts, h.httpTrace())
	hl, _ := h.runEngine("standard", "hilti", httpScripts, h.httpTrace())
	ipD, _ := h.runEngine("standard", "interp", []string{bro.DNSScript}, h.dnsTrace())
	hlD, _ := h.runEngine("standard", "hilti", []string{bro.DNSScript}, h.dnsTrace())

	fmt.Printf("    %-10s %8s %8s %10s\n", "#Lines", "Std", "Hlt", "Identical")
	for _, row := range []struct {
		stream string
		a, b   *bro.Engine
	}{
		{"http", ip, hl}, {"files", ip, hl}, {"dns", ipD, hlD},
	} {
		agr := bro.CompareLogs(row.stream, row.a.Logs.Lines(row.stream), row.b.Logs.Lines(row.stream))
		fmt.Printf("    %-10s %8d %8d %9.2f%%\n",
			row.stream+".log", agr.NormA, agr.NormB, 100*agr.IdenticalFrac)
	}
}

func (h *harness) fig10(_ *checker) {
	httpScripts := []string{bro.HTTPScript, bro.FilesScript}
	_, ipH := h.runEngine("standard", "interp", httpScripts, h.httpTrace())
	_, hlH := h.runEngine("standard", "hilti", httpScripts, h.httpTrace())
	_, ipD := h.runEngine("standard", "interp", []string{bro.DNSScript}, h.dnsTrace())
	_, hlD := h.runEngine("standard", "hilti", []string{bro.DNSScript}, h.dnsTrace())

	fmt.Println("    HTTP:")
	statsRow("Standard (interp)", ipH)
	statsRow("HILTI (compiled)", hlH)
	fmt.Printf("    script ratio: %.2fx (paper: 1.30x); glue share of total: %.1f%% (paper: 4.2%%)\n",
		ratio(hlH.Script, ipH.Script), 100*float64(hlH.Glue)/float64(hlH.Total))
	// What the split above costs to take: the component clock's reads, at
	// the price of one (time.Since on a monotonic base, as the clock does).
	const loop = 1_000_000
	base := time.Now()
	for i := 0; i < loop; i++ {
		_ = time.Since(base)
	}
	fmt.Printf("    instrumentation: %.1f clock reads/packet × %d ns\n",
		float64(hlH.ClockReads)/float64(hlH.Packets), time.Since(base).Nanoseconds()/loop)
	fmt.Println("    DNS:")
	statsRow("Standard (interp)", ipD)
	statsRow("HILTI (compiled)", hlD)
	fmt.Printf("    script ratio: %.2fx (paper: 0.93x); glue share of total: %.1f%% (paper: 20.0%%)\n",
		ratio(hlD.Script, ipD.Script), 100*float64(hlD.Glue)/float64(hlD.Total))
}

func (h *harness) fib(_ *checker) {
	s, err := bro.ParseScript(bro.FibScript)
	must(err)
	ip := bro.NewInterp()
	must(ip.Load(s))
	const n, reps = 22, 5
	start := time.Now()
	for i := 0; i < reps; i++ {
		_, err = ip.CallFunction("fib", bro.CountVal(n))
		must(err)
	}
	interpTime := time.Since(start) / reps

	mod, err := bro.CompileScripts(s)
	must(err)
	prog, err := vm.Link(mod)
	must(err)
	ex, err := vm.NewExec(prog)
	must(err)
	fn := prog.Fn("BroScripts::fib")
	start = time.Now()
	for i := 0; i < reps; i++ {
		_, err = ex.CallFn(fn, values.Int(n))
		must(err)
	}
	compiledTime := time.Since(start) / reps
	fmt.Printf("    fib(%d): interpreter %v, compiled %v -> %.1fx faster\n",
		n, interpTime, compiledTime, float64(interpTime)/float64(compiledTime))
}

// --- §6.6: threading ---------------------------------------------------------------

func (h *harness) threads(chk *checker) {
	single := h.threadedDNSRun(1)
	for _, workers := range []int{2, 4, 8} {
		multi := h.threadedDNSRun(workers)
		fmt.Printf("    %d workers: %d dns.log lines, single-threaded %d\n", workers, multi, single)
		chk.check(multi == single, fmt.Sprintf("%d workers: %d dns.log lines, single-threaded %d", workers, multi, single))
	}
}

// threadedDNSRun load-balances DNS flows onto n engines by flow hash (the
// vthread-ID scheme of §3.2) and returns total dns.log lines.
func (h *harness) threadedDNSRun(n int) int {
	engines := make([]*bro.Engine, n)
	for i := range engines {
		engines[i] = newEngine(bro.Config{Parser: "binpac", ScriptExec: "interp",
			Scripts: []string{bro.DNSScript}, Quiet: true})
	}
	for _, p := range h.dnsTrace() {
		eth, _ := layers.DecodeEthernet(p.Data)
		ip, err := layers.DecodeIPv4(eth.Payload)
		if err != nil {
			continue
		}
		udp, err := layers.DecodeUDP(ip.Payload)
		if err != nil {
			continue
		}
		key := flowKeyUDP(ip, udp)
		engines[key%uint64(n)].ProcessPacket(p.Time.UnixNano(), p.Data)
	}
	total := 0
	for _, e := range engines {
		e.Finish()
		total += len(e.Logs.Lines("dns"))
	}
	return total
}

func flowKeyUDP(ip layers.IPv4, udp layers.UDP) uint64 {
	k := flowKey(ip.Src, ip.Dst, udp.SrcPort, udp.DstPort)
	return k
}

func flowKey(src, dst [4]byte, sp, dp uint16) uint64 {
	// Direction-independent FNV, as the HILTI scheduler would compute.
	a := uint64(src[0])<<24 | uint64(src[1])<<16 | uint64(src[2])<<8 | uint64(src[3])
	b := uint64(dst[0])<<24 | uint64(dst[1])<<16 | uint64(dst[2])<<8 | uint64(dst[3])
	x, y := a<<16|uint64(sp), b<<16|uint64(dp)
	if x > y {
		x, y = y, x
	}
	h := uint64(14695981039346656037)
	for _, v := range []uint64{x, y} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= 1099511628211
		}
	}
	return h
}

// --- post-lowering optimizer ----------------------------------------------------

// optimizeProgram runs the optimizer over every distinct compiled function
// of an -O0-linked program, accumulating per-pass statistics. Functions are
// deduplicated by pointer (hook bodies alias Funcs entries).
func optimizeProgram(p *vm.Program) vm.OptStats {
	var st vm.OptStats
	seen := map[*vm.CompiledFunc]bool{}
	opt := func(fn *vm.CompiledFunc) {
		if fn == nil || seen[fn] {
			return
		}
		seen[fn] = true
		st.Add(vm.Optimize(fn, 1))
	}
	for _, fn := range p.Funcs {
		opt(fn)
	}
	for _, bodies := range p.HookBodies {
		for _, fn := range bodies {
			opt(fn)
		}
	}
	return st
}

// filterRun pushes the HTTP trace through a linked filter program, returning
// match count, executed VM instructions, and elapsed time.
func filterRun(ex *vm.Exec, fn *vm.CompiledFunc, pkts []pcap.Packet) (matches int, steps uint64, el time.Duration) {
	rope := hbytes.New()
	start := time.Now()
	for _, p := range pkts {
		rope.Reset(p.Data)
		v, err := ex.CallFn(fn, values.BytesVal(rope))
		must(err)
		if v.AsBool() {
			matches++
		}
		steps += ex.Steps()
	}
	return matches, steps, time.Since(start)
}

// vmopt reports what the post-lowering optimizer (internal/hilti/vm/opt.go)
// does to the §6.2 filter and §6.3 firewall programs: static instruction
// counts before and after, per-pass contributions, and differential runs
// asserting identical results at -O0 and -O1. The instruction-count and
// result-identity checks are deterministic, so CI can fail on optimizer
// regressions without depending on wall time; any violation exits nonzero.
func (h *harness) vmopt(chk *checker) {
	// §6.2 filter program, linked at -O0 twice; the optimizer then runs
	// over the second copy.
	pkts := h.httpTrace()
	_, mod := filterProgs()
	_, ex0, fn0 := linkFilter(mod, 0)
	progO, exO, fnO := linkFilter(mod, 0)
	st := optimizeProgram(progO)

	fmt.Printf("    BPF filter, static instructions: %d -> %d (-%.1f%%)\n",
		st.Before, st.After, 100*(1-float64(st.After)/float64(st.Before)))
	fmt.Printf("    pass contributions: folded=%d copies-propagated=%d jumps-threaded=%d cmp+br-fused=%d unreachable-removed=%d\n",
		st.Folded, st.Copies, st.Threaded, st.Fused, st.Removed)

	m0, s0, t0 := filterRun(ex0, fn0, pkts)
	mO, sO, tO := filterRun(exO, fnO, pkts)
	fmt.Printf("    -O0: %d matches, %.1f instrs/pkt, %v/pkt\n",
		m0, float64(s0)/float64(len(pkts)), (t0 / time.Duration(len(pkts))).Round(time.Nanosecond))
	fmt.Printf("    -O1: %d matches, %.1f instrs/pkt, %v/pkt  (%.2fx faster)\n",
		mO, float64(sO)/float64(len(pkts)), (tO / time.Duration(len(pkts))).Round(time.Nanosecond),
		float64(t0)/float64(tO))
	chk.check(m0 == mO, fmt.Sprintf("filter match counts differ: -O0=%d -O1=%d", m0, mO))
	chk.check(st.After < st.Before, "optimizer did not reduce static instruction count")
	chk.check(sO < s0, "optimizer did not reduce executed instruction count")
	h.residue(chk, mod)

	// Figure 9's BinPAC++ parsers, through the engine. Besides the log and
	// instruction-count checks this is where the VM's allocation-free
	// generic path is held: operand scratch on the frame shows at both
	// levels (the ceiling), tuple scalar replacement only at -O1 (strictly
	// fewer mallocs than -O0). Counts, not times, so CI can fail on them.
	parsers := func(level int, scripts, logged []string, pkts []pcap.Packet) (logs []string, instrs, mallocs, allocated float64) {
		atOptLevel(level, func() {
			reg := metrics.NewRegistry()
			e := newEngine(bro.Config{Parser: "binpac", ScriptExec: "interp", Scripts: scripts, Quiet: true, Metrics: reg})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e.ProcessTrace(pkts)
			e.Finish()
			runtime.ReadMemStats(&after)
			for _, s := range logged {
				logs = append(logs, e.Logs.Lines(s)...)
			}
			n := float64(len(pkts))
			instrs = reg.Value(metrics.Name("hilti_vm_instructions_total", "vm", "engine")) / n
			mallocs = float64(after.Mallocs-before.Mallocs) / n
			allocated = float64(after.TotalAlloc-before.TotalAlloc) / n
		})
		return logs, instrs, mallocs, allocated
	}
	for _, p := range []struct {
		name    string
		scripts []string
		streams []string
		pkts    []pcap.Packet
		ceiling float64 // mallocs per packet at -O1, whole engine
		bytes   float64 // bytes allocated per packet at -O1, whole engine; 0: unbounded
	}{
		{"HTTP", []string{bro.HTTPScript, bro.FilesScript}, []string{"http", "files"}, h.httpTrace(), httpMallocsCeiling, httpBytesCeiling},
		{"DNS", []string{bro.DNSScript}, []string{"dns"}, h.dnsTrace(), dnsMallocsCeiling, 0},
	} {
		l0, i0, a0, _ := parsers(0, p.scripts, p.streams, p.pkts)
		l1, i1, a1, b1 := parsers(1, p.scripts, p.streams, p.pkts)
		fmt.Printf("    BinPAC++ %s, %d packets, %d log lines: -O0 %.1f instrs/pkt %.1f mallocs/pkt; -O1 %.1f instrs/pkt %.1f mallocs/pkt %.0f B/pkt\n",
			p.name, len(p.pkts), len(l0), i0, a0, i1, a1, b1)
		chk.check(len(l0) > 0 && slices.Equal(l0, l1), p.name+" parser logs diverge between -O0 and -O1")
		chk.check(i1 < i0, p.name+" parser: optimizer did not reduce executed instruction count")
		chk.check(a1 < a0, p.name+" parser: -O1 does not allocate less than -O0 (tuple scalar replacement lost?)")
		chk.check(a1 <= p.ceiling, fmt.Sprintf("%s parser: %.1f mallocs/pkt at -O1 exceeds the ceiling of %.0f (operand scratch lost?)",
			p.name, a1, p.ceiling))
		chk.check(p.bytes == 0 || len(p.pkts) < bytesCeilingMinPkts || b1 <= p.bytes, fmt.Sprintf("%s parser: %.0f B/pkt at -O1 exceeds the ceiling of %.0f (segments copied again?)",
			p.name, b1, p.bytes))
	}
}

// residue prints, for each HILTI program the experiments run, linked at
// -O1, what still takes a generic path (vm.Residue): struct field accesses
// by index and on the name path, and static instructions whose executor
// gathers operands through Exec.operands (variadic ops, host calls,
// hook.run). Lowering leaves a field access on the name path only when its
// struct operand has type any; these programs declare the type of every
// struct operand, so any name-path access fails.
func (h *harness) residue(chk *checker, filter *ast.Module) {
	fw, err := firewall.Compile(fwRules(), 5*time.Minute)
	must(err)
	httpG, err := grammars.HTTPModules()
	must(err)
	dnsG, err := grammars.DNSModules()
	must(err)
	compiled := func(srcs ...string) []*ast.Module {
		var parsed []*bro.Script
		for _, src := range srcs {
			s, err := bro.ParseScript(src)
			must(err)
			parsed = append(parsed, s)
		}
		mod, err := bro.CompileScripts(parsed...)
		must(err)
		return []*ast.Module{mod}
	}
	for _, p := range []struct {
		name string
		mods []*ast.Module
	}{
		{"filter", []*ast.Module{filter}}, {"firewall", []*ast.Module{fw}},
		{"HTTP grammar", httpG}, {"DNS grammar", dnsG},
		{"HTTP scripts", compiled(bro.HTTPScript, bro.FilesScript)}, {"DNS scripts", compiled(bro.DNSScript)},
	} {
		prog, err := vm.LinkWith(vm.Options{OptLevel: 1}, p.mods...)
		must(err)
		res := prog.Residue()
		fmt.Printf("    residue, %s: %d field accesses by index, %d by name; %d instructions gather operands\n",
			p.name, res.IndexFields, res.NameFields, res.Gathering)
		chk.check(res.NameFields == 0, fmt.Sprintf("%s: %d struct field accesses on the name path", p.name, res.NameFields))
	}
}

// dnsMallocsCeiling bounds heap objects per DNS datagram for the whole
// engine (BinPAC++ parser, interpreted dns.bro, logs kept) at -O1: 26.1
// when it was set, plus 10% (44.6 before the interpreter probed tables in
// place and borrowed its index and argument lists, 56.3 before the parse's
// values were recycled, 62.9 before a struct, tuple, sized vector or `new
// bytes` rope was one object; 93.8 before name labels were appended
// straight from the datagram). A boxed tuple per custom-function call
// (parse_name returning through two registers) would add 4.3, one operand
// array per generic instruction 40.7; a parse that stops recycling
// (vm.Exec.Recycle refusing DNS::parse_Message) adds 11.7, a key string
// per table probe 5.9.
const dnsMallocsCeiling = 29

// httpMallocsCeiling is the same bound per HTTP packet (BinPAC++ parser,
// interpreted http.bro and files.bro): 9.9 at -O1 over the CI step's 200
// sessions when it was set, plus 10% (13.9 before a message's parse was
// recycled, 18.2 before the interpreter probed tables in place and borrowed
// its index and argument lists, 19.5 while every connection started both
// parses when it opened).
const httpMallocsCeiling = 11

// httpBytesCeiling bounds the bytes the same run allocates per HTTP packet
// (TotalAlloc): 513 at -O1 over the CI step's 200 sessions when it was
// set, plus 10%. It was 969 before a message's parse was recycled, 1,048
// before the interpreter probed tables in place and borrowed its index and
// argument lists, 1,383 while each segment was copied into its rope and
// every connection started both parses when it opened; a lost loan
// (vm.Exec.Lend) alone would add ~240. It holds on traces of at least
// bytesCeilingMinPkts packets: what an engine allocates once — its tables
// and buffers growing — weighs more per packet on a shorter one (712 B over
// 40 sessions).
const httpBytesCeiling = 565

const bytesCeilingMinPkts = 2000

// --- tiered execution -------------------------------------------------------------

// tier is the tier-2 execution harness: planned overlay reads and fused
// overlay compares (internal/hilti/vm/tier2.go) must keep every observable
// byte identical to O0/O1 while closing the §6.2 HILTI/BPF gap. Three parts: (1) the filter at every level against the
// BPF reference, with exact executed-instruction parity between O1 and
// tier-2 and a time-ratio ceiling; (2) the runtime promotion path —
// promote mid-stream to the same lowering eager O2 builds, results
// unchanged; (3) an engine run on compiled scripts with a checkpoint/
// kill/restore cut while every function is tier-2 promoted, byte-identical
// logs against the uninterrupted O1 baseline. Violations exit nonzero.
func (h *harness) tier(chk *checker) {
	// 1. §6.2 filter at O0/O1/tier-2 vs the BPF reference interpreter;
	// times are min-of-3 against scheduler noise.
	pkts := h.httpTrace()
	bprog, mod := filterProgs()
	var bpfMatches int
	bpfTime := minTime(3, func() { bpfMatches = bpfRun(bprog, pkts) })[0]
	fmt.Printf("    BPF interpreter: %d/%d matches, %v/pkt\n",
		bpfMatches, len(pkts), (bpfTime / time.Duration(len(pkts))).Round(time.Nanosecond))

	times := make(map[int]time.Duration)
	steps := make(map[int]uint64)
	var eagerLowering string
	for _, lvl := range []int{0, 1, 2} {
		_, ex, fn := linkFilter(mod, lvl)
		var m int
		var s uint64
		el := minTime(3, func() { m, s, _ = filterRun(ex, fn, pkts) })[0]
		times[lvl], steps[lvl] = el, s
		label := fmt.Sprintf("O%d", lvl)
		if lvl == 2 {
			label = "tier2"
			chk.check(fn.TierActive(), "O2 link did not activate tier-2 on the filter")
			eagerLowering = tierLowering(fn)
			fmt.Printf("    tier-2 lowering (eager O2): %s\n", eagerLowering)
		}
		fmt.Printf("    HILTI %-6s %d matches, %.1f instrs/pkt, %v/pkt, %.2fx BPF\n",
			label+":", m, float64(s)/float64(len(pkts)),
			(el / time.Duration(len(pkts))).Round(time.Nanosecond), float64(el)/float64(bpfTime))
		chk.check(m == bpfMatches, fmt.Sprintf("%s match count %d != BPF %d", label, m, bpfMatches))
	}
	// A fused pair charges both of its halves: the instruction ledger at
	// tier-2 must equal O1's to the step.
	chk.check(steps[2] == steps[1], fmt.Sprintf(
		"executed-instruction ledger diverged: O1=%d tier2=%d", steps[1], steps[2]))
	ceiling := recordedCeiling(chk, "tier-2/BPF", *tierBaseline, *tierCeiling, "benchmarks", func(rows []benchRow) float64 {
		var bpfNs, tierNs float64
		for _, r := range rows {
			switch r.Name {
			case "bpf_interpreter":
				bpfNs = r.NsPerPkt
			case "hilti_filter_tier2":
				tierNs = r.NsPerPkt
			}
		}
		return tierNs / bpfNs
	})
	ratio := float64(times[2]) / float64(bpfTime)
	fmt.Printf("    tier-2/BPF time ratio: %.2fx (ceiling %.2fx; paper no-stub target: 1.35x)\n",
		ratio, ceiling)
	// What makes tier-2 fast, held by counts: eager O2 builds the pinned
	// lowering, and the filter loop executes its fused overlay pairs. A
	// lowering that stops fusing fails here at any scale; the wall-clock
	// checks after it run only on a trace long enough to time.
	_, exP, fnP := linkFilter(mod, 2)
	exP.EnableOpcodeProfile()
	filterRun(exP, fnP, pkts)
	var fused uint64
	for op, n := range exP.OpcodeProfile() {
		if strings.HasPrefix(op, "overlay.get+") {
			fused += n
		}
	}
	fmt.Printf("    tier-2 fused overlay pairs executed: %.2f/pkt\n", float64(fused)/float64(len(pkts)))
	chk.check(eagerLowering == tierFilterLowering, fmt.Sprintf("eager O2 lowering of the filter is %q, want %q", eagerLowering, tierFilterLowering))
	chk.check(fused > 0, "tier-2 executed no fused overlay pair on the filter loop")
	if len(pkts) >= minTimedPackets {
		chk.check(ratio <= ceiling, fmt.Sprintf("tier-2/BPF ratio %.2fx above ceiling %.2fx", ratio, ceiling))
		chk.check(times[2] < times[1], "tier-2 not faster than O1 on the filter loop")
	} else {
		fmt.Printf("    time ratio not asserted: %d packets, fewer than %d\n", len(pkts), minTimedPackets)
	}

	// 2. Runtime promotion: start at O1, promote mid-stream to the lowering
	// eager O2 built, identical results before and after the tier switch.
	_, ex1, fn1 := linkFilter(mod, 1)
	ex1.EnableTiering(64)
	mCold, _, _ := filterRun(ex1, fn1, pkts)
	chk.check(fn1.TierActive(), "hot filter never promoted by runtime tiering")
	promoted := tierLowering(fn1)
	fmt.Printf("    tier-2 lowering (promoted): %s\n", promoted)
	chk.check(promoted == eagerLowering, "runtime promotion built a different lowering than eager O2")
	mHot, _, _ := filterRun(ex1, fn1, pkts)
	chk.check(mCold == bpfMatches && mHot == bpfMatches, fmt.Sprintf(
		"promotion changed results: cold=%d hot=%d want=%d", mCold, mHot, bpfMatches))
	fmt.Printf("    runtime promotion: threshold 64 invocations; matches identical across the tier switch (%d)\n", mHot)

	// 2b. The stateful firewall through the same promotion path: its
	// match_packet function profiles hot, promotes mid-stream, and the
	// full decision stream (order matters: the dynamic reverse-allow
	// state is history-dependent) must be byte-identical at O0, O1,
	// eager O2, and under runtime promotion.
	fwIn := h.fwInputs()
	fwAt := func(lvl int) (fw *firewall.Firewall) {
		atOptLevel(lvl, func() { fw = newFirewall() })
		return fw
	}
	decide := func(fw *firewall.Firewall) []byte {
		out := make([]byte, len(fwIn))
		for i, in := range fwIn {
			ok, err := fw.Match(in.ts, in.src, in.dst)
			must(err)
			if ok {
				out[i] = 1
			}
		}
		return out
	}
	d0 := decide(fwAt(0))
	d1 := decide(fwAt(1))
	d2 := decide(fwAt(2))
	fwTier := fwAt(1)
	fwTier.EnableTiering(64)
	dT := decide(fwTier)
	chk.check(fwTier.TierActive(), "hot firewall never promoted by runtime tiering")
	chk.check(bytes.Equal(d0, d1) && bytes.Equal(d1, d2) && bytes.Equal(d2, dT),
		"firewall decision streams diverge across tiers")
	fmt.Printf("    firewall: %d packets, decision stream byte-identical at O0/O1/eager-O2/runtime-promoted\n", len(fwIn))

	// 3. Compiled-script engine with a kill/restore cut while promoted:
	// every HILTI function runs tier-2 (eager O2), the engine is
	// checkpointed mid-trace, discarded, restored, and finished — logs must
	// be byte-identical to the uninterrupted O1 run.
	pkts2 := h.mergedTrace()
	cfg := stdConfig("hilti")
	engineAt := func(lvl int) (e *bro.Engine) {
		atOptLevel(lvl, func() { e = newEngine(cfg) })
		return e
	}
	base := engineAt(1)
	base.ProcessTrace(pkts2)
	full := engineAt(2)
	full.ProcessTrace(pkts2)

	cut := len(pkts2) / 2
	e1 := engineAt(2)
	process(e1, pkts2[:cut])
	var buf bytes.Buffer
	must(e1.Checkpoint(&buf))
	var e2 *bro.Engine
	atOptLevel(2, func() {
		var err error
		e2, err = bro.RestoreEngine(cfg, bytes.NewReader(buf.Bytes()))
		must(err)
	})
	process(e2, pkts2[cut:])
	e2.Finish()
	checkStreams(chk, "engine at tier-2 vs O1", base.Logs.Lines, full.Logs.Lines)
	checkStreams(chk, fmt.Sprintf("engine at tier-2 across kill/restore at packet %d", cut), base.Logs.Lines, e2.Logs.Lines)
}

// minTimedPackets is the shortest trace on which the tier experiment
// asserts its wall-clock checks. At 40 HTTP sessions (558 packets) a timed
// pass of the filter lasts ~170 µs, and min-of-3 could not hold a time
// ratio: on a loaded 2-vCPU machine 3 of 19 runs failed. CI's tier stage
// runs 200 sessions (~2,800 packets).
const minTimedPackets = 2000

// tierFilterLowering is tierLowering of the §6.2 filter at eager O2: each of
// its four field compares is one fused overlay pair.
const tierFilterLowering = "4 overlay pairs, 4 overlay accesses specialized"

// tierLowering summarises what tier-2 lowering did to fn, or says that fn
// runs tier-1 code.
func tierLowering(fn *vm.CompiledFunc) string {
	st, ok := fn.Tier2Stats()
	if !ok {
		return "none (tier-1)"
	}
	return fmt.Sprintf("%d overlay pairs, %d overlay accesses specialized", st.Pairs, st.Overlay)
}

// --- machine-readable benchmark output --------------------------------------------

// benchRow is one configuration in the -bench-json output. ns_per_op and
// allocs_per_op cover one full trace pass; the per-packet figures divide by
// the packet count.
type benchRow struct {
	Name         string  `json:"name"`
	OptLevel     int     `json:"opt_level"`
	Packets      int     `json:"packets"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	NsPerPkt     float64 `json:"ns_per_pkt"`
	StaticInstrs int     `json:"static_instrs,omitempty"`
	InstrsPerPkt float64 `json:"instrs_per_pkt,omitempty"`
}

func bench(row benchRow, pkts int, fn func()) benchRow {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	row.Packets = pkts
	row.NsPerOp = float64(r.NsPerOp())
	row.AllocsPerOp = r.AllocsPerOp()
	row.BytesPerOp = r.AllocedBytesPerOp()
	row.NsPerPkt = row.NsPerOp / float64(pkts)
	return row
}

// writeBenchJSON measures the §6.2 and §6.3 configurations with the testing
// package's benchmark harness and writes one JSON document, the input for
// EXPERIMENTS.md refreshes and offline regression tracking.
func (h *harness) writeBenchJSON(path string) {
	pkts := h.httpTrace()
	var rows []benchRow

	// §6.2: BPF interpreter baseline.
	bprog, mod := filterProgs()
	rows = append(rows, bench(benchRow{Name: "bpf_interpreter"}, len(pkts), func() { bpfRun(bprog, pkts) }))

	// §6.2: the HILTI filter at every optimization level, including the
	// eager tier-2 configuration ("hilti_filter_tier2" — the row the tier
	// experiment's ratio ceiling is calibrated against).
	for _, lvl := range []int{0, 1, 2} {
		prog, ex, fn := linkFilter(mod, lvl)
		_, steps, _ := filterRun(ex, fn, pkts)
		name := fmt.Sprintf("hilti_filter_O%d", lvl)
		if lvl == 2 {
			name = "hilti_filter_tier2"
		}
		row := bench(benchRow{
			Name:         name,
			OptLevel:     lvl,
			StaticInstrs: prog.StaticInstrCount(),
			InstrsPerPkt: float64(steps) / float64(len(pkts)),
		}, len(pkts), func() { filterRun(ex, fn, pkts) })
		rows = append(rows, row)
	}

	// §6.3: stateful firewall (HILTI vs hand-written baseline). Fresh
	// instances per iteration: the flow state is stateful by design.
	rules := fwRules()
	inputs := h.fwInputs()
	for _, lvl := range []int{0, 1} {
		atOptLevel(lvl, func() {
			rows = append(rows, bench(benchRow{Name: fmt.Sprintf("firewall_hilti_O%d", lvl), OptLevel: lvl}, len(inputs), func() {
				fw, err := firewall.New(rules, 5*time.Minute)
				must(err)
				for _, in := range inputs {
					if _, err := fw.Match(in.ts, in.src, in.dst); err != nil {
						must(err)
					}
				}
			}))
		})
	}
	rows = append(rows, bench(benchRow{Name: "firewall_baseline"}, len(inputs), func() {
		base := firewall.NewBaseline(rules, 5*time.Minute)
		for _, in := range inputs {
			base.Match(in.ts, in.src, in.dst)
		}
	}))

	out, err := json.MarshalIndent(struct {
		Rows []benchRow `json:"benchmarks"`
	}{rows}, "", "  ")
	must(err)
	must(os.WriteFile(path, append(out, '\n'), 0o644))
	fmt.Printf("wrote %d benchmark rows to %s\n", len(rows), path)
}

// recordedCeiling is the ceiling a time-ratio check holds: fixed, or, with
// a baseline file at path, twice the ratio recorded there. The ratio
// divides two independently noisy timings, so scheduler jitter compounds,
// while a real regression still lands well above the headroom. The file
// is a JSON object whose key holds the rows ratio reads.
func recordedCeiling[R any](chk *checker, what, path string, fixed float64, key string, ratio func([]R) float64) float64 {
	if path == "" {
		return fixed
	}
	var doc map[string][]R
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &doc)
	}
	rec := 0.0
	if err == nil {
		if rec = ratio(doc[key]); !(rec > 0) || math.IsInf(rec, 0) {
			err = fmt.Errorf("no usable %q rows", key)
		}
	}
	if err != nil {
		chk.check(false, fmt.Sprintf("%s baseline %s: %v", what, path, err))
		return fixed
	}
	fmt.Printf("    recorded baseline (%s): %s %.4gx -> ceiling %.4gx\n", path, what, rec, 2*rec)
	return 2 * rec
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkLedger holds the packet-fate identity after a drain: each of the
// fed packets is in exactly one fate and none is left in flight.
func checkLedger(chk *checker, l pipeline.Ledger, fed int) {
	chk.check(l.Balanced() && l.InFlight == 0 && l.Offered == uint64(fed),
		fmt.Sprintf("packet-fate ledger: fed %d, offered %d, in flight %d, fates %v (sum %d)",
			fed, l.Offered, l.InFlight, l.Fates, l.Fates.Sum()))
}

// checkLogs is the log oracle: got must equal want line for line. A
// divergence is one failed check naming label, followed by the lines
// missing from got and the lines got has extra, each in input order.
func checkLogs(chk *checker, label string, want, got []string) bool {
	if slices.Equal(want, got) {
		chk.check(true, label)
		return true
	}
	chk.check(false, fmt.Sprintf("%s diverged (%d lines, want %d)", label, len(got), len(want)))
	extra := map[string]int{}
	for _, l := range got {
		extra[l]++
	}
	for _, l := range want {
		if extra[l] > 0 {
			extra[l]--
		} else {
			fmt.Printf("      missing: %q\n", l)
		}
	}
	for _, l := range got {
		if extra[l] > 0 {
			extra[l]--
			fmt.Printf("      extra:   %q\n", l)
		}
	}
	return false
}

// checkStreams holds the log oracle on every stream and, when all hold,
// says so in one line.
func checkStreams(chk *checker, label string, want, got func(stream string) []string) {
	ok, lines := true, 0
	for _, s := range streams {
		ok = checkLogs(chk, label+": "+s+".log", want(s), got(s)) && ok
		lines += len(want(s))
	}
	if ok {
		fmt.Printf("    %s: %s logs byte-identical (%d lines)\n", label, strings.Join(streams, "/"), lines)
	}
}

// checker collects an experiment's invariant checks. A failed check prints
// one FAIL line and the experiment goes on, so a run reports every
// violation; done then exits 1, or prints the experiment's success line
// if it checked anything.
type checker struct{ failed, checked bool }

func (c *checker) check(ok bool, what string) {
	c.checked = true
	if !ok {
		c.failed = true
		fmt.Printf("    FAIL: %s\n", what)
	}
}

func (c *checker) done(held string) {
	if c.failed {
		osExit(1)
		return
	}
	if c.checked {
		fmt.Println(held)
	}
}

// osExit is os.Exit; tests replace it to observe a failing experiment.
var osExit = os.Exit

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hilti-bench:", err)
		os.Exit(1)
	}
}

// --- observability ---------------------------------------------------------------

// observeProgram is a minimal HILTI program exercising the paper's §3.3
// profiler instructions; the observe experiment asserts its profilers are
// visible on a live metrics endpoint with no host-side plumbing.
const observeProgram = `
module Observe

import Hilti

void run () {
    profiler.start "observe"
    profiler.update "observe" 7
    profiler.stop "observe"
}
`

// observe is the observability harness: one registry watches a parallel
// pipeline run, and deterministic accounting invariants are asserted over
// the scraped values (not the internal state), so any instrumentation
// drift — a missed increment, a reset on restore, a double-registration —
// fails the run. Four parts: (1) accounting identities on a clean trace,
// (2) counter continuity across pipeline kill/checkpoint/restore into the
// same registry, (3) HILTI-program profilers visible over HTTP, and
// (4) the instrumentation overhead bound on the §6.2 filter hot loop.
func (h *harness) observe(chk *checker) {
	pkts := h.mergedTrace()
	const workers = 4
	cfg := stdConfig("interp")

	// 1. Accounting identities. Every value below is read back from the
	//    registry the way a scraper would see it (collectors summed by
	//    series name), then checked against ground truth.
	reg := h.metricsReg()
	cfg.Metrics = reg
	par, err := bro.NewParallelWith(cfg, pipeline.Config{Workers: workers})
	must(err)
	feed(par, pkts)
	var ckbuf bytes.Buffer
	must(par.Checkpoint(&ckbuf))
	par.Close()

	fed := reg.Value("pipeline_packets_fed_total")
	shardSum := 0.0
	for i := 0; i < workers; i++ {
		shardSum += reg.Value(metrics.Name("pipeline_shard_packets_total", "worker", fmt.Sprint(i)))
	}
	opened := reg.Value("bro_flows_opened_total")
	closed := reg.Value("bro_flows_closed_total")
	active := reg.Value("bro_flows_active")
	fmt.Printf("    pipeline: fed=%.0f shard-sum=%.0f engines-saw=%.0f (trace: %d packets)\n",
		fed, shardSum, reg.Value("bro_packets_total"), len(pkts))
	fmt.Printf("    flows: opened=%.0f closed=%.0f active=%.0f; events=%.0f log-lines=%.0f\n",
		opened, closed, active, reg.Value("bro_events_total"), reg.Value("bro_log_lines_total"))
	ledger := par.Ledger()
	checkLedger(chk, ledger, len(pkts))
	chk.check(fed == float64(par.Fed()) && shardSum == float64(ledger.Fates[admission.FateProcessed]),
		fmt.Sprintf("registry says fed %.0f, shards processed %.0f; the fate ledger says %d and %v",
			fed, shardSum, par.Fed(), ledger.Fates))
	chk.check(reg.Value("bro_packets_total") == fed,
		fmt.Sprintf("engines saw %.0f packets, pipeline fed %.0f", reg.Value("bro_packets_total"), fed))
	chk.check(opened == closed+active, fmt.Sprintf("flow ledger broken: opened %.0f != closed %.0f + active %.0f",
		opened, closed, active))
	chk.check(opened > 0, "no flows opened on a non-empty trace")
	var engEvents, engLines float64
	for _, e := range par.Engines {
		engEvents += float64(e.StatsSnapshot().Events)
		engLines += float64(len(e.Logs.Lines("http")) + len(e.Logs.Lines("files")) + len(e.Logs.Lines("dns")))
	}
	chk.check(reg.Value("bro_events_total") == engEvents,
		fmt.Sprintf("registry events %.0f != engine sum %.0f", reg.Value("bro_events_total"), engEvents))
	chk.check(reg.Value("bro_log_lines_total") == engLines,
		fmt.Sprintf("registry log lines %.0f != kept lines %.0f", reg.Value("bro_log_lines_total"), engLines))
	ckCount := reg.Value("pipeline_checkpoint_ns_count")
	chk.check(ckCount >= workers, fmt.Sprintf("checkpoint latency histogram has %.0f samples, want >= %d shards",
		ckCount, workers))
	fmt.Printf("    checkpoint latency: %.0f samples, mean %v/shard\n",
		ckCount, (time.Duration(reg.Value("pipeline_checkpoint_ns_sum")/ckCount) * time.Nanosecond).Round(time.Microsecond))

	// 2. Continuity across crash-only restart: checkpoint, kill, restore
	//    into the SAME registry. The restored engines re-register under
	//    their old keys (replacement, not addition) and carry their
	//    checkpointed counters, so the series neither resets nor
	//    double-counts.
	reg2 := metrics.NewRegistry()
	cfg2 := cfg
	cfg2.Metrics = reg2
	cut := len(pkts) / 2
	par1, err := bro.NewParallelWith(cfg2, pipeline.Config{Workers: workers})
	must(err)
	feed(par1, pkts[:cut])
	var buf bytes.Buffer
	must(par1.Checkpoint(&buf))
	par1.Kill()
	atKill := reg2.Value("bro_packets_total")
	par2, err := bro.RestoreParallelWith(cfg2, pipeline.Config{Workers: workers}, bytes.NewReader(buf.Bytes()))
	must(err)
	afterRestore := reg2.Value("bro_packets_total")
	chk.check(afterRestore == atKill, fmt.Sprintf(
		"restore broke continuity: bro_packets_total %.0f before kill, %.0f after restore", atKill, afterRestore))
	par2.ProcessTrace(pkts[cut:])
	final := reg2.Value("bro_packets_total")
	fmt.Printf("    continuity: %.0f pkts at kill == %.0f after restore; %.0f final (no reset, no double-count)\n",
		atKill, afterRestore, final)
	chk.check(final == float64(len(pkts)), fmt.Sprintf(
		"monotonic counter ended at %.0f across the restart, want %d", final, len(pkts)))
	o2, c2, a2 := reg2.Value("bro_flows_opened_total"), reg2.Value("bro_flows_closed_total"), reg2.Value("bro_flows_active")
	chk.check(o2 == c2+a2, fmt.Sprintf("flow ledger broken after restart: opened %.0f != closed %.0f + active %.0f", o2, c2, a2))

	// 3. Profiler instructions are first-class: a HILTI program's
	//    profiler.start/update/stop show up on a live endpoint, named,
	//    with no host-side plumbing beyond PublishTo.
	prog, err := hilti.CompileSource(observeProgram)
	must(err)
	ex, err := hilti.NewExec(prog)
	must(err)
	reg3 := metrics.NewRegistry()
	ex.Profs.PublishTo(reg3, "hilti/program", "module", "Observe")
	ex.PublishTo(reg3, "hilti/vm", "vm", "observe")
	_, err = ex.Call("Observe::run")
	must(err)
	ex.Met.Sync()
	addr, err := reg3.Serve("127.0.0.1:0")
	must(err)
	resp, err := http.Get("http://" + addr + "/metrics")
	must(err)
	body, err := io.ReadAll(resp.Body)
	must(err)
	resp.Body.Close()
	page := string(body)
	wantSeries := []string{
		`hilti_profiler_updates_total{name="observe",module="Observe"} 7`,
		`hilti_profiler_intervals_total{name="observe",module="Observe"} 1`,
		`hilti_vm_invocations_total{vm="observe"} 1`,
	}
	for _, s := range wantSeries {
		chk.check(strings.Contains(page, s), fmt.Sprintf("metrics endpoint missing %q", s))
	}
	fmt.Printf("    profiler: HILTI program's profiler.start/update/stop scraped at http://%s/metrics\n", addr)

	// 4. Overhead bound: the §6.2 filter hot loop with and without VM
	//    instrumentation attached, min-of-7 interleaved so scheduler noise
	//    cancels. The instrumented path adds two uncontended atomic RMWs
	//    per invocation; the budget is ~3% (plus a small absolute floor
	//    for timer jitter on fast runs). One round still trips on noise
	//    about once in ten runs, so the bound fails only when three
	//    independent rounds all exceed it.
	fpkts := h.httpTrace()
	_, mod := filterProgs()
	_, exOff, fnOff := linkFilter(mod, vm.DefaultOptLevel())
	_, exOn, fnOn := linkFilter(mod, vm.DefaultOptLevel())
	exOn.AttachMetrics()
	const rounds, reps = 3, 7
	over := 0
	for r := 1; r <= rounds; r++ {
		t := minTime(reps, func() { filterRun(exOff, fnOff, fpkts) }, func() { filterRun(exOn, fnOn, fpkts) })
		minOff, minOn := t[0], t[1]
		verdict := "within"
		if minOn > minOff+minOff*3/100+time.Duration(5*len(fpkts))*time.Nanosecond {
			over, verdict = over+1, "over"
		}
		fmt.Printf("    overhead round %d/%d: filter loop %v/pkt bare, %v/pkt instrumented (%+.2f%%, %s budget)\n",
			r, rounds, (minOff / time.Duration(len(fpkts))).Round(time.Nanosecond),
			(minOn / time.Duration(len(fpkts))).Round(time.Nanosecond), 100*(float64(minOn)/float64(minOff)-1), verdict)
	}
	chk.check(over < rounds, fmt.Sprintf("instrumentation overhead exceeds the ~3%% budget in all %d rounds", rounds))
	exOn.Met.Sync()
	chk.check(exOn.Met.Invocations.Load() >= uint64(rounds*reps*len(fpkts)), "instrumented run did not count its invocations")
}

// --- overload control: adversarial soak --------------------------------------------

// soakGenCfg derives the soak trace parameters from the flags. The
// injector ports make a small fraction of flows actively hostile
// (panicking and budget-exhausting analyzers); stall traffic is excluded
// because supervisor recovery is wall-clock-driven and would break the
// seed-determinism invariant below.
func soakGenCfg() gen.SoakConfig {
	cfg := gen.DefaultSoakConfig()
	cfg.Seed = *seed
	cfg.Duration = *soakDuration
	cfg.BaseRate = *soakRate
	cfg.TargetFlows = *soakFlows
	cfg.OverloadFactor = *soakFactor
	cfg.Clients = 1000
	cfg.Servers = 100
	cfg.FaultFraction = 0.002
	cfg.PanicPort = 31337
	cfg.LoopPort = 31007
	return cfg
}

// soakResult is what one full soak feed yields, for invariant checks and
// the twin-run determinism comparison.
type soakResult struct {
	ledger      admission.Ledger
	transitions []admission.Transition
	finalState  admission.State
	events      int
	fates       pipeline.Ledger
	fed         int
	faults      uint64
	evicted     uint64
	quarFlows   uint64
	restarts    uint64
	liveFlows   int64
	maxHeap     uint64
	maxLive     int64
	p99FeedNs   int64
	enter, exit admission.Ledger // ledger at overload-window entry/exit
	sawShedding bool
}

// soakFeed builds a parallel engine host (with or without the admission
// controller) and drives the full soak stream through it, sampling heap
// and flow-table highwater marks along the way.
func (h *harness) soakFeed(chk *checker, withAdmission bool, stallTimeout time.Duration, reg *metrics.Registry) soakResult {
	scfg := soakGenCfg()
	ecfg := bro.Config{
		Parser: "standard", ScriptExec: "interp",
		Scripts: []string{bro.HTTPScript, bro.DNSScript},
		Quiet:   true, DiscardLogs: true,
		PanicPort: scfg.PanicPort, LoopPort: scfg.LoopPort,
		ReassemblyBudget: 1 << 20,
		Metrics:          reg,
	}
	pcfg := pipeline.Config{
		Workers:      4,
		MaxFlows:     *soakFlows * 6,
		FlowIdle:     timer.Seconds(5),
		ExpireFlows:  true,
		StallTimeout: stallTimeout,
	}
	var adm *admission.Controller
	if withAdmission {
		// Target just above the base rate: the steady state sits below the
		// recover threshold (healthy), the 2x window lands in shedding.
		adm = admission.NewController(admission.Config{
			TargetRate: *soakRate * 1.2,
			// Generous buckets: the brakes exist (and are exercised by the
			// unit tests) but must not fire here, so the window invariant
			// "no established packet lost to rate limiting" is checkable.
			GlobalRate: int64(*soakRate) * 20, GlobalBurst: int64(*soakRate) * 20,
			PrefixRate: int64(*soakRate) * 4, PrefixBurst: int64(*soakRate) * 4,
			Metrics: reg,
		})
		pcfg.Admission = adm
	}
	par, err := bro.NewParallelWith(ecfg, pcfg)
	must(err)

	startNs := scfg.Start.UnixNano()
	durNs := scfg.Duration.Nanoseconds()
	fromNs := startNs + int64(scfg.OverloadFrom*float64(durNs))
	toNs := startNs + int64(scfg.OverloadTo*float64(durNs))

	// Feed-latency ladder: 1µs .. 1s, exponential.
	bounds := []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	hist := metrics.NewRegistry().Histogram("soak_feed_ns", bounds)

	var res soakResult
	var ms runtime.MemStats
	entered, exited := false, false
	s := gen.NewSoak(scfg)
	n := 0
	for {
		pkt, ok := s.Next()
		if !ok {
			break
		}
		ts := pkt.Time.UnixNano()
		if adm != nil {
			if !entered && ts >= fromNs {
				entered = true
				res.enter = adm.LedgerSnapshot()
			}
			if entered && !exited && ts >= toNs {
				exited = true
				res.exit = adm.LedgerSnapshot()
			}
		}
		t0 := time.Now()
		par.Feed(ts, pkt.Data) //nolint:errcheck
		hist.Observe(time.Since(t0).Nanoseconds())
		if n%50000 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > res.maxHeap {
				res.maxHeap = ms.HeapAlloc
			}
			var live int64
			for _, w := range par.Stats() {
				live += w.LiveFlows
			}
			if live > res.maxLive {
				res.maxLive = live
			}
		}
		n++
	}
	if adm != nil && !exited {
		res.exit = adm.LedgerSnapshot()
	}
	par.Close()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > res.maxHeap {
		res.maxHeap = ms.HeapAlloc
	}
	for _, w := range par.Stats() {
		res.faults += w.Faults
		res.evicted += w.FlowsEvicted
		res.quarFlows += w.QuarantinedFlows
		res.liveFlows += w.LiveFlows
		if res.liveFlows > res.maxLive {
			res.maxLive = res.liveFlows
		}
	}
	res.fates, res.fed = par.Ledger(), n
	res.events = par.Events()
	res.restarts = par.Restarts()
	res.p99FeedNs = hist.Quantile(0.99)
	if adm != nil {
		res.ledger = adm.LedgerSnapshot()
		res.transitions = adm.Transitions()
		res.finalState = adm.State()
		for _, tr := range res.transitions {
			if tr.To == admission.Shedding {
				res.sawShedding = true
			}
		}
	}
	chk.check(res.liveFlows <= int64(par.EffectiveMaxFlows()),
		fmt.Sprintf("live flows %d exceed effective cap %d", res.liveFlows, par.EffectiveMaxFlows()))
	return res
}

// soak is the adversarial endurance harness for the overload controller:
// the full degradation ladder under a seeded hostile trace — new-flow
// floods at 2x the target rate, reassembly overlap attacks, malformed
// frames, protocol switches, and panicking/budget-blowing analyzers —
// with every robustness invariant asserted on the way out. Violations
// exit nonzero so CI catches regressions.
func (h *harness) soak(chk *checker) {
	scfg := soakGenCfg()
	fmt.Printf("    trace: %v at %.0f pkt/s base (x%.1f overload in [%.0f%%,%.0f%%]), %d concurrent flows, seed %d\n",
		scfg.Duration, scfg.BaseRate, scfg.OverloadFactor,
		100*scfg.OverloadFrom, 100*scfg.OverloadTo, scfg.TargetFlows, scfg.Seed)

	// Main run: admission on, supervisor armed (nothing should stall —
	// stall traffic is excluded — so zero restarts is itself an invariant).
	before := runtime.NumGoroutine()
	start := time.Now()
	res := h.soakFeed(chk, true, 2*time.Second, h.metricsReg())
	el := time.Since(start)
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	after := runtime.NumGoroutine()

	l := res.ledger
	fmt.Printf("    ledger: offered=%d admitted=%d shed=%d sampled=%d rate-limited=%d rejected=%d\n",
		l.Offered, l.Admitted, l.Shed, l.Sampled, l.RateLimited, l.Rejected)
	fmt.Printf("    processed %d pkts in %v wall (%.0f pkt/s); p99 feed latency %v\n",
		l.Offered, el.Round(time.Millisecond), float64(l.Offered)/el.Seconds(),
		time.Duration(res.p99FeedNs).Round(time.Microsecond))
	fmt.Printf("    heap highwater %d MiB (ceiling %d); flow-table highwater %d; faults contained %d, flows quarantined %d\n",
		res.maxHeap>>20, *soakMemMB, res.maxLive, res.faults, res.quarFlows)
	for _, tr := range res.transitions {
		fmt.Printf("    t=%6.1fs %s -> %s (tier %d, load %.2f)\n",
			float64(tr.AtNs-scfg.Start.UnixNano())/1e9, tr.From, tr.To, tr.Tier, tr.Ratio)
	}

	checkLedger(chk, res.fates, res.fed)
	chk.check(l.Balanced() && l.Offered == res.fates.Offered, fmt.Sprintf("admission view %+v out of step with the fate ledger", l))
	chk.check(res.maxHeap <= *soakMemMB<<20, fmt.Sprintf("heap %d MiB blew the %d MiB ceiling", res.maxHeap>>20, *soakMemMB))
	chk.check(res.sawShedding, "controller never reached Shedding during the overload window")
	chk.check(res.finalState == admission.Healthy,
		fmt.Sprintf("controller ended %v, want Healthy after load subsided", res.finalState))
	chk.check(res.restarts == 0, fmt.Sprintf("%d supervisor restarts on a stall-free trace", res.restarts))
	chk.check(after <= before+8, fmt.Sprintf("goroutine leak: %d before run, %d after Close", before, after))
	chk.check(res.faults > 0 && res.quarFlows > 0, "hostile analyzers never faulted (injection broken?)")
	chk.check(res.p99FeedNs < int64(250*time.Millisecond), "p99 feed latency above 250ms")

	// Established-flow survival: of every packet belonging to a flow the
	// pipeline had already admitted, >= 99% must be admitted too (the only
	// legitimate losses are flows quarantined after their analyzer
	// faulted). This is the acceptance bar: shedding hits new flows, not
	// the flows under analysis.
	survival := 1.0
	if l.EstOffered > 0 {
		survival = float64(l.EstAdmitted) / float64(l.EstOffered)
	}
	winShed := res.exit.Shed - res.enter.Shed
	winSampled := res.exit.Sampled - res.enter.Sampled
	winLimited := res.exit.RateLimited - res.enter.RateLimited
	fmt.Printf("    established survival: %d/%d packets (%.3f%%); overload window: +%d shed, +%d sampled, +%d rate-limited\n",
		l.EstAdmitted, l.EstOffered, 100*survival, winShed, winSampled, winLimited)
	chk.check(survival >= 0.99, fmt.Sprintf("established-flow survival %.4f below 0.99", survival))
	chk.check(winShed > 0, "overload window shed nothing (flood was admitted?)")
	chk.check(winSampled == 0, "packet sampling engaged below the sampling ratio")
	chk.check(winLimited == 0, "rate limiter fired despite generous buckets")

	// Seed determinism: admission decisions run on the feed goroutine in
	// trace time, so two runs of the same seed must produce identical
	// ledgers, transition logs, and analysis results. Supervision is off
	// here — it is the one wall-clock-driven component.
	r1 := h.soakFeed(chk, true, 0, nil)
	r2 := h.soakFeed(chk, true, 0, nil)
	same := r1.ledger == r2.ledger && slices.Equal(r1.transitions, r2.transitions) &&
		r1.events == r2.events && r1.faults == r2.faults && r1.fates == r2.fates
	chk.check(same, "twin runs of the same seed diverged (nondeterministic admission)")
	fmt.Printf("    determinism: twin runs identical (%d transitions, %d events, %d faults)\n",
		len(r1.transitions), r1.events, r1.faults)

	// Graceful shed vs hard drop: the same trace with no admission
	// controller. The flood then lands on the flow table, and the
	// evict-oldest cap throws established flows out to make room for
	// attack half-opens — the failure mode the ladder exists to prevent.
	hard := h.soakFeed(chk, false, 0, nil)
	checkLedger(chk, hard.fates, hard.fed)
	fmt.Printf("    %-22s %12s %12s %10s\n", "", "shed", "evicted", "events")
	fmt.Printf("    %-22s %12d %12d %10d\n", "graceful (admission):", res.fates.Fates[admission.FateShed], res.evicted, res.events)
	fmt.Printf("    %-22s %12d %12d %10d\n", "hard drop (cap only):", hard.fates.Fates[admission.FateShed], hard.evicted, hard.events)
	chk.check(res.evicted < hard.evicted || hard.evicted == 0,
		"admission run evicted as many established flows as the uncontrolled baseline")
}
