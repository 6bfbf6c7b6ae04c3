// Top-level benchmarks: one per table/figure of the paper's evaluation
// (see DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-
// measured numbers). `go test -bench=. -benchmem` at the repo root runs
// them all; `cmd/hilti-bench` prints the full formatted rows instead.
package hilti_test

import (
	"sort"
	"sync"
	"testing"

	"hilti"
	"hilti/internal/bpf"
	"hilti/internal/bro"
	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/fiber"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// --- shared traces (generated once) -------------------------------------------

var (
	traceOnce sync.Once
	httpPkts  []pcap.Packet
	dnsPkts   []pcap.Packet
)

func traces() ([]pcap.Packet, []pcap.Packet) {
	traceOnce.Do(func() {
		hc := gen.DefaultHTTPConfig()
		hc.Sessions = 200
		httpPkts = gen.GenerateHTTP(hc)
		dc := gen.DefaultDNSConfig()
		dc.Transactions = 2000
		dnsPkts = gen.GenerateDNS(dc)
	})
	return httpPkts, dnsPkts
}

func runEngine(b *testing.B, parser, scriptExec string, scripts []string, pkts []pcap.Packet) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e, err := bro.NewEngine(bro.Config{
			Parser: parser, ScriptExec: scriptExec, Scripts: scripts,
			Quiet: true, DiscardLogs: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.ProcessTrace(pkts)
	}
}

// --- §5: fibers ------------------------------------------------------------------

// BenchmarkFiberSwitch reproduces the §5 context-switch microbenchmark
// (paper: ~18M/s with setcontext; see EXPERIMENTS.md).
func BenchmarkFiberSwitch(b *testing.B) {
	f := fiber.New(func(f *fiber.Fiber, arg any) (any, error) {
		for {
			f.Yield(nil)
		}
	})
	f.Resume(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Resume(nil)
	}
	b.StopTimer()
	f.Abort()
}

// BenchmarkFiberLifecycle reproduces the §5 create/start/finish/delete
// cycle (paper: ~5M/s).
func BenchmarkFiberLifecycle(b *testing.B) {
	fn := func(f *fiber.Fiber, arg any) (any, error) { return nil, nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fiber.New(fn).Resume(nil)
	}
}

// --- §6.2: BPF -------------------------------------------------------------------

const benchFilter = "host 10.1.9.77 or src net 10.1.3.0/24"

// BenchmarkBPFFilterTrace interprets the filter with the classic BPF VM.
func BenchmarkBPFFilterTrace(b *testing.B) {
	pkts, _ := traces()
	e, _ := bpf.ParseFilter(benchFilter)
	prog, err := bpf.CompileBPF(e)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pkts {
			prog.Run(p.Data)
		}
	}
}

// BenchmarkHILTIFilterTrace runs the HILTI-compiled filter with the host
// stub (per-packet boxing), the paper's 1.70x configuration.
func BenchmarkHILTIFilterTrace(b *testing.B) {
	pkts, _ := traces()
	e, _ := bpf.ParseFilter(benchFilter)
	mod, err := bpf.CompileHILTI(e)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := hilti.Link(mod)
	if err != nil {
		b.Fatal(err)
	}
	ex, _ := hilti.NewExec(prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pkts {
			if _, err := ex.Call("Filter::filter", values.BytesFrom(p.Data)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHILTIFilterTraceNoStub is the 1.35x configuration: direct call,
// no per-packet marshalling.
func BenchmarkHILTIFilterTraceNoStub(b *testing.B) {
	pkts, _ := traces()
	e, _ := bpf.ParseFilter(benchFilter)
	mod, _ := bpf.CompileHILTI(e)
	prog, _ := hilti.Link(mod)
	ex, _ := hilti.NewExec(prog)
	fn := prog.Fn("Filter::filter")
	rope := hbytes.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pkts {
			rope.Reset(p.Data)
			if _, err := ex.CallFn(fn, values.BytesVal(rope)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHILTIFilterTraceNoStubTier2 is the same direct-call
// configuration with tier-2 code installed eagerly (O2): unboxed slots,
// superinstructions, and verified budget elision on the filter loop.
func BenchmarkHILTIFilterTraceNoStubTier2(b *testing.B) {
	pkts, _ := traces()
	e, _ := bpf.ParseFilter(benchFilter)
	mod, _ := bpf.CompileHILTI(e)
	prog, _ := hilti.LinkWith(hilti.Config{OptLevel: hilti.O2}, mod)
	ex, _ := hilti.NewExec(prog)
	fn := prog.Fn("Filter::filter")
	rope := hbytes.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pkts {
			rope.Reset(p.Data)
			if _, err := ex.CallFn(fn, values.BytesVal(rope)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- §6.4: protocol parsing (Figure 9) ---------------------------------------------

// BenchmarkParseHTTPStd: standard parsers + interpreted scripts on HTTP.
func BenchmarkParseHTTPStd(b *testing.B) {
	pkts, _ := traces()
	runEngine(b, "standard", "interp", []string{bro.HTTPScript, bro.FilesScript}, pkts)
}

// BenchmarkParseHTTPPac: BinPAC++/HILTI parsers on the same workload
// (paper: parsing 1.28x the standard parser's cycles).
func BenchmarkParseHTTPPac(b *testing.B) {
	pkts, _ := traces()
	runEngine(b, "binpac", "interp", []string{bro.HTTPScript, bro.FilesScript}, pkts)
}

// BenchmarkParseDNSStd: standard DNS parser + interpreted scripts.
func BenchmarkParseDNSStd(b *testing.B) {
	_, pkts := traces()
	runEngine(b, "standard", "interp", []string{bro.DNSScript}, pkts)
}

// BenchmarkParseDNSPac: BinPAC++ DNS parser (paper: 3.03x).
func BenchmarkParseDNSPac(b *testing.B) {
	_, pkts := traces()
	runEngine(b, "binpac", "interp", []string{bro.DNSScript}, pkts)
}

// --- §6.5: script execution (Figure 10 + fib) ----------------------------------------

// BenchmarkScriptsHTTPInterp: standard parsers + interpreter.
func BenchmarkScriptsHTTPInterp(b *testing.B) {
	pkts, _ := traces()
	runEngine(b, "standard", "interp", []string{bro.HTTPScript, bro.FilesScript}, pkts)
}

// BenchmarkScriptsHTTPHILTI: scripts compiled to HILTI (paper: 1.30x).
func BenchmarkScriptsHTTPHILTI(b *testing.B) {
	pkts, _ := traces()
	runEngine(b, "standard", "hilti", []string{bro.HTTPScript, bro.FilesScript}, pkts)
}

// BenchmarkScriptsDNSInterp: DNS scripts interpreted.
func BenchmarkScriptsDNSInterp(b *testing.B) {
	_, pkts := traces()
	runEngine(b, "standard", "interp", []string{bro.DNSScript}, pkts)
}

// BenchmarkScriptsDNSHILTI: DNS scripts compiled (paper: 6.9% faster).
func BenchmarkScriptsDNSHILTI(b *testing.B) {
	_, pkts := traces()
	runEngine(b, "standard", "hilti", []string{bro.DNSScript}, pkts)
}

// BenchmarkFibInterp is the §6.5 interpreter baseline.
func BenchmarkFibInterp(b *testing.B) {
	s, err := bro.ParseScript(bro.FibScript)
	if err != nil {
		b.Fatal(err)
	}
	ip := bro.NewInterp()
	if err := ip.Load(s); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.CallFunction("fib", bro.CountVal(20)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFibHILTI is the same function compiled to HILTI (paper:
// "orders of magnitude faster"; see EXPERIMENTS.md for our ratio).
func BenchmarkFibHILTI(b *testing.B) {
	s, _ := bro.ParseScript(bro.FibScript)
	mod, err := bro.CompileScripts(s)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := vm.Link(mod)
	if err != nil {
		b.Fatal(err)
	}
	ex, _ := vm.NewExec(prog)
	fn := prog.Fn("BroScripts::fib")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.CallFn(fn, values.Int(20)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3.2: flow-sharded parallel pipeline -------------------------------------------

func benchParallel(b *testing.B, workers int) {
	b.Helper()
	httpP, dnsP := traces()
	pkts := append(append([]pcap.Packet(nil), httpP...), dnsP...)
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time.Before(pkts[j].Time) })
	cfg := bro.Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{bro.HTTPScript, bro.FilesScript, bro.DNSScript},
		Quiet:   true, DiscardLogs: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := bro.NewParallel(cfg, workers)
		if err != nil {
			b.Fatal(err)
		}
		p.ProcessTrace(pkts)
	}
}

// BenchmarkParallelPipeline1/2/4 shard the merged HTTP+DNS trace by flow
// hash across worker engines (scaling shows with GOMAXPROCS >= workers).
func BenchmarkParallelPipeline1(b *testing.B) { benchParallel(b, 1) }
func BenchmarkParallelPipeline2(b *testing.B) { benchParallel(b, 2) }
func BenchmarkParallelPipeline4(b *testing.B) { benchParallel(b, 4) }
