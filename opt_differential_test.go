// Differential tests for the post-lowering optimizer: every host
// application must produce byte-identical output whether its HILTI code
// runs at -O0 or fully optimized. These are the end-to-end counterpart of
// the per-pass tests in internal/hilti/vm/opt_test.go.
package hilti_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hilti"
	"hilti/internal/binpac/grammars"
	"hilti/internal/bpf"
	"hilti/internal/bro"
	"hilti/internal/firewall"
	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/layers"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/reassembly"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// withOptLevel runs fn with the process-wide default optimizer level set,
// restoring it afterwards (host applications link through the default).
func withOptLevel(level int, fn func()) {
	prev := vm.DefaultOptLevel()
	hilti.SetDefaultOptLevel(level)
	defer hilti.SetDefaultOptLevel(prev)
	fn()
}

func TestOptDifferentialBPFFilter(t *testing.T) {
	httpPkts, _ := traces()
	e, err := bpf.ParseFilter("host 10.1.9.77 or src net 10.1.3.0/24")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bpf.CompileBPF(e)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := bpf.CompileHILTI(e)
	if err != nil {
		t.Fatal(err)
	}

	matchesAt := func(level hilti.OptLevel) []bool {
		prog, err := hilti.LinkWith(hilti.Config{OptLevel: level}, mod)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := hilti.NewExec(prog)
		if err != nil {
			t.Fatal(err)
		}
		fn := prog.Fn("Filter::filter")
		rope := hbytes.New()
		out := make([]bool, len(httpPkts))
		for i, p := range httpPkts {
			rope.Reset(p.Data)
			v, err := ex.CallFn(fn, values.BytesVal(rope))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v.AsBool()
		}
		return out
	}
	m0, m1, m2 := matchesAt(hilti.O0), matchesAt(hilti.O1), matchesAt(hilti.O2)
	for i := range m0 {
		if m0[i] != m1[i] || m1[i] != m2[i] {
			t.Fatalf("packet %d: -O0 match %v, -O1 match %v, -O2 match %v",
				i, m0[i], m1[i], m2[i])
		}
		if want := ref.Run(httpPkts[i].Data) != 0; m0[i] != want {
			t.Fatalf("packet %d: HILTI match %v, BPF reference %v", i, m0[i], want)
		}
	}
}

func TestOptDifferentialFirewall(t *testing.T) {
	_, dnsPkts := traces()
	rules, err := firewall.ParseRules(strings.NewReader(`
10.1.0.0/16   172.20.0.0/16 allow
10.2.0.0/16   172.20.0.0/16 deny
*             172.20.0.5/32 allow
`))
	if err != nil {
		t.Fatal(err)
	}
	var fws [3]*firewall.Firewall
	for i, level := range []int{0, 1, 2} {
		withOptLevel(level, func() {
			fw, err := firewall.New(rules, 5*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			fws[i] = fw
		})
	}
	for _, p := range dnsPkts {
		eth, _ := layers.DecodeEthernet(p.Data)
		ip, err := layers.DecodeIPv4(eth.Payload)
		if err != nil {
			continue
		}
		ts := p.Time.UnixNano()
		src, dst := values.AddrFrom4(ip.Src), values.AddrFrom4(ip.Dst)
		a, err := fws[0].Match(ts, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for lvl := 1; lvl < 3; lvl++ {
			b, err := fws[lvl].Match(ts, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("firewall decision diverges for %s -> %s: O0=%v O%d=%v",
					values.Format(src), values.Format(dst), a, lvl, b)
			}
		}
	}
}

func TestOptDifferentialBroLogs(t *testing.T) {
	httpPkts, dnsPkts := traces()
	runAt := func(level int) *bro.Engine {
		var eng *bro.Engine
		withOptLevel(level, func() {
			e, err := bro.NewEngine(bro.Config{
				Parser: "binpac", ScriptExec: "hilti",
				Scripts: []string{bro.HTTPScript, bro.FilesScript, bro.DNSScript},
				Quiet:   true,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.ProcessTrace(httpPkts)
			e.ProcessTrace(dnsPkts)
			e.Finish()
			eng = e
		})
		return eng
	}
	e0 := runAt(0)
	for _, level := range []int{1, 2} {
		e1 := runAt(level)
		for _, stream := range []string{"http", "files", "dns"} {
			l0, l1 := e0.Logs.Lines(stream), e1.Logs.Lines(stream)
			if len(l0) != len(l1) {
				t.Fatalf("%s.log: %d lines at -O0, %d at -O%d", stream, len(l0), len(l1), level)
			}
			for i := range l0 {
				if l0[i] != l1[i] {
					t.Fatalf("%s.log line %d diverges:\n-O0: %s\n-O%d: %s",
						stream, i, l0[i], level, l1[i])
				}
			}
		}
	}
}

// grammarTranscript links both BinPAC++ grammars at the given level and
// drives the generated parsers directly — HTTP as the engine does, one
// fiber per direction resumed per TCP segment; DNS one call per datagram —
// recording every host callback with its arguments rendered, every parse
// error, and the number of suspensions.
func grammarTranscript(t *testing.T, level int, httpPkts, dnsPkts []pcap.Packet) []string {
	t.Helper()
	httpMods, err := grammars.HTTPModules()
	if err != nil {
		t.Fatal(err)
	}
	dnsMods, err := grammars.DNSModules()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.LinkWith(vm.Options{OptLevel: level},
		append(append([]*ast.Module(nil), httpMods...), dnsMods...)...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	methods := map[int64][]string{}
	for _, name := range []string{"bro_http_request", "bro_http_reply", "bro_http_header",
		"bro_http_body", "bro_http_message_done", "bro_http_pick_body", "bro_dns_message"} {
		name := name
		ex.RegisterHost(name, func(_ *vm.Exec, args []values.Value) (values.Value, error) {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = values.Format(a)
			}
			out = append(out, name+"("+strings.Join(parts, ", ")+")")
			ctx := args[0].AsInt()
			switch name {
			case "bro_http_request":
				methods[ctx] = append(methods[ctx], values.Format(args[1]))
			case "bro_http_pick_body": // as the engine: HEAD replies and 1xx/204/304 have no body
				head := false
				if q := methods[ctx]; len(q) > 0 {
					head, methods[ctx] = q[0] == "HEAD", q[1:]
				}
				if status := args[1].AsInt(); head || status == 304 || status == 204 || status/100 == 1 {
					return values.Int(grammars.BodyNone), nil
				}
				return args[2], nil
			}
			return values.Nil, nil
		})
	}
	structDef := func(mods []*ast.Module, name string) *values.StructDef {
		for _, m := range mods {
			if ty, ok := m.Types[name]; ok && ty.StructDef != nil {
				return ty.StructDef.Runtime()
			}
		}
		t.Fatalf("no unit %s", name)
		return nil
	}

	type side struct {
		stream reassembly.Stream
		rope   *hbytes.Bytes
		run    *vm.Resumable
	}
	type dirKey struct {
		src, dst [4]byte
		sp, dp   uint16
	}
	sides := map[dirKey]*side{}
	var order []*side
	suspends := 0
	resume := func(s *side, what string) {
		if s.run.Done() {
			return
		}
		if _, done, err := s.run.Resume(); !done {
			suspends++
		} else if err != nil {
			out = append(out, what+" error: "+err.Error())
		}
	}
	for _, p := range httpPkts {
		eth, _ := layers.DecodeEthernet(p.Data)
		ip, err := layers.DecodeIPv4(eth.Payload)
		if err != nil {
			continue
		}
		tcp, err := layers.DecodeTCP(ip.Payload)
		if err != nil {
			continue
		}
		k := dirKey{ip.Src, ip.Dst, tcp.SrcPort, tcp.DstPort}
		s := sides[k]
		if s == nil {
			unit, ctx := "Requests", int64(tcp.SrcPort)<<16|int64(ip.Src[3])
			if tcp.SrcPort == 80 {
				unit, ctx = "Replies", int64(tcp.DstPort)<<16|int64(ip.Dst[3])
			}
			s = &side{rope: hbytes.New()}
			s.run = ex.FiberCall(prog.Fn("HTTP::parse_"+unit),
				values.StructVal(values.NewStruct(structDef(httpMods, unit))),
				values.IterBytes(s.rope.Begin()), values.Int(ctx))
			s.stream.Deliver = func(d []byte) {
				s.rope.Append(d)
				resume(s, unit)
			}
			sides[k] = s
			order = append(order, s)
		}
		if tcp.Flags&layers.TCPSyn != 0 {
			s.stream.Init(tcp.Seq)
		}
		s.stream.Segment(tcp.Seq, tcp.Payload, tcp.Flags&layers.TCPFin != 0)
	}
	for _, s := range order {
		s.rope.Freeze()
		resume(s, "end of stream")
		if !s.run.Done() {
			s.run.Abort()
		}
	}

	dnsFn, dnsDef := prog.Fn("DNS::parse_Message"), structDef(dnsMods, "Message")
	for i, p := range dnsPkts {
		eth, _ := layers.DecodeEthernet(p.Data)
		ip, err := layers.DecodeIPv4(eth.Payload)
		if err != nil {
			continue
		}
		udp, err := layers.DecodeUDP(ip.Payload)
		if err != nil {
			continue
		}
		rope := hbytes.NewFrom(udp.Payload)
		rope.Freeze()
		if _, err := ex.CallFn(dnsFn, values.StructVal(values.NewStruct(dnsDef)),
			values.IterBytes(rope.Begin()), values.Int(int64(i))); err != nil {
			out = append(out, "dns error: "+err.Error())
		}
	}
	return append(out, fmt.Sprintf("%d suspensions", suspends))
}

// TestOptDifferentialGrammars holds the generated parsers themselves — not
// just the logs the engine derives from them — to the O0 reference: the
// same callbacks with the same arguments in the same order, the same parse
// errors and the same suspension points at every level, on whole traces
// and on truncated datagrams (every unpack's error path).
func TestOptDifferentialGrammars(t *testing.T) {
	httpPkts, dnsPkts := traces()
	dnsPkts = append([]pcap.Packet(nil), dnsPkts[:400]...)
	for i := 0; i < 60; i++ { // cut datagrams short, mid-header to mid-record
		p := dnsPkts[i]
		dnsPkts = append(dnsPkts, pcap.Packet{Time: p.Time, Data: p.Data[:len(p.Data)-1-i%40]})
	}
	want := grammarTranscript(t, 0, httpPkts, dnsPkts)
	if len(want) < 1000 {
		t.Fatalf("transcript has only %d lines; the trace is not reaching the parsers", len(want))
	}
	for _, level := range []int{1, 2} {
		got := grammarTranscript(t, level, httpPkts, dnsPkts)
		for i := 0; i < len(want) || i < len(got); i++ {
			if i >= len(want) || i >= len(got) || got[i] != want[i] {
				t.Fatalf("-O%d diverges from -O0 at transcript line %d of %d/%d:\n-O0: %s\n-O%d: %s",
					level, i, len(got), len(want), lineAt(want, i), level, lineAt(got, i))
			}
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}

func TestPublicOptAPI(t *testing.T) {
	m, err := hilti.Parse(`
module M

int<64> double (int<64> x) {
    local int<64> r
    r = int.mul x 2
    return.result r
}
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := hilti.LinkWith(hilti.Config{OptLevel: hilti.O1}, m)
	if err != nil {
		t.Fatal(err)
	}
	dis := hilti.Disasm(prog.Fn("M::double"))
	if !strings.Contains(dis, "func M::double") || !strings.Contains(dis, "int.mul") {
		t.Fatalf("Disasm output unexpected:\n%s", dis)
	}
	ex, err := hilti.NewExec(prog)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ex.Call("M::double", hilti.Int(21))
	if err != nil || v.AsInt() != 42 {
		t.Fatalf("got %v %v", v, err)
	}

	// O2 installs tier-2 code eagerly; DisasmTier shows the specialized view
	// while the tier-1 Disasm stays intact, and results are unchanged.
	prog2, err := hilti.LinkWith(hilti.Config{OptLevel: hilti.O2}, m)
	if err != nil {
		t.Fatal(err)
	}
	fn2 := prog2.Fn("M::double")
	if !fn2.TierActive() {
		t.Fatal("O2 link did not activate tier-2")
	}
	if dis := fn2.DisasmTier(); !strings.Contains(dis, "unboxed:") {
		t.Fatalf("tier-2 disassembly missing slot header:\n%s", dis)
	}
	ex2, err := hilti.NewExec(prog2)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ex2.Call("M::double", hilti.Int(21)); err != nil || v.AsInt() != 42 {
		t.Fatalf("O2: got %v %v", v, err)
	}
}
