package bro

import (
	"strings"
	"testing"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/layers"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/values"
)

func smallHTTPTrace(t testing.TB) []pcap.Packet {
	t.Helper()
	cfg := gen.DefaultHTTPConfig()
	cfg.Sessions = 60
	return gen.GenerateHTTP(cfg)
}

func smallDNSTrace(t testing.TB) []pcap.Packet {
	t.Helper()
	cfg := gen.DefaultDNSConfig()
	cfg.Transactions = 400
	return gen.GenerateDNS(cfg)
}

func runEngine(t testing.TB, cfg Config, pkts []pcap.Packet) *Engine {
	t.Helper()
	cfg.Quiet = true
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.ProcessTrace(pkts)
	return e
}

func TestStandardInterpHTTP(t *testing.T) {
	e := runEngine(t, Config{
		Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript},
	}, smallHTTPTrace(t))
	httpLines := e.Logs.Lines("http")
	if len(httpLines) < 40 {
		t.Fatalf("http.log has only %d lines", len(httpLines))
	}
	// Sanity: lines carry methods and status codes.
	sawGET, saw200 := false, false
	for _, l := range httpLines {
		if strings.Contains(l, "\tGET\t") {
			sawGET = true
		}
		if strings.Contains(l, "\t200\t") {
			saw200 = true
		}
	}
	if !sawGET || !saw200 {
		t.Fatalf("log content unexpected: %q", httpLines[0])
	}
	if len(e.Logs.Lines("files")) == 0 {
		t.Fatal("files.log empty")
	}
}

func TestStandardInterpDNS(t *testing.T) {
	e := runEngine(t, Config{
		Parser: "standard", ScriptExec: "interp",
		Scripts: []string{DNSScript},
	}, smallDNSTrace(t))
	lines := e.Logs.Lines("dns")
	if len(lines) < 300 {
		t.Fatalf("dns.log has only %d lines", len(lines))
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"NOERROR", "NXDOMAIN", "\tA\t", "\tTXT\t", "\tMX\t"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("dns.log missing %q", want)
		}
	}
}

// TestBinpacHTTPAgreesWithStandard reproduces Table 2's methodology on the
// HTTP logs: both parser paths, same scripts (interpreted), then normalize
// and diff.
func TestBinpacHTTPAgreesWithStandard(t *testing.T) {
	pkts := smallHTTPTrace(t)
	std := runEngine(t, Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript}}, pkts)
	pac := runEngine(t, Config{Parser: "binpac", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript}}, pkts)

	for _, stream := range []string{"http", "files"} {
		agr := CompareLogs(stream, std.Logs.Lines(stream), pac.Logs.Lines(stream))
		t.Logf("%s.log: std=%d pac=%d identical=%.2f%%",
			stream, agr.NormA, agr.NormB, 100*agr.IdenticalFrac)
		if agr.NormA == 0 {
			t.Fatalf("%s.log empty", stream)
		}
		if agr.IdenticalFrac < 0.90 {
			// The paper reports 98.91%/98.36%; we accept >=90% here and
			// report the exact number via the harness.
			t.Errorf("%s.log agreement too low: %.2f%%", stream, 100*agr.IdenticalFrac)
		}
	}
}

func TestBinpacDNSAgreesWithStandard(t *testing.T) {
	pkts := smallDNSTrace(t)
	std := runEngine(t, Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{DNSScript}}, pkts)
	pac := runEngine(t, Config{Parser: "binpac", ScriptExec: "interp",
		Scripts: []string{DNSScript}}, pkts)
	agr := CompareLogs("dns", std.Logs.Lines("dns"), pac.Logs.Lines("dns"))
	t.Logf("dns.log: std=%d pac=%d identical=%.2f%%", agr.NormA, agr.NormB, 100*agr.IdenticalFrac)
	if agr.IdenticalFrac < 0.95 {
		t.Errorf("dns.log agreement too low: %.2f%%", 100*agr.IdenticalFrac)
	}
}

// TestCompiledScriptsMatchInterp reproduces Table 3's methodology: same
// standard parsers, scripts interpreted vs compiled to HILTI.
func TestCompiledScriptsMatchInterp(t *testing.T) {
	pkts := smallHTTPTrace(t)
	ip := runEngine(t, Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript}}, pkts)
	hl := runEngine(t, Config{Parser: "standard", ScriptExec: "hilti",
		Scripts: []string{HTTPScript, FilesScript}}, pkts)
	for _, stream := range []string{"http", "files"} {
		agr := CompareLogs(stream, ip.Logs.Lines(stream), hl.Logs.Lines(stream))
		t.Logf("%s.log: interp=%d hilti=%d identical=%.2f%%",
			stream, agr.NormA, agr.NormB, 100*agr.IdenticalFrac)
		if agr.IdenticalFrac < 0.999 {
			t.Errorf("%s.log: compiled scripts diverge: %.3f%%", stream, 100*agr.IdenticalFrac)
		}
	}
}

func TestCompiledScriptsMatchInterpDNS(t *testing.T) {
	pkts := smallDNSTrace(t)
	ip := runEngine(t, Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{DNSScript}}, pkts)
	hl := runEngine(t, Config{Parser: "standard", ScriptExec: "hilti",
		Scripts: []string{DNSScript}}, pkts)
	agr := CompareLogs("dns", ip.Logs.Lines("dns"), hl.Logs.Lines("dns"))
	t.Logf("dns.log: interp=%d hilti=%d identical=%.2f%%", agr.NormA, agr.NormB, 100*agr.IdenticalFrac)
	if agr.IdenticalFrac < 0.999 {
		t.Errorf("dns.log: compiled scripts diverge: %.3f%%", 100*agr.IdenticalFrac)
	}
}

func TestStatsComponentsPopulated(t *testing.T) {
	pkts := smallHTTPTrace(t)
	e, err := NewEngine(Config{Parser: "binpac", ScriptExec: "interp",
		Scripts: []string{HTTPScript}, Quiet: true, DiscardLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	st := e.ProcessTrace(pkts)
	if st.Parsing <= 0 || st.Script <= 0 || st.Glue <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Total < st.Parsing {
		t.Fatalf("total < parsing: %+v", st)
	}
}

// TestConnRecordAliasing pins the aliasing rule down: all events of one
// connection see one `connection` record, so a field one handler stores is
// there for the next — on both script backends, which must also agree.
func TestConnRecordAliasing(t *testing.T) {
	const script = `
event http_request(c: connection, method: string, uri: string, version: string) {
    c$uid = method;
}
event http_reply(c: connection, version: string, code: count, reason: string) {
    Log::write("alias", [$uid=c$uid, $orig_p=c$id$orig_p]);
}
`
	var lines [2][]string
	for i, exec := range []string{"interp", "hilti"} {
		e, err := NewEngine(Config{Parser: "standard", ScriptExec: exec, Scripts: []string{script}, Quiet: true})
		if err != nil {
			t.Fatal(err)
		}
		c, _ := e.getConn(flow.FromIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 40000, 80, layers.IPProtoTCP), true, false)
		other, _ := e.getConn(flow.FromIPv4([4]byte{10, 0, 0, 3}, [4]byte{10, 0, 0, 2}, 40001, 80, layers.IPProtoTCP), true, false)
		e.dispatch(evHTTPRequest, c, values.String("STORED"), values.String("/"), values.String("1.1"))
		e.dispatch(evHTTPReply, c, values.String("1.1"), values.Int(200), values.String("OK"))
		e.dispatch(evHTTPReply, other, values.String("1.1"), values.Int(200), values.String("OK"))
		lines[i] = e.Logs.Lines("alias")
		if len(lines[i]) != 2 || !strings.HasPrefix(lines[i][0], "STORED\t") || strings.HasPrefix(lines[i][1], "STORED\t") {
			t.Errorf("%s: the second handler must see the first one's store, another connection must not: %q", exec, lines[i])
		}
	}
	if strings.Join(lines[0], "\n") != strings.Join(lines[1], "\n") {
		t.Errorf("backends disagree:\n  interp %q\n  hilti  %q", lines[0], lines[1])
	}
}
