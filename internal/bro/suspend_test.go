package bro

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/hook"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/values"
)

// Tests for BinPAC++ parsers that park inside the VM: wherever a TCP
// segment boundary falls the parse resumes to the same events, a parked
// parse holds no more input than it has yet to parse, a Go panic under a
// parked parse is a contained fault that leaves its neighbours alone, and
// no parse owns a goroutine.

var (
	cliAddr, srvAddr = [4]byte{10, 7, 0, 1}, [4]byte{10, 7, 0, 2}

	suspendRequest = "POST /submit?id=7 HTTP/1.1\r\nHost: example.com\r\nUser-Agent: t\r\n" +
		"Content-Type: text/plain\r\nContent-Length: 11\r\n\r\nhello world"
	suspendReply = "HTTP/1.1 200 OK\r\nServer: s\r\nContent-Type: text/html\r\n" +
		"Transfer-Encoding: chunked\r\n\r\n5\r\n<html\r\n6\r\n></htm\r\n2\r\nl>\r\n0\r\n\r\n"
)

// httpExchange feeds one request and one reply on the client port given,
// each cut into the segments its cuts name (offsets into the message).
func httpExchange(e *Engine, ts int64, port uint16, reqCuts, repCuts []int) {
	send := func(src, dst [4]byte, sp, dp uint16, msg string, cuts []int) {
		at := 0
		for _, c := range append(cuts, len(msg)) {
			if c > at {
				e.SafeProcessPacket(ts, tcpDataFrame(src, dst, sp, dp, uint32(1000+at), []byte(msg[at:c])))
				ts++
				at = c
			}
		}
	}
	send(cliAddr, srvAddr, port, 80, suspendRequest, reqCuts)
	send(srvAddr, cliAddr, 80, port, suspendReply, repCuts)
}

func binpacHTTPConfig() Config {
	return Config{Parser: "binpac", ScriptExec: "interp", Scripts: []string{HTTPScript, FilesScript}, Quiet: true}
}

func httpOutcome(e *Engine) string {
	return fmt.Sprintf("events=%d parse_errors=%d\nhttp: %q\nfiles: %q",
		e.StatsSnapshot().Events, e.StatsSnapshot().ParseErr, e.Logs.Lines("http"), e.Logs.Lines("files"))
}

// TestBinpacSuspendSplitAnywhere: a request and its reply fed whole, and
// cut in two at every byte offset of either, produce the same events and
// log lines — at O0, O1 and eager tier-2.
func TestBinpacSuspendSplitAnywhere(t *testing.T) {
	prev := vm.DefaultOptLevel()
	defer vm.SetDefaultOptLevel(prev)
	for _, level := range []int{0, 1, 2} {
		vm.SetDefaultOptLevel(level)
		run := func(reqCuts, repCuts []int) string {
			e := mustEngine(t, binpacHTTPConfig())
			httpExchange(e, 1e9, 41001, reqCuts, repCuts)
			e.Finish()
			return httpOutcome(e)
		}
		whole := run(nil, nil)
		if !strings.Contains(whole, "\\tPOST\\t") || !strings.Contains(whole, "\\t200\\t") ||
			!strings.Contains(whole, "parse_errors=0") {
			t.Fatalf("O%d: whole exchange not logged as expected:\n%s", level, whole)
		}
		for k := 1; k < len(suspendRequest); k++ {
			if got := run([]int{k}, nil); got != whole {
				t.Fatalf("O%d: request cut at %d:\n%s\nwhole:\n%s", level, k, got, whole)
			}
		}
		for k := 1; k < len(suspendReply); k++ {
			if got := run(nil, []int{k}); got != whole {
				t.Fatalf("O%d: reply cut at %d:\n%s\nwhole:\n%s", level, k, got, whole)
			}
		}
		// And one byte per segment, both ways.
		every := func(n int) []int {
			cuts := make([]int, 0, n)
			for k := 1; k < n; k++ {
				cuts = append(cuts, k)
			}
			return cuts
		}
		if got := run(every(len(suspendRequest)), every(len(suspendReply))); got != whole {
			t.Fatalf("O%d: one byte per segment:\n%s\nwhole:\n%s", level, got, whole)
		}
	}
}

// TestBinpacParkedParseHoldsNoBody: a 20 kB request body framed by its
// length and a 20 kB reply body in chunks stream through their parses in
// 1 kB segments. After every segment the direction's input rope holds at
// most one segment, and no message struct holds body bytes — only their
// count, digest and first four bytes — yet each body is logged with its
// length and the SHA-1 of all of it.
func TestBinpacParkedParseHoldsNoBody(t *testing.T) {
	const segment = 1024
	body := strings.Repeat("0123456789abcdef", 1250)
	var chunked strings.Builder
	for rest := body; rest != ""; {
		n := min(700, len(rest))
		fmt.Fprintf(&chunked, "%x\r\n%s\r\n", n, rest[:n])
		rest = rest[n:]
	}
	chunked.WriteString("0\r\n\r\n")
	request := fmt.Sprintf("POST /up HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	reply := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked.String()

	e := mustEngine(t, Config{Parser: "binpac", ScriptExec: "interp", Scripts: []string{HTTPScript, FilesScript}, Quiet: true})
	// Every message struct a header hook is handed.
	var msgs []*values.Struct
	e.ex.Hooks = hook.NewRegistry()
	for _, h := range []string{"RequestHeader::%done", "ReplyHeader::%done"} {
		e.ex.Hooks.Get(h).Add(func(args []values.Value) (values.Value, bool) {
			if m := args[1].AsStruct(); len(msgs) == 0 || msgs[len(msgs)-1] != m {
				msgs = append(msgs, m)
			}
			return values.Nil, false
		})
	}
	ts := int64(1e9)
	send := func(src, dst [4]byte, sp, dp uint16, msg string) {
		for at := 0; at < len(msg); at += segment {
			seg := msg[at:min(at+segment, len(msg))]
			e.SafeProcessPacket(ts, tcpDataFrame(src, dst, sp, dp, uint32(1000+at), []byte(seg)))
			ts++
			for _, c := range openConns(e) {
				if n := max(c.origRope.Len(), c.respRope.Len()); n > segment {
					t.Fatalf("after %d bytes a rope holds %d", at+len(seg), n)
				}
			}
			for _, m := range msgs {
				if s := values.Format(values.StructVal(m)); strings.Contains(s, body[4:20]) {
					t.Fatalf("after %d bytes a message holds body bytes: %.200s", at+len(seg), s)
				}
			}
		}
	}
	send(cliAddr, srvAddr, 41003, 80, request)
	send(srvAddr, cliAddr, 80, 41003, reply)
	e.Finish()
	if len(msgs) != 2 {
		t.Fatalf("%d messages seen, want 2", len(msgs))
	}
	sum := sha1.Sum([]byte(body))
	files := e.Logs.Lines("files")
	if len(files) != 2 {
		t.Fatalf("files.log: %q", files)
	}
	for _, l := range files {
		if !strings.Contains(l, "\t"+hex.EncodeToString(sum[:])+"\t20000") {
			t.Fatalf("files.log line %q lacks the body's digest and length", l)
		}
	}
}

// TestBinpacSuspendPanicIsAFault: two HTTP connections interleave on one
// engine and a bro_* host function panics, outside event dispatch, in the
// middle of the first one's parse. That used to come back from the parser's
// goroutine as an error string and count as a parse error; it now reaches
// the packet boundary as a Go panic: a recorded fault, the flow quarantined.
// The second connection must not notice.
func TestBinpacSuspendPanicIsAFault(t *testing.T) {
	const victim, bystander = 41001, 41002
	run := func(boom bool) (*Engine, *metrics.Registry, *[]string) {
		cfg := binpacHTTPConfig()
		cfg.Metrics = metrics.NewRegistry()
		// Enough for any one parse; too little for two that share a budget.
		cfg.Limits = vm.Limits{Instructions: 4000}
		e := mustEngine(t, cfg)
		var calls []string // host calls made on the victim's behalf
		var victimCtx int64 = -1
		orig := e.ex.HostFns["bro_http_header"]
		e.ex.RegisterHost("bro_http_header", func(ex *vm.Exec, args []values.Value) (values.Value, error) {
			if c := e.flows.ctxs[args[0].AsInt()]; c != nil && c.key.SrcPort == victim || args[0].AsInt() == victimCtx {
				victimCtx = args[0].AsInt()
				name := e.glue.fromHilti(args[2]).Render()
				calls = append(calls, name)
				if boom && name == "User-Agent" {
					panic("host function bug")
				}
			}
			return orig(ex, args)
		})
		// Both requests arrive in three segments each, interleaved; the
		// victim's second segment carries the header that panics.
		cuts := []int{30, 70}
		seg := func(port uint16, i int, ts int64) {
			at := append([]int{0}, append(cuts, len(suspendRequest))...)
			e.SafeProcessPacket(ts, tcpDataFrame(cliAddr, srvAddr, port, 80,
				uint32(1000+at[i]), []byte(suspendRequest[at[i]:at[i+1]])))
		}
		ts := int64(1e9)
		for i := 0; i < 3; i++ {
			seg(victim, i, ts)
			seg(bystander, i, ts+1)
			ts += 2
		}
		for _, port := range []uint16{victim, bystander} {
			e.SafeProcessPacket(ts, tcpDataFrame(srvAddr, cliAddr, 80, port, 5000, []byte(suspendReply)))
			ts++
		}
		return e, cfg.Metrics, &calls
	}
	linesOf := func(e *Engine, uid string) []string {
		var out []string
		for _, stream := range []string{"http", "files"} {
			for _, l := range e.Logs.Lines(stream) {
				if strings.Contains(l, "\t"+uid+"\t") {
					out = append(out, stream+": "+l)
				}
			}
		}
		return out
	}

	clean, _, cleanCalls := run(false)
	e, reg, calls := run(true)
	uids := map[uint16]string{} // the same in both runs: key and first packet's time
	for _, c := range openConns(clean) {
		uids[c.key.SrcPort] = c.uid
	}

	st := e.StatsSnapshot()
	if st.Faults != 1 || st.Quarantined != 1 || st.ParseErr != 0 {
		t.Fatalf("faults=%d quarantined=%d parse errors=%d, want 1/1/0", st.Faults, st.Quarantined, st.ParseErr)
	}
	if f := e.Faults()[0]; f.Op != "packet" || f.Value != "host function bug" {
		t.Fatalf("fault record: %v", f)
	}
	// The victim's later segments die in quarantine: after the panic, no
	// host function runs on its behalf — no frame of the dead parse resumes.
	if want := []string{"Host", "User-Agent"}; !reflect.DeepEqual(*calls, want) {
		t.Fatalf("host calls for the victim %v, want %v (undisturbed: %v)", *calls, want, *cleanCalls)
	}
	if len(*cleanCalls) <= 2 {
		t.Fatalf("undisturbed run made only %v", *cleanCalls)
	}
	// The parser VM is idle again with its budget and depth in order: only
	// the bystander's two directions are still parked (its connection is
	// open), and plain top-level calls — a DNS datagram is one CallFn —
	// each get a fresh budget. With the depth stuck at 1 they would share
	// one and trip it, which counts as a parse error. The datagrams follow
	// the HTTP packets within a second, so no connection is idle long
	// enough to expire.
	q := gen.DefaultDNSConfig()
	q.Transactions = 50
	q.Start = time.Unix(2, 0)
	for _, p := range gen.GenerateDNS(q) {
		clean.SafeProcessPacket(p.Time.UnixNano(), p.Data)
		e.SafeProcessPacket(p.Time.UnixNano(), p.Data)
	}
	e.ex.Met.Sync()
	if got := reg.Value(`hilti_vm_suspended_calls{vm="engine"}`); got != 2 {
		t.Fatalf("hilti_vm_suspended_calls = %v, want 2 (the bystander's directions)", got)
	}
	if st, want := e.StatsSnapshot(), clean.StatsSnapshot(); st.ParseErr != want.ParseErr || st.Faults != 1 {
		t.Fatalf("after the fault: parse errors=%d (undisturbed: %d) faults=%d", st.ParseErr, want.ParseErr, st.Faults)
	}
	clean.Finish()
	e.Finish()
	if got, want := linesOf(e, uids[bystander]), linesOf(clean, uids[bystander]); !reflect.DeepEqual(got, want) || len(want) != 3 {
		t.Fatalf("bystander's lines:\n%q\nundisturbed:\n%q", got, want)
	}
	if got := linesOf(e, uids[victim]); len(got) != 0 || len(linesOf(clean, uids[victim])) != 3 {
		t.Fatalf("victim still logged: %q", got)
	}
}

// TestBinpacSuspendLeavesNoGoroutine: 2,000 HTTP sessions parsed
// concurrently, every one parked between segments, and not one goroutine.
// The generator runs sessions one after another, so the test interleaves
// them (interleaveFlows).
func TestBinpacSuspendLeavesNoGoroutine(t *testing.T) {
	hc := gen.DefaultHTTPConfig()
	hc.Sessions = 2000
	pkts := interleaveFlows(gen.GenerateHTTP(hc))
	before := runtime.NumGoroutine()
	cfg := binpacHTTPConfig()
	cfg.DiscardLogs = true
	e := mustEngine(t, cfg)
	most := 0
	for i := range pkts {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
		if n := e.flows.len(); n > most {
			most = n
		}
		if i%1000 == 0 || i == len(pkts)-1 {
			if n := runtime.NumGoroutine(); n != before {
				t.Fatalf("%d goroutines with %d connections mid-parse, %d before the first", n, e.flows.len(), before)
			}
		}
	}
	if most < 1000 {
		t.Fatalf("only %d sessions were ever concurrent", most)
	}
	e.Finish()
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Finish, %d before", n, before)
	}
	if st := e.StatsSnapshot(); st.Faults != 0 || st.Events == 0 {
		t.Fatalf("faults=%d events=%d", st.Faults, st.Events)
	}
}

// interleaveFlows deals pkts out one flow at a time: every flow's first
// packet, in the order the flows began, then every flow's second, and so
// on, each flow's packets in their own order. The packets are stamped a
// microsecond apart from the first one's time.
func interleaveFlows(pkts []pcap.Packet) []pcap.Packet {
	var flows [][]pcap.Packet
	at := map[flow.Key]int{}
	for _, p := range pkts {
		key, _ := flow.FromFrame(p.Data)
		ck, _ := key.Canonical()
		i, ok := at[ck]
		if !ok {
			i = len(flows)
			at[ck] = i
			flows = append(flows, nil)
		}
		flows[i] = append(flows[i], p)
	}
	out := make([]pcap.Packet, 0, len(pkts))
	for round := 0; len(out) < len(pkts); round++ {
		for _, f := range flows {
			if round < len(f) {
				p := f[round]
				p.Time = pkts[0].Time.Add(time.Duration(len(out)) * time.Microsecond)
				out = append(out, p)
			}
		}
	}
	return out
}
