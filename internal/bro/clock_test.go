package bro

import (
	"strings"
	"testing"
	"time"

	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/values"
)

// clockEngine builds a quiet engine with a connection to raise events on.
func clockEngine(t testing.TB, parser, exec string) (*Engine, *conn) {
	t.Helper()
	e, err := NewEngine(Config{Parser: parser, ScriptExec: exec,
		Scripts: []string{HTTPScript, FilesScript}, Quiet: true, DiscardLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := e.getConn(flow.FromIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 40000, 80, layers.IPProtoTCP), true, false)
	return e, c
}

// tick replaces the engine's time source with one that advances by one per
// read, so every interval between two reads is exactly one tick long.
func tick(e *Engine) {
	var now int64
	e.clock.fake = func() int64 { now++; return now }
}

func header(e *Engine, c *conn) {
	e.dispatch(evHTTPHeader, c, values.Bool(true), values.String("Host"), values.String("example.com"))
}

// TestClockReadsPerEvent is the regression guard for what the clock costs:
// an event takes two reads on either backend (script, back); a TCP packet
// without data takes two. Bracketing the arguments again would show up
// here.
func TestClockReadsPerEvent(t *testing.T) {
	ack := tcpDataFrame([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 40000, 80, 100, nil)
	for _, tc := range []struct {
		exec  string
		event uint64
	}{{"hilti", 2}, {"interp", 2}} {
		e, c := clockEngine(t, "standard", tc.exec)
		header(e, c) // first use: resolve the hook, build the connection's struct
		before := e.clock.reads
		header(e, c)
		if got := e.clock.reads - before; got != tc.event {
			t.Errorf("%s: one http_header event took %d clock reads, want %d", tc.exec, got, tc.event)
		}
		before = e.clock.reads
		e.SafeProcessPacket(1, ack)
		if got := e.clock.reads - before; got != 2 {
			t.Errorf("%s: one data-less TCP packet took %d clock reads, want 2", tc.exec, got)
		}
	}
}

// TestClockStackChargesExclusively scripts a parse → event → host function
// → log sequence on the bare clock: each tick lands on exactly one
// component.
func TestClockStackChargesExclusively(t *testing.T) {
	var e Engine
	tick(&e)
	k := &e.clock
	k.enter(compParse)     // 1: nothing was running
	k.enter(compGlue)      // 2: parse +1 (the parser raised an event)
	k.switchTo(compScript) // 3: glue +1 (its arguments crossed)
	k.enter(compGlue)      // 4: script +1 (the handler logs: a host function converts)
	k.leave()              // 5: glue +1
	k.leave()              // 6: script +1
	k.leave()              // 7: parse +1
	if k.ns != [numComponents]int64{2, 2, 2} || k.intervals != [numComponents]uint64{1, 1, 2} ||
		k.reads != 7 || len(k.stack) != 0 {
		t.Fatalf("ns %v intervals %v reads %d stack %v", k.ns, k.intervals, k.reads, k.stack)
	}
}

// TestClockExclusiveOnTrace runs a trace through all four backend pairs on
// a ticking clock: the components sum to exactly the ticks that passed
// while something was on the stack, so Other is what is left, not a clamp.
func TestClockExclusiveOnTrace(t *testing.T) {
	pkts := smallHTTPTrace(t)
	for _, parser := range []string{"standard", "binpac"} {
		for _, exec := range []string{"interp", "hilti"} {
			e, err := NewEngine(Config{Parser: parser, ScriptExec: exec,
				Scripts: []string{HTTPScript, FilesScript}, Quiet: true, DiscardLogs: true})
			if err != nil {
				t.Fatal(err)
			}
			var now, charged int64
			e.clock.fake = func() int64 {
				if len(e.clock.stack) > 0 {
					charged++ // the tick this read ends belongs to the top component
				}
				now++
				return now
			}
			for i := range pkts {
				e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
			}
			e.Finish()
			e.total = time.Duration(now)
			st := e.StatsSnapshot()
			if st.Parsing <= 0 || st.Script <= 0 || (st.Glue > 0) != (parser == "binpac" || exec == "hilti") {
				t.Errorf("%s/%s: components not populated: %+v", parser, exec, st)
			}
			if sum := st.Parsing + st.Script + st.Glue; int64(sum) != charged || st.Other != st.Total-sum || st.Other <= 0 {
				t.Errorf("%s/%s: parse %d + script %d + glue %d != %d charged ticks (total %d, other %d)",
					parser, exec, st.Parsing, st.Script, st.Glue, charged, st.Total, st.Other)
			}
			if len(e.clock.stack) != 0 {
				t.Errorf("%s/%s: stack left at %v", parser, exec, e.clock.stack)
			}
		}
	}
}

// TestClockSurvivesPanics: a Go panic in a handler or a host function,
// contained by dispatch, leaves the stack where the event found it; one
// contained around the whole packet is dropped by the next packet. Either
// way the next packet's parse time goes to parse.
func TestClockSurvivesPanics(t *testing.T) {
	ack := tcpDataFrame([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 40000, 80, 100, nil)
	for _, exec := range []string{"interp", "hilti"} {
		e, c := clockEngine(t, "standard", exec)
		tick(e)
		// http_request calls network_time(): make that panic.
		e.interp.Now = func() int64 { panic("boom") }
		if e.compiled {
			e.ex.RegisterHost("bro_network_time", func(*vm.Exec, []values.Value) (values.Value, error) { panic("boom") })
		}
		e.clock.enter(compParse) // as the parser that raises the event would
		e.dispatch(evHTTPRequest, c, values.String("GET"), values.String("/"), values.String("1.1"))
		if e.faults.Count() != 1 {
			t.Fatalf("%s: %d faults, want the handler's panic", exec, e.faults.Count())
		}
		if len(e.clock.stack) != 1 || e.clock.stack[0] != compParse || len(e.hargs) != 0 || len(e.vargs) != 0 {
			t.Fatalf("%s: after a contained panic: stack %v, %d+%d scratch arguments", exec, e.clock.stack, len(e.hargs), len(e.vargs))
		}
		// The packet-level boundary does not unwind; the next packet does.
		e.clock.enter(compScript)
		before := e.clock.ns
		e.SafeProcessPacket(1, ack)
		if d := e.clock.ns[compParse] - before[compParse]; d != 1 || e.clock.ns[compScript] != before[compScript] || len(e.clock.stack) != 0 {
			t.Errorf("%s: packet after a leaked frame: parse +%d script +%d stack %v, want +1 +0 []",
				exec, d, e.clock.ns[compScript]-before[compScript], e.clock.stack)
		}
	}
}

// TestClockParallelSums: a registry shared by a pipeline's workers reports
// the sum of their clocks, under the series names the profilers had.
func TestClockParallelSums(t *testing.T) {
	reg := metrics.NewRegistry()
	par, err := NewParallel(Config{Parser: "binpac", ScriptExec: "hilti",
		Scripts: []string{HTTPScript, FilesScript}, Quiet: true, DiscardLogs: true, Metrics: reg}, 2)
	if err != nil {
		t.Fatal(err)
	}
	par.ProcessTrace(smallHTTPTrace(t))
	for c, name := range componentNames {
		var ns int64
		var intervals uint64
		for _, e := range par.Engines {
			ns += e.clock.ns[c]
			intervals += e.clock.intervals[c]
		}
		if got := reg.Value(metrics.Name("hilti_profiler_time_ns_total", "name", name)); ns <= 0 || got != float64(ns) {
			t.Errorf("%s: registry says %v ns, workers sum to %d", name, got, ns)
		}
		if got := reg.Value(metrics.Name("hilti_profiler_intervals_total", "name", name)); got != float64(intervals) {
			t.Errorf("%s: registry says %v intervals, workers sum to %d", name, got, intervals)
		}
	}
}

// TestClockScrapeWhileRunning is for -race: a scrape reads the published
// totals while the engine's goroutine moves the clock.
func TestClockScrapeWhileRunning(t *testing.T) {
	reg := metrics.NewRegistry()
	e, err := NewEngine(Config{Parser: "standard", ScriptExec: "hilti",
		Scripts: []string{HTTPScript, FilesScript}, Quiet: true, DiscardLogs: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.ProcessTrace(smallHTTPTrace(t))
	}()
	var last float64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		got := reg.Value(metrics.Name("hilti_profiler_time_ns_total", "name", "script"))
		if got < last {
			t.Fatalf("script time went back: %v after %v", got, last)
		}
		last = got
	}
	if want := float64(e.StatsSnapshot().Script); last != want {
		t.Errorf("after Finish the registry says %v, the engine %v", last, want)
	}
}

// The dispatch path's own garbage: no error target, fault label, closure or
// argument slice per event, on either backend; and with the connection's
// struct cached, a compiled handler that only reads is allocation-free end
// to end. The events come through stdHTTPAdapter with strings made at run
// time, as HTTPParser hands them over: what a Val box would cost, these pay.
func TestDispatchAllocs(t *testing.T) {
	var replies, headers [2]float64 // per backend
	for i, exec := range []string{"hilti", "interp"} {
		e, c := clockEngine(t, "standard", exec)
		a := &stdHTTPAdapter{e: e, c: c}
		// bro_done has no handler in these scripts: the path alone.
		e.dispatch(evBroDone, nil)
		if n := testing.AllocsPerRun(200, func() { e.dispatch(evBroDone, nil) }); n != 0 {
			t.Errorf("%s: dispatching an event nobody handles allocates %v times", exec, n)
		}
		// http_message_done with nothing pending: look c$uid up, return.
		done := func() { a.MessageDone(true) }
		done()
		if n := testing.AllocsPerRun(200, done); n != 0 {
			t.Errorf("%s: http_message_done allocates %v times per event", exec, n)
		}
		// With a reply pending, http_message_done writes http.log.
		version, reason := strings.Clone("1.1"), strings.Clone("OK")
		reply := func() {
			a.Reply(version, 200, reason)
			a.MessageDone(false)
		}
		reply()
		replies[i] = testing.AllocsPerRun(200, reply)
		// A reply header: the handler looks at nothing it gets.
		name, value := strings.Clone("Server"), strings.Clone("nginx")
		header := func() { a.Header(false, name, value) }
		header()
		headers[i] = testing.AllocsPerRun(200, header)
	}
	if replies[1] != 10 || headers[1] != 2 {
		t.Errorf("interpreted: a logged reply allocates %v times, a header %v; want 10 and 2", replies[1], headers[1])
	}
	if replies[0] >= replies[1] {
		t.Errorf("a logged reply allocates %v times compiled, %v interpreted", replies[0], replies[1])
	}
	// Compiled, the arguments cross into HILTI without a box.
	if replies[0] > 4 {
		t.Errorf("a compiled logged reply allocates %v times, want at most 4", replies[0])
	}
	if headers[0] != 0 {
		t.Errorf("a compiled http_header that keeps nothing allocates %v times, want 0", headers[0])
	}
	// The compiled log writes build no record: their handlers allocate no
	// struct and set no field.
	e, _ := clockEngine(t, "standard", "hilti")
	checked := 0
	for _, fn := range append(e.ex.Prog.HookBodies["http_message_done"], e.ex.Prog.HookBodies["http_body"]...) {
		dis := fn.Disasm()
		if !strings.Contains(dis, " c:http, ") && !strings.Contains(dis, " c:files, ") {
			continue // http_body's bookkeeping body, which stores into info
		}
		checked++
		for _, line := range strings.Split(dis, "\n")[1:] {
			if f := strings.Fields(line); len(f) > 1 && (f[1] == "new" || f[1] == "struct.set") {
				t.Errorf("a compiled log write still builds a record:\n%s", dis)
				break
			}
		}
	}
	if checked != 2 {
		t.Errorf("found %d compiled log-writing handlers, want http_message_done and files' http_body", checked)
	}
	if n := testing.AllocsPerRun(200, func() { isExhausted(nil) }); n != 0 {
		t.Errorf("isExhausted(nil) allocates %v times", n)
	}

	// A handler that panics two calls deep leaves no interpreter frame
	// claimed or holding values, and the next dispatch is still
	// allocation-free.
	e, err := NewEngine(Config{Parser: "standard", ScriptExec: "interp", Quiet: true, DiscardLogs: true,
		Scripts: []string{HTTPScript, FilesScript, `
function inner(s: string): string {
    local t = s;
    Log::write("http", [$uri=t]);
    return t;
}

function outer(s: string): string {
    local u = s;
    return inner(u);
}

event http_request(c: connection, method: string, uri: string, version: string) {
    local r = outer(uri);
}
`}})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := e.getConn(flow.FromIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 40000, 80, layers.IPProtoTCP), true, false)
	ip := e.interp
	logWrite := ip.LogWrite
	ip.LogWrite = func(string, *RecordVal) { panic("injected") }
	e.dispatch(evHTTPRequest, c, values.String("GET"), values.String("/"), values.String("1.1"))
	ip.LogWrite = logWrite
	if e.faults.Count() == 0 {
		t.Fatal("the handler did not panic")
	}
	if ip.depth != 0 {
		t.Errorf("%d frames still claimed after the panic", ip.depth)
	}
	for d, f := range ip.frames {
		for i, s := range f[:cap(f)] {
			if s.set || s.v != nil {
				t.Errorf("frame %d slot %d still holds %v", d, i, s.v)
			}
		}
	}
	done := func() { e.dispatch(evHTTPMessageDone, c, values.Bool(true)) }
	done()
	if n := testing.AllocsPerRun(200, done); n != 0 {
		t.Errorf("http_message_done allocates %v times per event after a panic", n)
	}
}
