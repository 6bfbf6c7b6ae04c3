package bro

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// argLogger logs every engine event's arguments as one record, so that a
// LogWrite hook sees the Vals an interpreted handler was given. bro_done
// has none; its record holds a marker.
const argLogger = `
event connection_established(c: connection) { Log::write("connection_established", [$c=c]); }
event http_request(c: connection, method: string, uri: string, version: string) { Log::write("http_request", [$c=c, $a=method, $b=uri, $d=version]); }
event http_reply(c: connection, version: string, code: count, reason: string) { Log::write("http_reply", [$c=c, $a=version, $b=code, $d=reason]); }
event http_header(c: connection, is_orig: bool, name: string, value: string) { Log::write("http_header", [$c=c, $a=is_orig, $b=name, $d=value]); }
event http_body(c: connection, is_orig: bool, mime: string, hash: string, n: count) { Log::write("http_body", [$c=c, $a=is_orig, $b=mime, $d=hash, $e=n]); }
event http_message_done(c: connection, is_orig: bool) { Log::write("http_message_done", [$c=c, $a=is_orig]); }
event dns_request(c: connection, trans_id: count, query: string, qtype: count) { Log::write("dns_request", [$c=c, $a=trans_id, $b=query, $d=qtype]); }
event dns_response(c: connection, trans_id: count, rcode: count, answers: vector of string, ttls: vector of interval) { Log::write("dns_response", [$c=c, $a=trans_id, $b=rcode, $d=answers, $e=ttls]); }
event bro_done() { Log::write("bro_done", [$marker="done"]); }
`

// TestInterpArgTypes: an interpreted handler gets each event argument as
// the Val type its parameter declares — the connection as its record, an
// integer as a count even when the parser read a negative one, a DNS list
// as a vector of that element type — from either parser.
func TestInterpArgTypes(t *testing.T) {
	const conn = "*bro.RecordVal{id:*bro.RecordVal{orig_h:bro.AddrVal orig_p:bro.PortVal resp_h:bro.AddrVal resp_p:bro.PortVal} uid:bro.StringVal start_time:bro.TimeVal}"
	want := map[string][]string{
		"connection_established": {conn},
		"http_request":           {conn, "bro.StringVal", "bro.StringVal", "bro.StringVal"},
		"http_reply":             {conn, "bro.StringVal", "bro.CountVal", "bro.StringVal"},
		"http_header":            {conn, "bro.BoolVal", "bro.StringVal", "bro.StringVal"},
		"http_body":              {conn, "bro.BoolVal", "bro.StringVal", "bro.StringVal", "bro.CountVal"},
		"http_message_done":      {conn, "bro.BoolVal"},
		"dns_request":            {conn, "bro.CountVal", "bro.StringVal", "bro.CountVal"},
		"dns_response":           {conn, "bro.CountVal", "bro.CountVal", "*bro.VectorVal[bro.StringVal]", "*bro.VectorVal[bro.IntervalVal]"},
		"bro_done":               {"bro.StringVal"}, // the marker
	}
	if len(want) != int(numEvents) {
		t.Fatalf("the table covers %d events, the engine raises %d", len(want), numEvents)
	}
	for _, parser := range []string{"standard", "binpac"} {
		e := mustEngine(t, Config{Parser: parser, ScriptExec: "interp", Scripts: []string{argLogger}, Quiet: true})
		seen := map[string][]map[string]bool{} // event -> per argument, the types it came as
		negative := false
		e.interp.LogWrite = func(event string, rec *RecordVal) {
			if seen[event] == nil {
				seen[event] = make([]map[string]bool, len(rec.F))
				for i := range rec.F {
					seen[event][i] = map[string]bool{}
				}
			}
			for i, v := range rec.F {
				if vec, ok := v.(*VectorVal); !ok || len(vec.Elems) > 0 {
					seen[event][i][valType(v)] = true
				}
			}
			if event == "http_reply" && rec.F[3] == StringVal("X") {
				negative = rec.F[2] == CountVal(^uint64(4)) // -5, as the parser read it
			}
		}
		for _, p := range append(smallHTTPTrace(t), smallDNSTrace(t)...) {
			e.SafeProcessPacket(p.Time.UnixNano(), p.Data)
		}
		// A status line with a negative code: the standard parser reads
		// -5, which the script declared a count.
		e.SafeProcessPacket(1, tcpDataFrame(cliAddr, srvAddr, 41000, 80, 1000, []byte("GET / HTTP/1.1\r\n\r\n")))
		e.SafeProcessPacket(2, tcpDataFrame(srvAddr, cliAddr, 80, 41000, 1000, []byte("HTTP/1.1 -5 X\r\n\r\n")))
		e.Finish()

		for event, args := range want {
			got := make([]string, len(seen[event]))
			for i, types := range seen[event] {
				got[i] = strings.Join(sortedKeys(types), "|")
			}
			if !slices.Equal(got, args) {
				t.Errorf("%s: %s handlers got\n  %q\nwant\n  %q", parser, event, got, args)
			}
		}
		if parser == "standard" && !negative {
			t.Errorf("standard: http_reply did not get -5 as CountVal(-5)")
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// valType is v's dynamic type; a record's lists its fields', a vector's
// its elements' (each once).
func valType(v Val) string {
	switch v := v.(type) {
	case *RecordVal:
		var fs []string
		for i, f := range v.F {
			fs = append(fs, v.T.Fields[i]+":"+valType(f))
		}
		return fmt.Sprintf("%T{%s}", v, strings.Join(fs, " "))
	case *VectorVal:
		elems := map[string]bool{}
		for _, el := range v.Elems {
			elems[valType(el)] = true
		}
		return fmt.Sprintf("%T[%s]", v, strings.Join(sortedKeys(elems), " "))
	}
	return fmt.Sprintf("%T", v)
}
