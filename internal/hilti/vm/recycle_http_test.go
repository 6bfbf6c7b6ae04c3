package vm

import (
	"fmt"
	"strings"
	"testing"

	"hilti/internal/binpac/grammars"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// TestParkedParsePinBound: a request of thousands of headers, fed in small
// segments, parks inside its message's recycling scope after almost every
// one. Its arena tracks at most maxPinned objects, whatever the message
// builds — the rest come from the heap. Once the next request's parse has
// returned too and the parse parks between messages, nothing is pinned, the
// free lists hold at most maxRecycled objects of each kind, and none is
// counted in use.
func TestParkedParsePinBound(t *testing.T) {
	mods, err := grammars.HTTPModules()
	if err != nil {
		t.Fatal(err)
	}
	ex := linkAt(t, 1, mods...)
	messages := 0
	noop := func(*Exec, []values.Value) (values.Value, error) { return values.Nil, nil }
	for _, name := range []string{"bro_http_request", "bro_http_reply", "bro_http_header", "bro_http_body"} {
		ex.RegisterBorrowingHost(name, noop)
	}
	ex.RegisterBorrowingHost("bro_http_pick_body", func(_ *Exec, args []values.Value) (values.Value, error) { return args[2], nil })
	ex.RegisterBorrowingHost("bro_http_message_done", func(*Exec, []values.Value) (values.Value, error) {
		messages++
		return values.Nil, nil
	})
	if err := ex.Recycle(ex.Prog.Fn("HTTP::parse_Requests_elem")); err != nil {
		t.Fatal(err)
	}

	const headers = 3000
	var req strings.Builder
	req.WriteString("GET /many HTTP/1.1\r\n")
	for i := range headers {
		fmt.Fprintf(&req, "X-Header-%d: value %d\r\n", i, i)
	}
	req.WriteString("\r\n")
	data := []byte(req.String() + "GET /next HTTP/1.1\r\nHost: h\r\n\r\n")

	rope := hbytes.New()
	self := values.NewStruct(mods[0].Types["Requests"].StructDef.Runtime())
	r := ex.FiberCall(ex.Prog.Fn("HTTP::parse_Requests"), values.StructVal(self), values.IterBytes(rope.Begin()), values.Int(1))
	peak := 0
	for len(data) > 0 {
		n := min(len(data), 61)
		if err := rope.Append(data[:n]); err != nil {
			t.Fatal(err)
		}
		data = data[n:]
		if _, done, err := r.Resume(); done {
			t.Fatalf("the parse ended (%v) before its input did", err)
		}
		peak = max(peak, len(r.rec.arena))
	}
	if messages != 2 {
		t.Fatalf("%d messages done, want 2", messages)
	}
	if pinned := len(r.rec.arena); pinned != 0 {
		t.Fatalf("parked between messages with %d objects pinned", pinned)
	}
	if peak != maxPinned {
		t.Errorf("a parked parse pinned at most %d objects, want the bound %d reached and kept", peak, maxPinned)
	}
	rec := ex.rec
	check := func(kind string, free, used int) {
		if free > maxRecycled || used != 0 {
			t.Errorf("%s: %d free, %d in use; want at most %d free and none in use", kind, free, used, maxRecycled)
		}
	}
	for _, p := range rec.structs {
		check(p.def.Name, len(p.free), p.used)
	}
	check("vectors", len(rec.vectors.free), rec.vectors.used)
	check("ropes", len(rec.ropes.free), rec.ropes.used)
	check("views", len(rec.views.free), rec.views.used)
	if len(rec.views.free) != maxRecycled {
		t.Errorf("%d free views after a message of %d headers, want a full list", len(rec.views.free), headers)
	}
}
