package grammars

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"strings"
	"testing"

	"hilti/internal/analyzers"
	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/vm"
	"hilti/internal/rt/container"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

func linkExec(t *testing.T, mods []*ast.Module) *vm.Exec {
	t.Helper()
	prog, err := vm.Link(mods...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

type httpEvent struct {
	kind string
	args []string
}

// registerHTTPHost wires the bro_* callbacks into a capture list.
func registerHTTPHost(ex *vm.Exec, events *[]httpEvent, headMethods map[int64]bool) {
	rec := func(kind string) vm.HostFunc {
		return func(_ *vm.Exec, args []values.Value) (values.Value, error) {
			ev := httpEvent{kind: kind}
			for _, a := range args {
				ev.args = append(ev.args, values.Format(a))
			}
			*events = append(*events, ev)
			return values.Nil, nil
		}
	}
	ex.RegisterHost("bro_http_request", rec("request"))
	ex.RegisterHost("bro_http_reply", rec("reply"))
	ex.RegisterHost("bro_http_header", rec("header"))
	ex.RegisterHost("bro_http_body", rec("body"))
	ex.RegisterHost("bro_http_message_done", rec("done"))
	ex.RegisterHost("bro_http_pick_body", func(_ *vm.Exec, args []values.Value) (values.Value, error) {
		ctx := args[0].AsInt()
		status := args[1].AsInt()
		kind := args[2].AsInt()
		if status == 304 || status == 204 || status/100 == 1 || headMethods[ctx] {
			return values.Int(BodyNone), nil
		}
		return values.Int(kind), nil
	})
}

func TestHTTPRequestsStream(t *testing.T) {
	mods, err := HTTPModules()
	if err != nil {
		t.Fatal(err)
	}
	ex := linkExec(t, mods)
	var events []httpEvent
	registerHTTPHost(ex, &events, map[int64]bool{})

	stream := "GET /a HTTP/1.1\r\nHost: example.com\r\n\r\n" +
		"POST /b HTTP/1.1\r\nContent-Length: 5\r\nContent-Type: text/plain\r\n\r\nhello"
	data := hbytes.NewFrom([]byte(stream))
	data.Freeze()

	self := values.StructVal(values.NewStruct(
		mods[0].Types["Requests"].StructDef.Runtime()))
	cur := values.IterBytes(data.Begin())
	if _, err := ex.Call("HTTP::parse_Requests", self, cur, values.Int(7)); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	for _, ev := range events {
		kinds = append(kinds, ev.kind)
	}
	want := "request header done request header header body done"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("events = %q, want %q", got, want)
	}
	// First request's fields.
	if events[0].args[1] != "GET" || events[0].args[2] != "/a" {
		t.Fatalf("request event args = %v", events[0].args)
	}
	// The body event carries the digest, the length and the first bytes,
	// not the body.
	if got, want := events[6].args[3:], []string{sha1Hex("hello"), "5", "hell"}; !slices.Equal(got, want) {
		t.Fatalf("body event args = %v, want %v after ctx, is_orig, ctype", events[6].args, want)
	}
}

func sha1Hex(s string) string {
	sum := sha1.Sum([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestHTTPRepliesStream(t *testing.T) {
	mods, err := HTTPModules()
	if err != nil {
		t.Fatal(err)
	}
	ex := linkExec(t, mods)
	var events []httpEvent
	registerHTTPHost(ex, &events, map[int64]bool{})

	body := "0123456789"
	chunked := "3;ext=1\r\n012\r\n7\r\n3456789\r\n0\r\nX-Trailer: t\r\n\r\n"
	stream := "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 10\r\n\r\n" + body +
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 0\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked
	data := hbytes.NewFrom([]byte(stream))
	data.Freeze()
	self := values.StructVal(values.NewStruct(mods[0].Types["Replies"].StructDef.Runtime()))
	if _, err := ex.Call("HTTP::parse_Replies", self, values.IterBytes(data.Begin()), values.Int(1)); err != nil {
		t.Fatal(err)
	}

	var replies, bodies []httpEvent
	for _, ev := range events {
		switch ev.kind {
		case "reply":
			replies = append(replies, ev)
		case "body":
			bodies = append(bodies, ev)
		}
	}
	if len(replies) != 3 {
		t.Fatalf("replies = %d", len(replies))
	}
	if replies[0].args[2] != "200" || replies[1].args[2] != "304" {
		t.Fatalf("statuses: %v %v", replies[0].args, replies[1].args)
	}
	if len(bodies) != 2 {
		t.Fatalf("bodies = %d (chunked not reassembled?)", len(bodies))
	}
	// The chunked body digests, counts and heads as the plain one does; its
	// head spans two chunks.
	for _, ev := range bodies {
		if got, want := ev.args[3:], []string{sha1Hex(body), "10", "0123"}; !slices.Equal(got, want) {
			t.Fatalf("body event args = %v, want %v after ctx, is_orig, ctype", ev.args, want)
		}
	}
}

func TestHTTPIncrementalAcrossSegments(t *testing.T) {
	mods, err := HTTPModules()
	if err != nil {
		t.Fatal(err)
	}
	ex := linkExec(t, mods)
	var events []httpEvent
	registerHTTPHost(ex, &events, map[int64]bool{})

	stream := "GET /long/path HTTP/1.1\r\nHost: www.example.com\r\nAccept: */*\r\n\r\n"
	data := hbytes.New()
	self := values.StructVal(values.NewStruct(mods[0].Types["Requests"].StructDef.Runtime()))
	r := ex.FiberCall(ex.Prog.Fn("HTTP::parse_Requests"), self, values.IterBytes(data.Begin()), values.Int(9))

	for i := 0; i < len(stream); i += 7 {
		j := i + 7
		if j > len(stream) {
			j = len(stream)
		}
		data.Append([]byte(stream[i:j]))
		if _, done, err := r.Resume(); err != nil {
			t.Fatalf("at %d: %v", i, err)
		} else if done {
			t.Fatalf("completed early at %d", i)
		}
	}
	data.Freeze()
	if _, done, err := r.Resume(); err != nil || !done {
		t.Fatalf("final: done=%v err=%v", done, err)
	}
	if len(events) == 0 || events[0].kind != "request" || events[0].args[2] != "/long/path" {
		t.Fatalf("events = %v", events)
	}
}

// buildDNSMessage assembles a response with a compressed answer name.
func buildDNSMessage() []byte {
	var buf []byte
	hdr := make([]byte, 12)
	binary.BigEndian.PutUint16(hdr[0:2], 0xBEEF)
	binary.BigEndian.PutUint16(hdr[2:4], 0x8180)
	binary.BigEndian.PutUint16(hdr[4:6], 1) // qd
	binary.BigEndian.PutUint16(hdr[6:8], 2) // an
	buf = append(buf, hdr...)
	// Question: www.example.com A IN (name at offset 12).
	for _, l := range []string{"www", "example", "com"} {
		buf = append(buf, byte(len(l)))
		buf = append(buf, l...)
	}
	buf = append(buf, 0)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	// Answer 1: pointer to offset 12, A record.
	buf = append(buf, 0xC0, 12)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, 3600)
	buf = binary.BigEndian.AppendUint16(buf, 4)
	buf = append(buf, 93, 184, 216, 34)
	// Answer 2: TXT with two character-strings.
	buf = append(buf, 0xC0, 12)
	buf = binary.BigEndian.AppendUint16(buf, 16)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, 60)
	txt := []byte{3, 'a', 'b', 'c', 2, 'd', 'e'}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(txt)))
	buf = append(buf, txt...)
	return buf
}

func TestDNSParseWithCompression(t *testing.T) {
	mods, err := DNSModules()
	if err != nil {
		t.Fatal(err)
	}
	ex := linkExec(t, mods)
	var captured values.Value
	ex.RegisterHost("bro_dns_message", func(_ *vm.Exec, args []values.Value) (values.Value, error) {
		captured = args[1]
		return values.Nil, nil
	})

	msg := buildDNSMessage()
	self := values.StructVal(values.NewStruct(mods[0].Types["Message"].StructDef.Runtime()))
	data := hbytes.NewFrom(msg)
	data.Freeze()
	cur := values.IterBytes(data.Begin())
	if _, err := ex.Call("DNS::parse_Message", self, cur, values.Int(1)); err != nil {
		t.Fatal(err)
	}
	if captured.IsNil() {
		t.Fatal("no dns message event")
	}
	s := captured.AsStruct()
	id, _ := s.GetName("id")
	if id.AsInt() != 0xBEEF {
		t.Fatalf("id = %#x", id.AsInt())
	}
	qs, _ := s.GetName("questions")
	qvec := qs.O.(*container.Vector)
	if qvec.Len() != 1 {
		t.Fatalf("questions = %d", qvec.Len())
	}
	q0, _ := qvec.Get(0)
	qname, _ := q0.AsStruct().GetName("qname")
	if qname.AsBytes().String() != "www.example.com" {
		t.Fatalf("qname = %q", qname.AsBytes().String())
	}
	ans, _ := s.GetName("answers")
	avec := ans.O.(*container.Vector)
	if avec.Len() != 2 {
		t.Fatalf("answers = %d", avec.Len())
	}
	a0, _ := avec.Get(0)
	name0, _ := a0.AsStruct().GetName("name")
	if name0.AsBytes().String() != "www.example.com" {
		t.Fatalf("compressed name = %q", name0.AsBytes().String())
	}
	a, _ := a0.AsStruct().GetName("addr")
	if a.AsBytes().Len() != 4 {
		t.Fatal("A rdata")
	}
	a1, _ := avec.Get(1)
	txt, _ := a1.AsStruct().GetName("target")
	if txt.AsBytes().String() != "abc,de" {
		t.Fatalf("txt = %q (all strings should be extracted)", txt.AsBytes().String())
	}
}

// TestDNSRRMembers: the rdata alternatives share members, so an RR is 9
// members, not one per alternative's field.
func TestDNSRRMembers(t *testing.T) {
	mods, err := DNSModules()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range mods[0].Types["RR"].StructDef.Fields {
		names = append(names, f.Name)
	}
	if got, want := strings.Join(names, " "), "name rtype class ttl rdlen addr target mx_pref raw"; got != want {
		t.Fatalf("RR members %q, want %q", got, want)
	}
}

// TestDNSRejectsTXTOverrun: a TXT character-string that claims more bytes
// than its rdata holds is a parse error — the standard parser rejects it
// too — even when the datagram has enough bytes after the rdata to satisfy
// the claim.
func TestDNSRejectsTXTOverrun(t *testing.T) {
	msg := []byte{0xBE, 0xEF, 0x81, 0x80, 0, 0, 0, 1, 0, 0, 0, 0} // one answer
	msg = append(msg, 0)                                          // root name
	msg = binary.BigEndian.AppendUint16(msg, DNSTypeTXT)
	msg = binary.BigEndian.AppendUint16(msg, 1)
	msg = binary.BigEndian.AppendUint32(msg, 60)
	msg = binary.BigEndian.AppendUint16(msg, 3)
	msg = append(msg, 5, 'a', 'b', 'c', 'd', 'e') // rdata "\x05ab", then 3 more bytes
	if _, err := analyzers.ParseDNS(msg); err == nil {
		t.Fatal("the standard parser accepts the datagram")
	}

	mods, err := DNSModules()
	if err != nil {
		t.Fatal(err)
	}
	ex := linkExec(t, mods)
	accepted := false
	ex.RegisterHost("bro_dns_message", func(_ *vm.Exec, args []values.Value) (values.Value, error) {
		accepted = true
		return values.Nil, nil
	})
	self := values.StructVal(values.NewStruct(mods[0].Types["Message"].StructDef.Runtime()))
	data := hbytes.NewFrom(msg)
	data.Freeze()
	_, err = ex.Call("DNS::parse_Message", self, values.IterBytes(data.Begin()), values.Int(1))
	var exc *values.Exception
	if !errors.As(err, &exc) || exc.Name != "BinPAC::ParseError" || accepted {
		t.Fatalf("parse: %v (message accepted: %v), want BinPAC::ParseError", err, accepted)
	}
}

func TestDNSRejectsTruncatedHeader(t *testing.T) {
	mods, err := DNSModules()
	if err != nil {
		t.Fatal(err)
	}
	ex := linkExec(t, mods)
	ex.RegisterHost("bro_dns_message", func(_ *vm.Exec, args []values.Value) (values.Value, error) {
		return values.Nil, nil
	})
	self := values.StructVal(values.NewStruct(mods[0].Types["Message"].StructDef.Runtime()))
	data := hbytes.NewFrom([]byte{0x12})
	data.Freeze()
	cur := values.IterBytes(data.Begin())
	if _, err := ex.Call("DNS::parse_Message", self, cur, values.Int(1)); err == nil {
		t.Fatal("truncated message accepted")
	}
}

func TestSSHModulesEndToEnd(t *testing.T) {
	mods, spec, err := SSHModules()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Port != 22 || spec.TopUnit != "Banner" {
		t.Fatalf("spec = %+v", spec)
	}
	ex := linkExec(t, mods)
	var got []string
	ex.RegisterHost("bro_event_ssh_banner", func(_ *vm.Exec, args []values.Value) (values.Value, error) {
		got = append(got, values.Format(args[0])+" "+values.Format(args[1]))
		return values.Nil, nil
	})
	_, err = ex.Call("SSH::Banner_parse", values.BytesFrom([]byte("SSH-1.99-OpenSSH_3.9p1\r\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "1.99 OpenSSH_3.9p1" {
		t.Fatalf("got %v", got)
	}
}
