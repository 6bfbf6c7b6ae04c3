//go:build !race

package binpac_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hilti/internal/binpac/grammars"
	"hilti/internal/hilti/vm"
	"hilti/internal/rt/container"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// TestDNSParseRecycles: with bro_dns_message a borrowing host, the DNS parse
// is decided recycling, and a datagram parsed through it in steady state —
// the host's rope and Message reset for each one — allocates nothing: the
// Message's vectors, the Question and RR structs, the name ropes and the
// rdata views all come from the Exec's free lists. At O1 and O2, the
// levels an engine runs; O0 still builds the tuples two-result ops and pair
// returns yield, which are not recycled. (Skipped under -race, whose
// instrumentation allocates.)
func TestDNSParseRecycles(t *testing.T) {
	if poisonBuild {
		t.Skip("under hiltipoison a released rope gives up its storage")
	}
	mods, err := grammars.DNSModules()
	if err != nil {
		t.Fatal(err)
	}
	for level := 1; level <= 2; level++ {
		prog, err := vm.LinkWith(vm.Options{OptLevel: level}, mods...)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := vm.NewExec(prog)
		if err != nil {
			t.Fatal(err)
		}
		msgs := 0
		ex.RegisterBorrowingHost("bro_dns_message", func(*vm.Exec, []values.Value) (values.Value, error) {
			msgs++
			return values.Nil, nil
		})
		fn := prog.Fn("DNS::parse_Message")
		if err := ex.Recycle(fn); err != nil {
			t.Fatalf("O%d: %v", level, err)
		}
		rope := hbytes.New()
		self := values.NewStruct(mods[0].Types["Message"].StructDef.Runtime())
		parse := func() {
			rope.Reset(dnsMessage)
			self.Reset()
			if _, err := ex.CallFn(fn, values.StructVal(self), values.IterBytes(rope.Begin()), values.Int(1)); err != nil {
				t.Fatal(err)
			}
		}
		parse() // fills the free lists
		if n := testing.AllocsPerRun(100, parse); n != 0 {
			t.Errorf("O%d: %.1f allocations per datagram, want 0", level, n)
		}
		if msgs != 102 {
			t.Errorf("O%d: bro_dns_message ran %d times, want 102", level, msgs)
		}
	}
}

// TestDNSLyingBorrowerFailsUnderPoison: a bro_dns_message that claims to
// borrow but keeps self, and a slice of the first question's name instead of
// a copy, reads them after the parse returned. The kept Message has been
// released either way: its questions read as empty, or as garbage under the
// hiltipoison tag. The kept slice is the aliasing the tag exists for: it
// still reads the parsed name without the tag, until a later datagram reuses
// the rope's storage, and garbage under it.
func TestDNSLyingBorrowerFailsUnderPoison(t *testing.T) {
	mods, err := grammars.DNSModules()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Link(mods...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		t.Fatal(err)
	}
	def := mods[0].Types["Message"].StructDef.Runtime()
	qname := func(msg *values.Struct) *hbytes.Bytes {
		if vec, ok := msg.Fields[def.Index("questions")].O.(*container.Vector); ok && vec.Len() > 0 {
			q, _ := vec.Get(0)
			if qs := q.AsStruct(); qs != nil {
				return qs.Fields[qs.Def.Index("qname")].AsBytes()
			}
		}
		return nil
	}
	var kept *values.Struct
	var alias []byte
	ex.RegisterBorrowingHost("bro_dns_message", func(_ *vm.Exec, args []values.Value) (values.Value, error) {
		kept = args[1].AsStruct()
		alias = qname(kept).Bytes()
		return values.Nil, nil
	})
	fn := prog.Fn("DNS::parse_Message")
	if err := ex.Recycle(fn); err != nil {
		t.Fatal(err)
	}
	rope := hbytes.New()
	rope.Reset(dnsMessage)
	if _, err := ex.CallFn(fn, values.StructVal(values.NewStruct(def)), values.IterBytes(rope.Begin()), values.Int(1)); err != nil {
		t.Fatal(err)
	}
	const want = "www.example.com"
	if n := qname(kept); n != nil && n.String() == want {
		t.Errorf("the kept Message still reads its question after the parse returned")
	}
	if caught := string(alias) != want; caught != poisonBuild {
		t.Errorf("kept name slice reads %q after the parse returned (hiltipoison build: %v)", alias, poisonBuild)
	}
}

// TestHTTPLyingBorrowerFailsUnderPoison: a bro_http_header that claims to
// borrow but keeps the view of each request's first header value, and reads
// it when the next request's line has parsed. The message that view belongs
// to has been released by then, and the view with it. Without the
// hiltipoison tag the lie reads as a plausible value: the view is empty, or
// a later token once it is taken again. With the tag it reads as garbage,
// bytes the stream does not hold.
func TestHTTPLyingBorrowerFailsUnderPoison(t *testing.T) {
	mods, err := grammars.HTTPModules()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Link(mods...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(*vm.Exec, []values.Value) (values.Value, error) { return values.Nil, nil }
	for _, name := range []string{"bro_http_reply", "bro_http_body", "bro_http_message_done"} {
		ex.RegisterBorrowingHost(name, noop)
	}
	ex.RegisterBorrowingHost("bro_http_pick_body", func(_ *vm.Exec, args []values.Value) (values.Value, error) { return args[2], nil })
	var kept *hbytes.Bytes
	var first bool
	var reads []string
	ex.RegisterBorrowingHost("bro_http_request", func(*vm.Exec, []values.Value) (values.Value, error) {
		if kept != nil {
			reads = append(reads, kept.String())
		}
		first = true
		return values.Nil, nil
	})
	ex.RegisterBorrowingHost("bro_http_header", func(_ *vm.Exec, args []values.Value) (values.Value, error) {
		if first {
			kept, first = args[3].AsBytes(), false
		}
		return values.Nil, nil
	})
	fn := prog.Fn("HTTP::parse_Requests_elem")
	if err := ex.Recycle(fn); err != nil {
		t.Fatal(err)
	}
	var stream strings.Builder
	for i := range 4 {
		fmt.Fprintf(&stream, "GET /%d HTTP/1.1\r\nHost: h%d.example.com\r\nAccept: */*\r\nUser-Agent: u%d\r\nX-N: %d\r\n\r\n", i, i, i, i)
	}
	rope := hbytes.New()
	self := values.NewStruct(mods[0].Types["Requests"].StructDef.Runtime())
	r := ex.FiberCall(prog.Fn("HTTP::parse_Requests"), values.StructVal(self), values.IterBytes(rope.Begin()), values.Int(1))
	if err := rope.Append([]byte(stream.String())); err != nil {
		t.Fatal(err)
	}
	if _, done, err := r.Resume(); done || err != nil {
		t.Fatalf("the parse ended (%v) before its input did", err)
	}
	if len(reads) != 3 {
		t.Fatalf("%d kept views read, want 3", len(reads))
	}
	garbage := slices.ContainsFunc(reads, func(s string) bool { return s != "" && !strings.Contains(stream.String(), s) })
	if garbage != poisonBuild {
		t.Errorf("kept views read %q after their messages were released (hiltipoison build: %v)", reads, poisonBuild)
	}
}
