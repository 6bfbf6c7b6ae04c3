package analyzers

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
)

// bodies returns the SHA-1s of the body events in l, in order.
func bodies(l httpLog) []string {
	var sums []string
	for _, e := range l {
		if f := strings.Fields(e); f[0] == "body" {
			sums = append(sums, f[3])
		}
	}
	return sums
}

func sha1hex(s string) string {
	sum := sha1.Sum([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestHTTPRequestResponse(t *testing.T) {
	var l httpLog
	p := NewHTTPParser(&l)
	p.Deliver(true, []byte("GET /x HTTP/1.1\r\nHost: a\r\n\r\n"))
	p.Deliver(false, []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello"))
	joined := strings.Join(l, "|")
	if !strings.Contains(joined, "req GET /x HTTP/1.1") {
		t.Fatalf("events: %v", l)
	}
	if !strings.Contains(joined, "body resp text/html "+sha1hex("hello")+" 5") {
		t.Fatalf("events: %v", l)
	}
}

func TestHTTPChunkedAcrossSegments(t *testing.T) {
	var l httpLog
	p := NewHTTPParser(&l)
	resp := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
	for i := 0; i < len(resp); i += 3 {
		p.Deliver(false, []byte(resp[i:min(i+3, len(resp))]))
	}
	if b := bodies(l); len(b) != 1 || b[0] != sha1hex("hello world") {
		t.Fatalf("bodies: %v", b)
	}
}

func TestHTTPHeadNoBody(t *testing.T) {
	var l httpLog
	p := NewHTTPParser(&l)
	p.Deliver(true, []byte("HEAD /x HTTP/1.1\r\nHost: a\r\n\r\n"))
	p.Deliver(false, []byte("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"))
	// The advertised body never arrives; the next response must still parse.
	p.Deliver(false, []byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"))
	joined := strings.Join(l, "|")
	if strings.Count(joined, "done") < 2 {
		t.Fatalf("events: %v", l)
	}
	if strings.Contains(joined, "err") {
		t.Fatalf("unexpected parse error: %v", l)
	}
}

func TestHTTPBodyUntilEOF(t *testing.T) {
	var l httpLog
	p := NewHTTPParser(&l)
	p.Deliver(false, []byte("HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nstream"))
	p.Deliver(false, []byte("-tail"))
	if len(bodies(l)) != 0 {
		t.Fatal("body should wait for EOF")
	}
	p.EndOfData(false)
	if b := bodies(l); len(b) != 1 || b[0] != sha1hex("stream-tail") {
		t.Fatalf("bodies: %v", b)
	}
}

func TestHTTPCrudRejected(t *testing.T) {
	var l httpLog
	p := NewHTTPParser(&l)
	p.Deliver(true, []byte("garbage bytes not http\r\nmore\r\n"))
	if !strings.Contains(strings.Join(l, "|"), "err") {
		t.Fatalf("crud accepted: %v", l)
	}
}

func buildDNS(id uint16, qname string, qtype uint16, answers int) []byte {
	buf := make([]byte, 12)
	binary.BigEndian.PutUint16(buf[0:2], id)
	binary.BigEndian.PutUint16(buf[2:4], 0x8180)
	binary.BigEndian.PutUint16(buf[4:6], 1)
	binary.BigEndian.PutUint16(buf[6:8], uint16(answers))
	for _, l := range strings.Split(qname, ".") {
		buf = append(buf, byte(len(l)))
		buf = append(buf, l...)
	}
	buf = append(buf, 0)
	buf = binary.BigEndian.AppendUint16(buf, qtype)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	for i := 0; i < answers; i++ {
		buf = append(buf, 0xC0, 12)
		buf = binary.BigEndian.AppendUint16(buf, 1)
		buf = binary.BigEndian.AppendUint16(buf, 1)
		buf = binary.BigEndian.AppendUint32(buf, 300)
		buf = binary.BigEndian.AppendUint16(buf, 4)
		buf = append(buf, 10, 0, 0, byte(i+1))
	}
	return buf
}

func TestDNSBasic(t *testing.T) {
	m, err := ParseDNS(buildDNS(0x1234, "www.example.com", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 0x1234 || !m.Response || m.Query != "www.example.com" || m.QType != 1 {
		t.Fatalf("msg: %+v", m)
	}
	if len(m.Answers) != 2 || m.Answers[0] != "10.0.0.1" || m.TTLs[0] != 300 {
		t.Fatalf("answers: %v %v", m.Answers, m.TTLs)
	}
}

func TestDNSTXTFirstStringOnly(t *testing.T) {
	buf := buildDNS(1, "t.example.com", 16, 0)
	// Append one TXT RR with two strings.
	binary.BigEndian.PutUint16(buf[6:8], 1)
	buf = append(buf, 0xC0, 12)
	buf = binary.BigEndian.AppendUint16(buf, 16)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, 60)
	txt := []byte{3, 'a', 'b', 'c', 2, 'd', 'e'}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(txt)))
	buf = append(buf, txt...)
	m, err := ParseDNS(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || m.Answers[0] != "abc" {
		t.Fatalf("answers: %v (standard parser takes only the first string)", m.Answers)
	}
}

func TestDNSCrudRejected(t *testing.T) {
	cases := [][]byte{
		{1, 2, 3},                      // short
		append(make([]byte, 12), 0xFF), // implausible? counts zero: fine, trailing junk ignored
	}
	if _, err := ParseDNS(cases[0]); err == nil {
		t.Fatal("short accepted")
	}
	// Implausible counts.
	bad := make([]byte, 12)
	binary.BigEndian.PutUint16(bad[4:6], 9999)
	if _, err := ParseDNS(bad); err == nil {
		t.Fatal("implausible counts accepted")
	}
	// Pointer loop.
	loop := buildDNS(1, "x", 1, 0)
	loop = append(loop, 0xC0, byte(len(loop))) // pointer to itself... craft below
	msg := make([]byte, 12)
	binary.BigEndian.PutUint16(msg[4:6], 1)
	msg = append(msg, 0xC0, 12) // name points at itself
	msg = append(msg, 0, 1, 0, 1)
	if _, err := ParseDNS(msg); err == nil {
		t.Fatal("pointer loop accepted")
	}
}

func TestDNSNameCompression(t *testing.T) {
	m, err := ParseDNS(buildDNS(7, "a.b.example.org", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Query != "a.b.example.org" {
		t.Fatalf("query %q", m.Query)
	}
}

func BenchmarkHTTPParse(b *testing.B) {
	msg := []byte("GET /index.html HTTP/1.1\r\nHost: www.example.com\r\nAccept: */*\r\n\r\n")
	var l httpLog
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewHTTPParser(&l)
		p.Deliver(true, msg)
		l = l[:0]
	}
}

func BenchmarkDNSParse(b *testing.B) {
	msg := buildDNS(9, "www.example.com", 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDNS(msg); err != nil {
			b.Fatal(err)
		}
	}
}
