package analyzers

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// httpLog records a parser's events, one line each, in order.
type httpLog []string

func side(isOrig bool) string {
	if isOrig {
		return "orig"
	}
	return "resp"
}

func (l *httpLog) Request(m, u, v string) { *l = append(*l, "req "+m+" "+u+" "+v) }
func (l *httpLog) Reply(v string, code int, reason string) {
	*l = append(*l, "rep "+v+" "+strconv.Itoa(code)+" "+reason)
}
func (l *httpLog) Header(isOrig bool, n, v string) { *l = append(*l, "hdr "+side(isOrig)+" "+n+"="+v) }
func (l *httpLog) Body(isOrig bool, ct, sum string, n int) {
	*l = append(*l, fmt.Sprintf("body %s %s %s %d", side(isOrig), ct, sum, n))
}
func (l *httpLog) MessageDone(isOrig bool)          { *l = append(*l, "done "+side(isOrig)) }
func (l *httpLog) ParseError(isOrig bool, m string) { *l = append(*l, "err "+side(isOrig)+" "+m) }

// specReader hands out a fuzz input's bytes as choices; past the end every
// choice is 0.
type specReader struct{ b []byte }

func (r *specReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return int(c)
}

// genHTTPStreams turns spec into a pipelined request stream and the reply
// stream that answers it: content-length, chunked and until-EOF bodies, HEAD,
// 304/204 and 1xx replies, and malformed input, with header names in varying
// case and bodies whose first bytes steer sniffMIME.
func genHTTPStreams(spec []byte) (orig, resp []byte) {
	r := &specReader{spec}
	var o, s bytes.Buffer
	heads := []string{"<html>", "{\"a\":1}", "[1,2]", "\x89PNG\r\n", "plain", "<", "x"}
	names := [][3]string{
		{"Content-Length", "Transfer-Encoding", "Content-Type"},
		{"content-length", "transfer-encoding", "content-type"},
		{"CONTENT-LENGTH", "TRANSFER-ENCODING", "CONTENT-TYPE"},
	}
	body := func() string {
		b := heads[r.next()%len(heads)]
		for n := r.next() % 48; n > 0; n-- {
			b += string(rune('a' + n%26))
		}
		return b
	}
	for msgs := 0; len(r.b) > 0 && msgs < 8; msgs++ {
		nm := names[r.next()%len(names)]
		ctype := ""
		if r.next()%2 == 0 {
			ctype = nm[2] + ": text/x-" + strconv.Itoa(msgs) + "\r\n"
		}
		switch kind := r.next() % 8; kind {
		case 0: // GET, content-length reply
			b := body()
			fmt.Fprintf(&o, "GET /%d HTTP/1.1\r\nHost: h\r\n\r\n", msgs)
			fmt.Fprintf(&s, "HTTP/1.1 200 OK\r\n%s%s: %d\r\n\r\n%s", ctype, nm[0], len(b), b)
		case 1: // POST with a body, empty reply
			b := body()
			fmt.Fprintf(&o, "POST /p HTTP/1.1\r\n%s%s:  %d\r\n\r\n%s", ctype, nm[0], len(b), b)
			fmt.Fprintf(&s, "HTTP/1.1 204 No Content\r\n\r\n")
		case 2: // chunked reply, chunk extensions and trailers
			fmt.Fprintf(&o, "GET /c HTTP/1.1\r\n\r\n")
			fmt.Fprintf(&s, "HTTP/1.1 200 OK\r\n%s%s: Chunked \r\n\r\n", ctype, nm[1])
			for n := 1 + r.next()%3; n > 0; n-- {
				b := body()
				ext := ""
				if r.next()%2 == 0 {
					ext = ";x=y"
				}
				fmt.Fprintf(&s, "%x%s\r\n%s\r\n", len(b), ext, b)
			}
			if r.next()%2 == 0 {
				s.WriteString("0\r\nX-Trailer: t\r\n\r\n")
			} else {
				s.WriteString("0\r\n\r\n")
			}
		case 3: // HEAD: the advertised body never comes
			fmt.Fprintf(&o, "HEAD /h HTTP/1.1\r\n\r\n")
			fmt.Fprintf(&s, "HTTP/1.1 200 OK\r\n%s: 100\r\n\r\n", nm[0])
		case 4: // 304 with a length header, 100 Continue before a reply
			fmt.Fprintf(&o, "GET /n HTTP/1.1\r\nIf-None-Match: x\r\n\r\n")
			fmt.Fprintf(&s, "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 304 Not Modified\r\n%s: 7\r\n\r\n", nm[0])
		case 5: // reply body until close: nothing can follow it
			fmt.Fprintf(&o, "GET /eof HTTP/1.0\r\n\r\n")
			fmt.Fprintf(&s, "HTTP/1.0 200 OK\r\n%s\r\n%s", ctype, body())
			return o.Bytes(), s.Bytes()
		case 6: // malformed
			switch r.next() % 4 {
			case 0:
				o.WriteString("garbage request\r\n")
			case 1:
				s.WriteString("HTTP/1.1 200 OK\r\nno colon here\r\n\r\n")
			case 2:
				s.WriteString("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n")
			default:
				s.WriteString("HTTP/1.1 abc OK\r\n\r\n")
			}
		case 7: // raw bytes from the input, on either side
			dst := &o
			if r.next()%2 == 1 {
				dst = &s
			}
			n := min(r.next()%64, len(r.b))
			dst.Write(r.b[:n])
			r.b = r.b[n:]
		}
	}
	return o.Bytes(), s.Bytes()
}

// runHTTPSplits feeds both streams to the streaming parser and to the
// reference, interleaved in chunks whose sizes and directions cuts names.
// Every chunk handed to the streaming parser is overwritten after its
// Deliver returns, and after delivery number snapAt the streaming parser is
// replaced by a fresh one restored from its SnapshotState. The event
// sequences must be equal.
func runHTTPSplits(t *testing.T, orig, resp, cuts []byte, snapAt int) {
	var want, got httpLog
	ref := newRefHTTPParser(&want)
	p := NewHTTPParser(&got)
	deliveries := 0
	deliver := func(isOrig bool, chunk []byte) {
		ref.Deliver(isOrig, chunk)
		lent := append([]byte(nil), chunk...)
		p.Deliver(isOrig, lent)
		for i := range lent {
			lent[i] = 'X'
		}
		deliveries++
		if deliveries == snapAt {
			o, r, m := p.SnapshotState()
			p = NewHTTPParser(&got)
			if err := p.RestoreState(o, r, m); err != nil {
				t.Fatalf("restore after delivery %d: %v", deliveries, err)
			}
			for _, b := range [][]byte{o.Buf, o.Digest, o.Head, r.Buf, r.Digest, r.Head} {
				for i := range b {
					b[i] = 'Y'
				}
			}
		}
	}
	rest := [2][]byte{orig, resp}
	for _, c := range cuts {
		dir := int(c & 1)
		if len(rest[dir]) == 0 {
			dir ^= 1
		}
		if len(rest[dir]) == 0 {
			break
		}
		n := min(1+int(c>>1)%48, len(rest[dir]))
		deliver(dir == 0, rest[dir][:n])
		rest[dir] = rest[dir][n:]
	}
	for dir, b := range rest {
		if len(b) > 0 {
			deliver(dir == 0, b)
		}
	}
	ref.EndOfData(true)
	ref.EndOfData(false)
	p.EndOfData(true)
	p.EndOfData(false)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		for i := 0; i < max(len(got), len(want)); i++ {
			g, w := "<none>", "<none>"
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("event %d differs (snapshot after delivery %d):\n  got  %q\n  want %q", i, snapAt, g, w)
			}
		}
	}
}

// FuzzHTTPSplits: the streaming parser's events equal the buffer-everything
// reference's for generated message streams split at fuzz-chosen boundaries,
// with a snapshot/restore round trip at one of them.
func FuzzHTTPSplits(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 20, 1, 0, 2, 0, 2, 3, 0, 3, 1, 0, 4, 2, 1, 5, 1, 7}, []byte{2, 3, 5, 7, 11, 13, 17, 19, 23}, uint8(3))
	f.Add([]byte{1, 1, 2, 1, 3, 0, 30, 0, 0, 4, 9, 2, 0, 9, 0, 0, 40, 1, 5, 9}, []byte{0, 1, 0, 1, 0, 1, 0, 1}, uint8(2))
	f.Add([]byte{2, 0, 6, 1, 0, 0, 0, 10, 0, 1, 7, 1, 20, 'H', 'T', 'T', 'P'}, []byte{255, 254, 1}, uint8(1))
	f.Add([]byte{0, 1, 6, 3, 1, 1, 0, 3, 0, 0, 5}, []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, spec, cuts []byte, snapAt uint8) {
		orig, resp := genHTTPStreams(spec)
		runHTTPSplits(t, orig, resp, cuts, int(snapAt)%(len(cuts)+2))
	})
}

// TestHTTPSplitsEveryOffset runs one stream of every message kind through
// runHTTPSplits at every chunk size, with a snapshot every third delivery.
func TestHTTPSplitsEveryOffset(t *testing.T) {
	spec := []byte{
		0, 0, 0, 3, 10, // GET, PNG body with a content type
		1, 1, 0, 5, 0, // GET, "<" body to sniff
		2, 0, 1, 1, 7, // POST with a body
		0, 1, 2, 2, 0, 5, 0, 4, 3, 1, 6, 40, 0, 0, // three chunks and a trailer
		1, 0, 3, // HEAD
		2, 1, 4, // 100 Continue, 304
		0, 0, 6, 0, // garbage request line: the request side dies
		1, 1, 5, 1, 30, // reply body until close
	}
	orig, resp := genHTTPStreams(spec)
	for size := 1; size <= 48; size++ {
		cuts := bytes.Repeat([]byte{byte(size-1) << 1, byte(size-1)<<1 | 1}, 64)
		for snapAt := 0; snapAt < 32; snapAt += 3 {
			runHTTPSplits(t, orig, resp, cuts, snapAt)
		}
	}
}

// TestHTTPDirFootprint: a direction holds a digest, not a body, and does so
// without growing the per-connection parser.
func TestHTTPDirFootprint(t *testing.T) {
	if strconv.IntSize == 64 && unsafe.Sizeof(httpDir{}) > 96 {
		t.Fatalf("httpDir is %d bytes, want at most 96", unsafe.Sizeof(httpDir{}))
	}
}

func TestHTTPRestoreRejectsBadDigest(t *testing.T) {
	var l httpLog
	p := NewHTTPParser(&l)
	p.Deliver(false, []byte("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"))
	o, r, m := p.SnapshotState()
	if r.BodyLen != 3 || len(r.Digest) == 0 || string(r.Head) != "abc" {
		t.Fatalf("mid-body state: %+v", r)
	}
	for name, mut := range map[string]func(st *HTTPDirState){
		"truncated digest": func(st *HTTPDirState) { st.Digest = st.Digest[:10] },
		"missing digest":   func(st *HTTPDirState) { st.Digest = nil },
		"short head":       func(st *HTTPDirState) { st.Head = st.Head[:1] },
		"state":            func(st *HTTPDirState) { st.State = 99 },
	} {
		bad := r
		bad.Digest = append([]byte(nil), r.Digest...)
		mut(&bad)
		if err := NewHTTPParser(&l).RestoreState(o, bad, m); err == nil {
			t.Errorf("%s: restore accepted", name)
		}
	}
}
