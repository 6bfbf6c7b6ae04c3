// Adversarial HTTP message streams for fuzz targets: the parsers are fed
// what these generate, split at fuzz-chosen offsets, and held to a
// reference or to each other.

package gen

import (
	"bytes"
	"fmt"
	"strconv"
)

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

// HTTPStreams turns spec — typically a fuzz input — into a pipelined
// request stream and the reply stream that answers it: content-length,
// chunked and until-EOF bodies, HEAD, 304/204 and 1xx replies, and
// malformed input, with header names in varying case and bodies whose first
// bytes steer MIME sniffing. With raw set, some messages are bytes taken
// from spec as they are, on either side. The same arguments always give the
// same streams.
func HTTPStreams(spec []byte, raw bool) (orig, resp []byte) {
	r := &specReader{spec}
	kinds := 7
	if raw {
		kinds = 8
	}
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
		switch kind := r.next() % kinds; kind {
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
