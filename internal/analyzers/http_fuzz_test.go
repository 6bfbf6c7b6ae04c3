package analyzers

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"hilti/internal/pkt/gen"
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
		orig, resp := gen.HTTPStreams(spec, true)
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
	orig, resp := gen.HTTPStreams(spec, true)
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
