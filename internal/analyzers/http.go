// Package analyzers contains the hand-written "standard" protocol parsers
// that play the role of Bro's manually written C++ HTTP and DNS analyzers
// in the paper's §6.4 comparison. They are written in the traditional
// style the paper contrasts BinPAC++ against: explicit per-connection
// state machines over stream data, with manual buffering of incomplete
// input.
package analyzers

import (
	"bytes"
	"crypto/sha1"
	"encoding"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"strings"
)

// HTTPEvents receives parse results (one implementation per connection).
type HTTPEvents interface {
	Request(method, uri, version string)
	Reply(version string, code int, reason string)
	Header(isOrig bool, name, value string)
	Body(isOrig bool, ctype, sha1hex string, n int)
	MessageDone(isOrig bool)
	ParseError(isOrig bool, msg string)
}

// httpState enumerates the per-direction parser states.
type httpState int

const (
	httpFirstLine httpState = iota
	httpHeaders
	httpBodyLength
	httpChunkSize
	httpChunkData
	httpChunkCRLF
	httpTrailer
	httpBodyEOF
	httpDead
)

// httpDir is one direction's state machine. A body is hashed as it passes:
// only its digest, length and first bytes are kept. (Field order keeps the
// struct at 96 bytes; HTTPParser holds two per connection.)
type httpDir struct {
	buf    []byte    // incomplete input (a partial line) carried to the next Deliver
	sum    hash.Hash // SHA-1 of the body so far; made at the first body byte, then reused
	ctype  string
	state  httpState
	remain int // body/chunk bytes still expected
	n      int // body bytes hashed
	status int
	head   [4]byte // the body's first bytes, for SniffMIME
	isOrig bool
	isHead bool // response to a HEAD request
}

// HTTPParser parses both directions of one HTTP connection.
type HTTPParser struct {
	ev      HTTPEvents
	orig    httpDir
	resp    httpDir
	methods []string // outstanding request methods (for HEAD responses)
}

// NewHTTPParser creates a parser delivering to ev.
func NewHTTPParser(ev HTTPEvents) *HTTPParser {
	p := &HTTPParser{ev: ev}
	p.orig.isOrig = true
	return p
}

func (p *HTTPParser) dir(isOrig bool) *httpDir {
	if isOrig {
		return &p.orig
	}
	return &p.resp
}

// Deliver feeds reassembled stream data for one direction. data is borrowed
// for the call: it is parsed in place, and only an incomplete tail is copied
// into the direction's buffer.
func (p *HTTPParser) Deliver(isOrig bool, data []byte) {
	d := p.dir(isOrig)
	if d.state == httpDead {
		return
	}
	if len(d.buf) > 0 {
		d.buf = append(d.buf, data...)
		data = d.buf
	}
	d.buf = append(d.buf[:0], p.drain(d, data, false)...)
}

// EndOfData signals connection close for a direction.
func (p *HTTPParser) EndOfData(isOrig bool) {
	d := p.dir(isOrig)
	d.buf = append(d.buf[:0], p.drain(d, d.buf, true)...)
}

// drain parses as much of in as it can and returns the unconsumed rest.
func (p *HTTPParser) drain(d *httpDir, in []byte, eof bool) []byte {
	for {
		switch d.state {
		case httpFirstLine:
			line, rest, ok := cutLine(in)
			if !ok {
				return in
			}
			in = rest
			if len(line) == 0 {
				continue // tolerate stray blank lines between messages
			}
			if !p.firstLine(d, line) {
				d.state = httpDead
				return in
			}
		case httpHeaders:
			line, rest, ok := cutLine(in)
			if !ok {
				return in
			}
			in = rest
			if len(line) == 0 {
				p.headersDone(d)
				continue
			}
			if !p.header(d, line) {
				d.state = httpDead
				return in
			}
		case httpBodyLength, httpChunkData:
			n := min(d.remain, len(in))
			d.digest(in[:n])
			in = in[n:]
			d.remain -= n
			if d.remain > 0 {
				return in
			}
			if d.state == httpChunkData {
				d.state = httpChunkCRLF
			} else {
				p.finishMessage(d)
			}
		case httpChunkSize:
			line, rest, ok := cutLine(in)
			if !ok {
				return in
			}
			in = rest
			sizeStr := string(line)
			if i := strings.IndexAny(sizeStr, "; \t"); i >= 0 {
				sizeStr = sizeStr[:i]
			}
			n, err := strconv.ParseInt(sizeStr, 16, 32)
			if err != nil || n < 0 {
				p.ev.ParseError(d.isOrig, "bad chunk size")
				d.state = httpDead
				return in
			}
			if n == 0 {
				d.state = httpTrailer
				continue
			}
			d.remain = int(n)
			d.state = httpChunkData
		case httpChunkCRLF:
			_, rest, ok := cutLine(in)
			if !ok {
				return in
			}
			in = rest
			d.state = httpChunkSize
		case httpTrailer:
			line, rest, ok := cutLine(in)
			if !ok {
				return in
			}
			in = rest
			if len(line) == 0 {
				p.finishMessage(d)
			}
		case httpBodyEOF:
			// The body runs until close: everything so far is body.
			d.digest(in)
			in = in[len(in):]
			if eof {
				p.finishMessage(d)
			}
			return in
		default: // httpDead
			return in
		}
	}
}

// header raises one header event and records the three headers that frame
// the body; false means the line is malformed. Name and value share one copy
// of the line; the value is without the whitespace around it (RFC 7230
// §3.2.4).
func (p *HTTPParser) header(d *httpDir, line []byte) bool {
	name, value, ok := strings.Cut(string(line), ":")
	if !ok {
		p.ev.ParseError(d.isOrig, "malformed header")
		return false
	}
	value = strings.Trim(value, " \t")
	p.ev.Header(d.isOrig, name, value)
	switch {
	case strings.EqualFold(name, "content-length"):
		if n, err := strconv.Atoi(value); err == nil && n >= 0 {
			d.remain = n
		}
	case strings.EqualFold(name, "transfer-encoding"):
		if strings.EqualFold(strings.TrimSpace(value), "chunked") {
			d.remain = -1 // chunked marker
		}
	case strings.EqualFold(name, "content-type"):
		d.ctype = value
	}
	return true
}

// firstLine parses a request or status line: up to three fields split at
// the first two spaces.
func (p *HTTPParser) firstLine(d *httpDir, line []byte) bool {
	f0, rest, two := strings.Cut(string(line), " ")
	f1, f2, three := strings.Cut(rest, " ")
	d.n = 0
	d.remain = 0
	d.ctype = ""
	d.isHead = false
	if d.isOrig {
		if !three || !strings.HasPrefix(f2, "HTTP/") {
			p.ev.ParseError(true, "malformed request line")
			return false
		}
		p.ev.Request(f0, f1, f2)
		p.methods = append(p.methods, f0)
		d.state = httpHeaders
		return true
	}
	if !two || !strings.HasPrefix(f0, "HTTP/") {
		p.ev.ParseError(false, "malformed status line")
		return false
	}
	code, err := strconv.Atoi(f1)
	if err != nil {
		p.ev.ParseError(false, "malformed status code")
		return false
	}
	d.status = code
	if len(p.methods) > 0 {
		d.isHead = p.methods[0] == "HEAD"
		p.methods = p.methods[1:]
	}
	p.ev.Reply(f0, code, f2) // the reason, "" when absent
	d.state = httpHeaders
	return true
}

// headersDone decides the body framing after the blank line.
func (p *HTTPParser) headersDone(d *httpDir) {
	noBody := d.isHead || d.status == 304 || d.status == 204 ||
		(d.status >= 100 && d.status < 200 && !d.isOrig)
	switch {
	case noBody:
		p.finishMessage(d)
	case d.remain == -1:
		d.state = httpChunkSize
	case d.remain > 0:
		d.state = httpBodyLength
	case d.isOrig:
		// Requests without a length have no body.
		p.finishMessage(d)
	default:
		// Responses without length information run until close.
		d.state = httpBodyEOF
	}
}

// digest hashes body bytes as they pass; nothing accumulates.
func (d *httpDir) digest(b []byte) {
	if len(b) == 0 {
		return
	}
	if d.n == 0 {
		if d.sum == nil {
			d.sum = sha1.New()
		} else {
			d.sum.Reset()
		}
	}
	if d.n < len(d.head) {
		copy(d.head[d.n:], b)
	}
	d.sum.Write(b)
	d.n += len(b)
}

func (p *HTTPParser) finishMessage(d *httpDir) {
	if d.n > 0 {
		ctype := d.ctype
		if ctype == "" {
			ctype = SniffMIME(d.head[:min(d.n, len(d.head))])
		}
		var hexSum [2 * sha1.Size]byte
		hex.Encode(hexSum[:], d.sum.Sum(nil))
		p.ev.Body(d.isOrig, ctype, string(hexSum[:]), d.n)
	}
	p.ev.MessageDone(d.isOrig)
	d.n = 0
	d.state = httpFirstLine
}

// cutLine splits a CRLF- (or LF-) terminated line off the front of in.
func cutLine(in []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(in, '\n')
	if i < 0 {
		return nil, in, false
	}
	line = in[:i]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, in[i+1:], true
}

// SniffMIME guesses a content type from a body's first bytes — it reads at
// most four — when no Content-Type header names one. Both HTTP parser
// families use it.
func SniffMIME(body []byte) string {
	switch {
	case bytes.HasPrefix(body, []byte("\x89PNG")):
		return "image/png"
	case bytes.HasPrefix(body, []byte("<")):
		return "text/html"
	case bytes.HasPrefix(body, []byte("{")), bytes.HasPrefix(body, []byte("[")):
		return "application/json"
	default:
		return "text/plain"
	}
}

// HTTPDirState is the serializable state of one direction of an
// HTTPParser, for checkpoint/restore. A body in progress is its digest
// state, not its bytes.
type HTTPDirState struct {
	Buf     []byte
	State   int
	Remain  int
	Ctype   string
	Digest  []byte // the body digest's MarshalBinary state; nil while BodyLen is 0
	BodyLen int
	Head    []byte // the body's first min(BodyLen, 4) bytes
	IsHead  bool
	Status  int
}

func snapshotDir(d *httpDir) HTTPDirState {
	st := HTTPDirState{
		Buf:     append([]byte(nil), d.buf...),
		State:   int(d.state),
		Remain:  d.remain,
		Ctype:   d.ctype,
		BodyLen: d.n,
		IsHead:  d.isHead,
		Status:  d.status,
	}
	if d.n > 0 {
		// A SHA-1 digest's MarshalBinary cannot fail.
		st.Digest, _ = d.sum.(encoding.BinaryMarshaler).MarshalBinary()
		st.Head = append([]byte(nil), d.head[:min(d.n, len(d.head))]...)
	}
	return st
}

func restoreDir(d *httpDir, st HTTPDirState) error {
	state := httpState(st.State)
	switch {
	case state < httpFirstLine || state > httpDead:
		return fmt.Errorf("analyzers: http parser state %d out of range", st.State)
	case st.Remain < 0 && (state == httpBodyLength || state == httpChunkData):
		return fmt.Errorf("analyzers: http body with %d bytes to go", st.Remain)
	case st.BodyLen < 0 || len(st.Head) != min(st.BodyLen, len(d.head)):
		return fmt.Errorf("analyzers: http body of %d bytes with %d head bytes", st.BodyLen, len(st.Head))
	}
	if st.BodyLen > 0 {
		if d.sum == nil {
			d.sum = sha1.New()
		}
		if err := d.sum.(encoding.BinaryUnmarshaler).UnmarshalBinary(st.Digest); err != nil {
			return fmt.Errorf("analyzers: http body digest: %w", err)
		}
	}
	d.buf = append([]byte(nil), st.Buf...)
	d.state = state
	d.remain = st.Remain
	d.ctype = st.Ctype
	d.n = st.BodyLen
	d.head = [4]byte{}
	copy(d.head[:], st.Head)
	d.isHead = st.IsHead
	d.status = st.Status
	return nil
}

// SnapshotState captures both directions and the outstanding request
// methods for checkpointing; buffers are deep-copied.
func (p *HTTPParser) SnapshotState() (orig, resp HTTPDirState, methods []string) {
	return snapshotDir(&p.orig), snapshotDir(&p.resp), append([]string(nil), p.methods...)
}

// RestoreState rebuilds the parser from a checkpoint. The event sink and
// direction identities are untouched. A state that is out of range, or whose
// body digest does not unmarshal, is an error.
func (p *HTTPParser) RestoreState(orig, resp HTTPDirState, methods []string) error {
	if err := restoreDir(&p.orig, orig); err != nil {
		return err
	}
	if err := restoreDir(&p.resp, resp); err != nil {
		return err
	}
	p.methods = append([]string(nil), methods...)
	return nil
}
