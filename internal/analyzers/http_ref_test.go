package analyzers

import (
	"bytes"
	"crypto/sha1"
	"encoding/hex"
	"strconv"
	"strings"
)

// refHTTPParser is the permanent reference for HTTPParser: the
// buffer-everything parser the streaming one replaced. It appends every
// delivery to one buffer per direction, collects each body whole and hashes
// it at the end of the message. Keep it as it is; FuzzHTTPSplits holds the
// streaming parser to its event sequence. Its header dispatch compares names
// with strings.EqualFold, as HTTPParser's does (a lowered copy would treat a
// few non-ASCII names differently; that is not what the target checks), and
// a header value is without the whitespace around it, as in HTTPParser.
type refHTTPParser struct {
	ev      HTTPEvents
	orig    refHTTPDir
	resp    refHTTPDir
	methods []string
}

type refHTTPDir struct {
	buf    []byte
	state  httpState
	isOrig bool
	remain int
	ctype  string
	body   []byte
	isHead bool
	status int
}

func newRefHTTPParser(ev HTTPEvents) *refHTTPParser {
	p := &refHTTPParser{ev: ev}
	p.orig.isOrig = true
	return p
}

func (p *refHTTPParser) dir(isOrig bool) *refHTTPDir {
	if isOrig {
		return &p.orig
	}
	return &p.resp
}

func (p *refHTTPParser) Deliver(isOrig bool, data []byte) {
	d := p.dir(isOrig)
	if d.state == httpDead {
		return
	}
	d.buf = append(d.buf, data...)
	p.drain(d, false)
}

func (p *refHTTPParser) EndOfData(isOrig bool) {
	d := p.dir(isOrig)
	p.drain(d, true)
	if d.state == httpBodyEOF {
		d.body = append(d.body, d.buf...)
		d.buf = nil
		p.finishMessage(d)
	}
}

func (p *refHTTPParser) drain(d *refHTTPDir, eof bool) {
	for {
		switch d.state {
		case httpFirstLine:
			line, ok := refTakeLine(&d.buf)
			if !ok {
				return
			}
			if len(line) == 0 {
				continue
			}
			if !p.firstLine(d, line) {
				d.state = httpDead
				return
			}
		case httpHeaders:
			line, ok := refTakeLine(&d.buf)
			if !ok {
				return
			}
			if len(line) == 0 {
				p.headersDone(d)
				continue
			}
			colon := bytes.IndexByte(line, ':')
			if colon < 0 {
				p.ev.ParseError(d.isOrig, "malformed header")
				d.state = httpDead
				return
			}
			name := string(line[:colon])
			value := strings.Trim(string(line[colon+1:]), " \t")
			p.ev.Header(d.isOrig, name, value)
			switch {
			case strings.EqualFold(name, "content-length"):
				if n, err := strconv.Atoi(value); err == nil && n >= 0 {
					d.remain = n
				}
			case strings.EqualFold(name, "transfer-encoding"):
				if strings.EqualFold(strings.TrimSpace(value), "chunked") {
					d.remain = -1
				}
			case strings.EqualFold(name, "content-type"):
				d.ctype = value
			}
		case httpBodyLength:
			n := min(d.remain, len(d.buf))
			d.body = append(d.body, d.buf[:n]...)
			d.buf = d.buf[n:]
			d.remain -= n
			if d.remain > 0 {
				return
			}
			p.finishMessage(d)
		case httpChunkSize:
			line, ok := refTakeLine(&d.buf)
			if !ok {
				return
			}
			sizeStr := string(line)
			if i := strings.IndexAny(sizeStr, "; \t"); i >= 0 {
				sizeStr = sizeStr[:i]
			}
			n, err := strconv.ParseInt(sizeStr, 16, 32)
			if err != nil || n < 0 {
				p.ev.ParseError(d.isOrig, "bad chunk size")
				d.state = httpDead
				return
			}
			if n == 0 {
				d.state = httpTrailer
				continue
			}
			d.remain = int(n)
			d.state = httpChunkData
		case httpChunkData:
			n := min(d.remain, len(d.buf))
			d.body = append(d.body, d.buf[:n]...)
			d.buf = d.buf[n:]
			d.remain -= n
			if d.remain > 0 {
				return
			}
			d.state = httpChunkCRLF
		case httpChunkCRLF:
			if _, ok := refTakeLine(&d.buf); !ok {
				return
			}
			d.state = httpChunkSize
		case httpTrailer:
			line, ok := refTakeLine(&d.buf)
			if !ok {
				return
			}
			if len(line) == 0 {
				p.finishMessage(d)
			}
		case httpBodyEOF:
			if !eof {
				return
			}
			d.body = append(d.body, d.buf...)
			d.buf = nil
			p.finishMessage(d)
			return
		case httpDead:
			return
		}
	}
}

func (p *refHTTPParser) firstLine(d *refHTTPDir, line []byte) bool {
	parts := strings.SplitN(string(line), " ", 3)
	d.body = nil
	d.remain = 0
	d.ctype = ""
	d.isHead = false
	if d.isOrig {
		if len(parts) < 3 || !strings.HasPrefix(parts[2], "HTTP/") {
			p.ev.ParseError(true, "malformed request line")
			return false
		}
		p.ev.Request(parts[0], parts[1], parts[2])
		p.methods = append(p.methods, parts[0])
		d.state = httpHeaders
		return true
	}
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		p.ev.ParseError(false, "malformed status line")
		return false
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		p.ev.ParseError(false, "malformed status code")
		return false
	}
	reason := ""
	if len(parts) == 3 {
		reason = parts[2]
	}
	d.status = code
	if len(p.methods) > 0 {
		d.isHead = p.methods[0] == "HEAD"
		p.methods = p.methods[1:]
	}
	p.ev.Reply(parts[0], code, reason)
	d.state = httpHeaders
	return true
}

func (p *refHTTPParser) headersDone(d *refHTTPDir) {
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
		p.finishMessage(d)
	default:
		d.state = httpBodyEOF
	}
}

func (p *refHTTPParser) finishMessage(d *refHTTPDir) {
	if len(d.body) > 0 {
		sum := sha1.Sum(d.body)
		ctype := d.ctype
		if ctype == "" {
			ctype = refSniffMIME(d.body)
		}
		p.ev.Body(d.isOrig, ctype, hex.EncodeToString(sum[:]), len(d.body))
	}
	p.ev.MessageDone(d.isOrig)
	d.body = nil
	d.state = httpFirstLine
}

func refTakeLine(buf *[]byte) ([]byte, bool) {
	i := bytes.IndexByte(*buf, '\n')
	if i < 0 {
		return nil, false
	}
	line := (*buf)[:i]
	*buf = (*buf)[i+1:]
	return bytes.TrimSuffix(line, []byte("\r")), true
}

func refSniffMIME(body []byte) string {
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
