package bro

import (
	"bytes"
	"strings"
	"testing"

	"hilti/internal/pkt/gen"
)

// eventTrace prints every HTTP event with its arguments, in order: what the
// scripts see of a parser.
const eventTrace = `
event http_request(c: connection, method: string, uri: string, version: string) { print "request", method, uri, version; }
event http_reply(c: connection, version: string, code: count, reason: string) { print "reply", version, code, reason; }
event http_header(c: connection, is_orig: bool, name: string, value: string) { print "header", is_orig, name, value; }
event http_body(c: connection, is_orig: bool, mime: string, hash: string, n: count) { print "body", is_orig, mime, hash, n; }
event http_message_done(c: connection, is_orig: bool) { print "done", is_orig; }
`

// httpEvents feeds one connection's streams to an engine with the given
// parser — the request stream first, then the reply stream, cut into
// segments whose sizes cuts names in turn (the rest in one) — and returns
// the event lines its scripts saw.
func httpEvents(t *testing.T, parser string, orig, resp, cuts []byte) []string {
	e := mustEngine(t, Config{Parser: parser, ScriptExec: "interp", Scripts: []string{eventTrace}})
	var out bytes.Buffer
	e.interp.Out = &out
	ts, i := int64(1e9), 0
	send := func(src, dst [4]byte, sport, dport uint16, data []byte) {
		for at := 0; at < len(data); i++ {
			n := len(data) - at
			if i < len(cuts) {
				n = min(n, 1+int(cuts[i]))
			}
			e.SafeProcessPacket(ts, tcpDataFrame(src, dst, sport, dport, uint32(1000+at), data[at:at+n]))
			ts++
			at += n
		}
	}
	send(cliAddr, srvAddr, 41000, 80, orig)
	send(srvAddr, cliAddr, 80, 41000, resp)
	e.Finish()
	return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
}

// FuzzParsersAgree: the standard and the BinPAC++ HTTP parsers raise the
// same events, with the same arguments and in the same order, for the same
// generated streams (gen.HTTPStreams) cut into segments at fuzz-chosen
// offsets — modulo ParserDeviations: the streams carry no raw bytes
// (http-line-syntax), and no message the generator builds falls under
// another HTTP entry. A disagreement is a bug on one side, or a deviation to
// name there.
func FuzzParsersAgree(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 20, 1, 0, 2, 0, 2, 3, 0, 3, 1, 0, 4, 2, 1, 5, 1, 7}, []byte{2, 3, 5, 7, 11, 13, 17, 19, 23})
	f.Add([]byte{1, 1, 2, 1, 3, 0, 30, 0, 0, 4, 9, 2, 0, 9, 0, 0, 40, 1, 5, 9}, []byte{0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{0, 1, 6, 3, 1, 1, 0, 3, 0, 0, 5}, []byte{})
	f.Fuzz(func(t *testing.T, spec, cuts []byte) {
		orig, resp := gen.HTTPStreams(spec, false)
		std := httpEvents(t, "standard", orig, resp, cuts)
		pac := httpEvents(t, "binpac", orig, resp, cuts)
		for i := 0; i < max(len(std), len(pac)); i++ {
			s, p := "<none>", "<none>"
			if i < len(std) {
				s = std[i]
			}
			if i < len(pac) {
				p = pac[i]
			}
			if s != p {
				t.Fatalf("event %d differs (fix one side, or name the deviation in ParserDeviations):\n"+
					"  standard %q\n  binpac   %q\nrequests %q\nreplies %q", i, s, p, orig, resp)
			}
		}
	})
}
