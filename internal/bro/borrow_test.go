package bro

import (
	"fmt"
	"strings"
	"testing"

	"hilti/internal/pkt/layers"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/wal"
)

// bodyInProgress reports whether a standard HTTP parser of e holds part of
// a message body.
func bodyInProgress(e *Engine) bool {
	for _, c := range e.conns {
		if c.std != nil {
			if o, r, _ := c.std.SnapshotState(); o.BodyLen > 0 || r.BodyLen > 0 {
				return true
			}
		}
	}
	return false
}

// splitSegments cuts every TCP payload of three or more bytes whose packet
// carries no SYN, FIN or RST into thirds and sends the last third first.
// The stream must copy that out-of-order third and delivers the other two in
// place; the first third ends a packet, mostly in the middle of a line, which
// the parser must copy to finish it from the next packet's frame.
func splitSegments(pkts []pcap.Packet) []pcap.Packet {
	var out []pcap.Packet
	for _, p := range pkts {
		eth, _ := layers.DecodeEthernet(p.Data)
		ip, err := layers.DecodeIPv4(eth.Payload)
		if err != nil || ip.Protocol != layers.IPProtoTCP {
			out = append(out, p)
			continue
		}
		tcp, err := layers.DecodeTCP(ip.Payload)
		if err != nil || len(tcp.Payload) < 3 || tcp.Flags&(layers.TCPSyn|layers.TCPFin|layers.TCPRst) != 0 {
			out = append(out, p)
			continue
		}
		third := func(lo, hi int) pcap.Packet {
			seg := layers.EncodeTCP(ip.Src, ip.Dst, tcp.SrcPort, tcp.DstPort, tcp.Seq+uint32(lo), tcp.Ack, tcp.Flags, tcp.Window, tcp.Payload[lo:hi])
			q := p
			q.Data = layers.EncodeEthernet(eth.Src, eth.Dst, eth.EtherType, layers.EncodeIPv4(ip.Src, ip.Dst, ip.Protocol, ip.TTL, ip.ID, seg))
			return q
		}
		n := len(tcp.Payload)
		out = append(out, third(2*n/3, n), third(0, n/3), third(n/3, 2*n/3))
	}
	return out
}

func sameLogs(t *testing.T, what string, got, want *Engine) {
	t.Helper()
	if g, w := got.events.Load(), want.events.Load(); g != w {
		t.Errorf("%s: %d events, want %d", what, g, w)
	}
	for _, s := range logStreams {
		if g, w := got.Logs.Lines(s), want.Logs.Lines(s); strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s: %s.log differs (%d lines, want %d)", what, s, len(g), len(w))
		}
	}
}

// TestPayloadBorrowedNotRetained: payload is lent down the TCP path, not
// handed over — reassembly delivers in-order data in place and each parser
// copies only what outlives the call. Feeding every packet through one
// reused frame buffer, overwritten after each packet, must give the logs of
// a run over the trace's own frames, byte for byte, for both parsers and
// both script backends; the lent runs split the trace's segments
// (splitSegments) so that both copies — out-of-order data, a partial line —
// are needed. With the standard parser the lent run is also cut by WAL
// restores while an HTTP body is in progress, so the body's digest state
// crosses the codec. (An open BinPAC++ HTTP parse is not encoded yet:
// ROADMAP item 1.)
func TestPayloadBorrowedNotRetained(t *testing.T) {
	trace := mergedTrace(t)
	pkts := splitSegments(trace)
	var frame []byte
	lend := func(e *Engine, p pcap.Packet) {
		frame = append(frame[:0], p.Data...)
		e.SafeProcessPacket(p.Time.UnixNano(), frame)
		frame = frame[:cap(frame)]
		for i := range frame {
			frame[i] = 0xA5
		}
	}
	for _, parser := range []string{"standard", "binpac"} {
		for _, exec := range []string{"interp", "hilti"} {
			t.Run(parser+"/"+exec, func(t *testing.T) {
				cfg := Config{Parser: parser, ScriptExec: exec,
					Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}
				want := mustEngine(t, cfg)
				feed(want, trace)
				want.Finish()

				got := mustEngine(t, cfg)
				for _, p := range pkts {
					lend(got, p)
				}
				got.Finish()
				sameLogs(t, "lent frames", got, want)
				if parser != "standard" {
					return
				}

				// Cut at the first, middle and last packet that leaves a body
				// in progress.
				var mid []int
				probe := mustEngine(t, cfg)
				for i, p := range pkts {
					lend(probe, p)
					if bodyInProgress(probe) {
						mid = append(mid, i)
					}
				}
				if len(mid) == 0 {
					t.Fatal("no packet leaves an HTTP body in progress")
				}
				cuts := []int{mid[0], mid[len(mid)/2], mid[len(mid)-1]}

				e := mustEngine(t, cfg)
				snap := checkpointBytes(t, e)
				if err := e.ResetDeltaBase(); err != nil {
					t.Fatal(err)
				}
				log := wal.NewLog(4096)
				for i, p := range pkts[:cuts[2]+1] {
					lend(e, p)
					rec, err := e.AppendDelta()
					if err != nil {
						t.Fatalf("AppendDelta after packet %d: %v", i, err)
					}
					if err := log.Append(DeltaRecord, rec); err != nil {
						t.Fatal(err)
					}
					if i != cuts[0] && i != cuts[1] && i != cuts[2] {
						continue
					}
					restored, err := RestoreEngineWAL(cfg, snap, log.Segments())
					if err != nil {
						t.Fatalf("WAL restore after packet %d: %v", i+1, err)
					}
					if !bodyInProgress(restored) {
						t.Fatalf("WAL restore after packet %d lost the body in progress", i+1)
					}
					for _, q := range pkts[i+1:] {
						lend(restored, q)
					}
					restored.Finish()
					sameLogs(t, fmt.Sprintf("WAL cut mid-body after packet %d", i+1), restored, want)
				}
			})
		}
	}
}
