package bro

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/rt/container"
	"hilti/internal/rt/snapshot"
)

// fuzzEngine builds a fresh engine per input so every crash reproduces from
// its corpus entry alone (no cross-input connection state).
func fuzzEngine(t *testing.T, parser, scripts string) *Engine {
	e, err := NewEngine(Config{Parser: parser, ScriptExec: scripts,
		Scripts: []string{HTTPScript, DNSScript}, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// feedShapes drives one fuzz input through the engine three ways: as a raw
// frame (exercises link/network decode), as a TCP:80 payload (exercises the
// HTTP parser through stream reassembly), and as a UDP:53 payload (exercises
// the DNS parser). With split set the payload goes down a second TCP:80
// flow as well, cut into segments whose lengths the input itself names, so
// that where an incremental parser parks is fuzzed along with what it
// reads. The panicky ProcessPacket path is used deliberately: a panic
// anywhere in decode/reassembly/parse is a real bug the quarantine
// machinery should never have to paper over.
func feedShapes(e *Engine, data []byte, split bool) {
	src, dst := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	e.ProcessPacket(1, data)

	tcpFrame := func(sport uint16, seq uint32, payload []byte) []byte {
		tcp := layers.EncodeTCP(src, dst, sport, 80, seq, 0, layers.TCPAck, 65535, payload)
		ip := layers.EncodeIPv4(src, dst, layers.IPProtoTCP, 64, 1, tcp)
		return layers.EncodeEthernet([6]byte{1}, [6]byte{2}, layers.EtherTypeIPv4, ip)
	}
	e.ProcessPacket(2, tcpFrame(44000, 100, data))

	udp := layers.EncodeUDP(src, dst, 44001, 53, data)
	ip := layers.EncodeIPv4(src, dst, layers.IPProtoUDP, 64, 2, udp)
	e.ProcessPacket(3, layers.EncodeEthernet([6]byte{1}, [6]byte{2}, layers.EtherTypeIPv4, ip))

	for at := 0; split && at < len(data); {
		n := min(1+int(data[at])%23, len(data)-at)
		e.ProcessPacket(int64(4+at), tcpFrame(44002, uint32(100+at), data[at:at+n]))
		at += n
	}

	e.Finish()
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte("GET /index.html HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n"))
	// A DNS query header claiming more records than the payload carries.
	f.Add([]byte{0x12, 0x34, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// DNS name with a compression pointer to itself.
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1})
	f.Add([]byte{})
}

// FuzzEngineFeed fuzzes the full packet path with the hand-written parsers.
func FuzzEngineFeed(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		feedShapes(fuzzEngine(t, "standard", "interp"), data, false)
	})
}

// FuzzEngineFeedBinpac fuzzes the same path with the BinPAC++ grammars
// compiled to HILTI, so hostile bytes reach the generated parse code — and,
// segment by segment, the VM's park and resume. Each input runs under both
// script backends: with compiled scripts, the parser callbacks dispatch
// handlers nested in the parse on the engine's one Exec. Every struct a
// field access by index meets must carry the Def it was compiled against.
func FuzzEngineFeedBinpac(f *testing.F) {
	fuzzSeeds(f)
	// Struct-typed all the way: header and body hooks that read and write
	// their message by field index, and handlers that fill an HTTPInfo.
	f.Add([]byte("POST /a HTTP/1.1\r\nHost: h\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhelloGET /b HTTP/1.1\r\nHost: i\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, scripts := range []string{"interp", "hilti"} {
			e := fuzzEngine(t, "binpac", scripts)
			feedShapes(e, data, true)
			if n := e.ex.FieldGuardMisses(); n != 0 {
				t.Fatalf("%s scripts: %d field guard misses", scripts, n)
			}
		}
	})
}

// FuzzEngineStateDecode throws arbitrary bytes at the two entry points of
// the engine-state decoder — a snapshot and an injected flow frame. Each
// must return an error or succeed; none may panic or size an allocation
// from a length it has not checked against the input. The framing layers
// around these bytes have their own targets (FuzzSnapshotDecode,
// FuzzWALDecode, FuzzMigrationFrameDecode); this one is the decoder behind
// them.
func FuzzEngineStateDecode(f *testing.F) {
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}
	// Seed corpus: real blobs of each kind, cut from a run that is
	// mid-connection (reassembly and HTTP parser state in flight) but short
	// enough that the fuzzer spends its time mutating, not minimizing: a
	// patched re-base after each of the first packets (each a few KB at
	// most), one full checkpoint with closed flows lingering, the same with
	// its linger section rewritten — a close out of time order, which
	// restores, and a flow named twice or not canonically, which
	// RestoreEngine must refuse —, one whose linger count claims an entry
	// more than follow (refused too), one whose open connections were last
	// used 30 s before its network time, four flows' frames — the
	// sessions run one at a time, so each is taken while its flow is open —
	// and the three frames InjectFlow must refuse, built from the first.
	pkts := mergedTrace(f)
	src, err := NewEngine(cfg)
	if err != nil {
		f.Fatal(err)
	}
	snap := rebaseBytes(f, src, nil)
	f.Add(uint8(0), snap) // no flow yet
	var refused map[string][]byte
	var frames [][]byte
	var last flow.Key
	i := 0
	for ; i < len(pkts)/8 || len(frames) < 4; i++ {
		src.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
		if i < 32 {
			snap = rebaseBytes(f, src, snap)
			f.Add(uint8(0), snap)
		}
		if keys := src.MigratableFlows(); len(keys) > 0 && keys[0] != last && len(frames) < 4 {
			blob, err := src.ExtractFlow(keys[0])
			if err != nil {
				f.Fatal(err)
			}
			if frames, last = append(frames, blob), keys[0]; refused == nil {
				refused = refusedFrames(src, keys[0])
			}
		}
	}
	rows := closedRows(src)
	if len(rows) < 2 {
		f.Fatalf("%d closed flows linger at the checkpoint, want 2 or more", len(rows))
	}
	snap = checkpointBytes(f, src)
	f.Add(uint8(0), snap)
	swapped := slices.Clone(rows)
	swapped[0].closedAt, swapped[1].closedAt = rows[1].closedAt, rows[0].closedAt-1
	reversed := []byte(rows[0].key)
	k, _ := flow.KeyFromWire(reversed)
	copy(reversed, k.Reverse().Wire())
	for _, edit := range []struct {
		name     string
		rows     []closedRow
		restores bool
	}{
		{"a close out of time order", swapped, true},
		{"a flow named twice", append(slices.Clone(rows), rows[0]), false},
		{"a flow named not canonically", append([]closedRow{{string(reversed), rows[0].closedAt}}, rows[1:]...), false},
	} {
		blob := withClosedRows(f, src, snap, edit.rows)
		e, err := RestoreEngine(cfg, bytes.NewReader(blob))
		if (err == nil) != edit.restores {
			f.Fatalf("%s: restore returned %v", edit.name, err)
		}
		if err == nil && !bytes.Equal(checkpointBytes(f, e), blob) {
			f.Fatalf("%s: the restored engine checkpoints to other bytes", edit.name)
		}
		f.Add(uint8(0), blob)
	}
	bad := lingerCountTooLarge(src)
	if _, err := RestoreEngine(cfg, bytes.NewReader(bad)); err == nil {
		f.Fatal("a linger count larger than its entries restored")
	}
	f.Add(uint8(0), bad)
	src.SafeProcessPacket(pkts[i-1].Time.UnixNano()+int64(30*time.Second), arpFrame())
	if src.flows.len() == 0 {
		f.Fatal("no connection last used 30 s back is open at the checkpoint")
	}
	f.Add(uint8(0), checkpointBytes(f, src))
	for _, blob := range frames {
		f.Add(uint8(1), blob)
	}
	for _, name := range []string{"tombstone", "no connection", "unknown flag"} {
		f.Add(uint8(1), refused[name])
	}

	f.Fuzz(func(t *testing.T, entry uint8, data []byte) {
		if entry%2 == 0 {
			RestoreEngine(cfg, bytes.NewReader(data)) //nolint:errcheck
		} else {
			fuzzEngine(t, "standard", "interp").InjectFlow(data) //nolint:errcheck
		}
	})
}

// closedRow is one entry of the linger section: a closed flow's table key
// (its canonical Wire form) and its close time.
type closedRow struct {
	key      string
	closedAt int64
}

// closedRows is e's linger section, in close order.
func closedRows(e *Engine) []closedRow {
	var rows []closedRow
	e.flows.closed.Walk(func(en *container.Entry[flow.Key, struct{}]) bool {
		rows = append(rows, closedRow{string(en.Key().Wire()), int64(en.LastUse)})
		return true
	})
	return rows
}

func encodeClosedRows(enc *snapshot.Encoder, n int, rows []closedRow) {
	enc.U32(uint32(n))
	for _, r := range rows {
		enc.String(r.key)
		enc.I64(r.closedAt)
	}
}

// withClosedRows is snap, e's checkpoint, with rows for its linger section.
func withClosedRows(t testing.TB, e *Engine, snap []byte, rows []closedRow) []byte {
	was, now := snapshot.NewAppender(nil), snapshot.NewAppender(nil)
	e.flows.encodeClosed(was)
	encodeClosedRows(now, len(rows), rows)
	if n := bytes.Count(snap, was.Buffer()); n != 1 {
		t.Fatalf("the linger section is %d times in the checkpoint", n)
	}
	return bytes.Replace(snap, was.Buffer(), now.Buffer(), 1)
}

// lingerCountTooLarge is e's snapshot up to its linger section, whose
// count claims one entry more than the entries behind it, and nothing
// after: a truncated stream.
func lingerCountTooLarge(e *Engine) []byte {
	enc := snapshot.NewAppender(nil)
	e.encodeHeader(enc)
	enc.U32(0) // frames
	e.encodeMeta(enc)
	enc.U32(0) // quar
	rows := closedRows(e)
	encodeClosedRows(enc, len(rows)+1, rows)
	return enc.Buffer()
}
