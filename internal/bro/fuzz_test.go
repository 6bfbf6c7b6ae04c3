package bro

import (
	"bytes"
	"testing"

	"hilti/internal/pkt/layers"
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
	// most), one full checkpoint, four flows' frames, and the three frames
	// InjectFlow must refuse, built from one of them.
	pkts := mergedTrace(f)
	src, err := NewEngine(cfg)
	if err != nil {
		f.Fatal(err)
	}
	snap := rebaseBytes(f, src, nil)
	f.Add(uint8(0), snap) // no flow yet
	for i := range pkts[:len(pkts)/8] {
		src.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
		if i < 32 {
			snap = rebaseBytes(f, src, snap)
			f.Add(uint8(0), snap)
		}
	}
	f.Add(uint8(0), checkpointBytes(f, src))
	keys := src.MigratableFlows()[:4]
	for _, key := range keys {
		blob, err := src.ExtractFlow(key)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(1), blob)
	}
	refused := refusedFrames(src, keys[0])
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
