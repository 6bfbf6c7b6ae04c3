package bro

import (
	"bytes"
	"testing"

	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/wal"
)

// walRun drives an engine in WAL mode: `base` packets, then a full
// checkpoint (the base snapshot), then one delta record per packet into a
// wal.Log. Returns the snapshot, the log, and the still-live engine.
func walRun(t *testing.T, cfg Config, pkts []pcap.Packet, base, segBytes int) ([]byte, *wal.Log, *Engine) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < base; i++ {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatalf("base checkpoint: %v", err)
	}
	if err := e.ResetDeltaBase(); err != nil {
		t.Fatal(err)
	}
	log := wal.NewLog(segBytes)
	for i := base; i < len(pkts); i++ {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
		rec, err := e.AppendDelta()
		if err != nil {
			t.Fatalf("AppendDelta after packet %d: %v", i, err)
		}
		if err := log.Append(DeltaRecord, rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), log, e
}

func checkpointBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// referenceEngine runs a fresh engine over the first n packets — the
// state a WAL restore landing at packet n must reproduce byte-for-byte.
func referenceEngine(t *testing.T, cfg Config, pkts []pcap.Packet, n int) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
	}
	return e
}

// TestWALRestoreMidSegmentCuts: truncating the final segment at an
// arbitrary byte offset — including mid-record — must restore to the last
// intact record's packet boundary, byte-identical to a fresh run over that
// prefix, and refeeding the remainder must reproduce the uninterrupted run.
func TestWALRestoreMidSegmentCuts(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}

	baseline, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline.ProcessTrace(pkts)

	base := len(pkts) / 4
	snap, log, _ := walRun(t, cfg, pkts, base, 4096)
	segs := log.Segments()
	last := segs[len(segs)-1]

	for _, cut := range []int{7, len(last) / 3, len(last) / 2, len(last) - 3} {
		cutSegs := make([][]byte, len(segs))
		copy(cutSegs, segs)
		cutSegs[len(segs)-1] = last[:cut]

		restored, err := RestoreEngineWAL(cfg, snap, cutSegs)
		if err != nil {
			t.Fatalf("cut=%d: RestoreEngineWAL: %v", cut, err)
		}
		n := int(restored.Packets())
		if n < base || n > len(pkts) {
			t.Fatalf("cut=%d: restored to implausible packet count %d (base %d, trace %d)",
				cut, n, base, len(pkts))
		}
		if !bytes.Equal(checkpointBytes(t, restored), checkpointBytes(t, referenceEngine(t, cfg, pkts, n))) {
			t.Errorf("cut=%d: restored state at packet %d differs from straight run", cut, n)
		}

		for i := n; i < len(pkts); i++ {
			restored.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
		}
		restored.Finish()
		if got, want := restored.events.Load(), baseline.events.Load(); got != want {
			t.Errorf("cut=%d: %d events after refeed, uninterrupted run had %d", cut, got, want)
		}
		for _, stream := range []string{"http", "files", "dns"} {
			want := baseline.Logs.Lines(stream)
			got := restored.Logs.Lines(stream)
			if len(got) != len(want) {
				t.Errorf("cut=%d, %s.log: %d lines, want %d", cut, stream, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("cut=%d, %s.log line %d differs:\n  got  %q\n  want %q",
						cut, stream, i, got[i], want[i])
					break
				}
			}
		}
	}
}

// TestWALReplayDeterminism: two restores from the same snapshot and
// segments must produce byte-identical engines.
func TestWALReplayDeterminism(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}
	snap, log, _ := walRun(t, cfg, pkts, len(pkts)/3, 8192)

	a, err := RestoreEngineWAL(cfg, snap, log.Segments())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RestoreEngineWAL(cfg, snap, log.Segments())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointBytes(t, a), checkpointBytes(t, b)) {
		t.Error("two replays of the same WAL produced different engines")
	}
}

// TestWALRestoreHilti runs the compiled-script backend with the paper's
// Figure 8(a) tracking script, whose set[addr] global exercises the
// container journal path (scalar keys, per-op records).
func TestWALRestoreHilti(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "hilti",
		Scripts: []string{HTTPScript, FilesScript, DNSScript, TrackScript}, Quiet: true}
	snap, log, live := walRun(t, cfg, pkts, len(pkts)/4, 4096)

	restored, err := RestoreEngineWAL(cfg, snap, log.Segments())
	if err != nil {
		t.Fatalf("RestoreEngineWAL: %v", err)
	}
	if !bytes.Equal(checkpointBytes(t, restored), checkpointBytes(t, live)) {
		t.Error("restored checkpoint differs from live engine checkpoint (hilti backend)")
	}

	segs := log.Segments()
	last := segs[len(segs)-1]
	for _, cut := range []int{len(last) / 2, len(last) - 2} {
		cutSegs := make([][]byte, len(segs))
		copy(cutSegs, segs)
		cutSegs[len(segs)-1] = last[:cut]
		restored, err := RestoreEngineWAL(cfg, snap, cutSegs)
		if err != nil {
			t.Fatalf("cut=%d: RestoreEngineWAL: %v", cut, err)
		}
		n := int(restored.Packets())
		if !bytes.Equal(checkpointBytes(t, restored), checkpointBytes(t, referenceEngine(t, cfg, pkts, n))) {
			t.Errorf("cut=%d: restored state at packet %d differs from straight run (hilti backend)", cut, n)
		}
	}
}

// TestWALRebase: a mid-run full checkpoint plus log reset (segment
// truncation) must leave the snapshot+log pair restoring to the same state
// as before — the rotation path engines use to bound replay length.
func TestWALRebase(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}

	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := e.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	if err := e.ResetDeltaBase(); err != nil {
		t.Fatal(err)
	}
	log := wal.NewLog(4096)
	rebaseAt := len(pkts) / 2
	for i, p := range pkts {
		e.SafeProcessPacket(p.Time.UnixNano(), p.Data)
		rec, err := e.AppendDelta()
		if err != nil {
			t.Fatalf("AppendDelta after packet %d: %v", i, err)
		}
		if err := log.Append(DeltaRecord, rec); err != nil {
			t.Fatal(err)
		}
		if i == rebaseAt {
			snap.Reset()
			if err := e.Checkpoint(&snap); err != nil {
				t.Fatalf("rebase checkpoint: %v", err)
			}
			if err := e.ResetDeltaBase(); err != nil {
				t.Fatal(err)
			}
			log.Reset()
		}
	}

	restored, err := RestoreEngineWAL(cfg, snap.Bytes(), log.Segments())
	if err != nil {
		t.Fatalf("RestoreEngineWAL after rebase: %v", err)
	}
	if !bytes.Equal(checkpointBytes(t, restored), checkpointBytes(t, e)) {
		t.Error("restore from rebased snapshot+log differs from live engine")
	}
}

// TestWALCorruptSegmentRejected: damage in a non-final segment is not a
// crash-truncated tail — restore must fail cleanly, never panic, and a
// record of an unknown kind must be rejected.
func TestWALCorruptSegmentRejected(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}
	snap, log, _ := walRun(t, cfg, pkts, len(pkts)/4, 4096)
	segs := log.Segments()
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(segs))
	}

	corrupt := make([][]byte, len(segs))
	copy(corrupt, segs)
	bad := append([]byte(nil), segs[0]...)
	bad[len(bad)/2] ^= 0xff
	corrupt[0] = bad
	if _, err := RestoreEngineWAL(cfg, snap, corrupt); err == nil {
		t.Error("restore accepted a corrupt frozen segment")
	}

	alien := wal.NewLog(0)
	if err := alien.Append(99, []byte("not a delta")); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEngineWAL(cfg, snap, alien.Segments()); err == nil {
		t.Error("restore accepted a record of unknown kind")
	}
}
