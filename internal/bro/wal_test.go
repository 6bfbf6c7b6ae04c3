package bro

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/wal"
)

// packetRecord is the record kind of the packet logs these tests keep, the
// engine-level shape of a pipeline shard's log: a timestamp and the frame
// of a packet the engine ran.
const packetRecord = 1

func appendPacket(t testing.TB, log *wal.Log, tsNs int64, frame []byte) {
	t.Helper()
	if err := log.Append(packetRecord, append(binary.BigEndian.AppendUint64(nil, uint64(tsNs)), frame...)); err != nil {
		t.Fatal(err)
	}
}

// replayLog restores an engine from snap and runs the logged packets on it
// again, as a pipeline shard's restore does: damage anywhere in the log is
// an error.
func replayLog(cfg Config, snap []byte, segs [][]byte) (*Engine, error) {
	e, err := RestoreEngine(cfg, bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	if _, err := wal.Replay(segs, func(_ byte, p []byte) error {
		e.ReplayPacket(int64(binary.BigEndian.Uint64(p)), p[8:])
		return nil
	}); err != nil {
		return nil, err
	}
	return e, nil
}

// logCuts returns the log as it stood after each of its records: segs
// up to the record's segment, that segment cut just behind the record.
func logCuts(segs [][]byte) [][][]byte {
	var cuts [][][]byte
	for i, seg := range segs {
		r := wal.NewReader(seg)
		for _, _, ok := r.Next(); ok; _, _, ok = r.Next() {
			cut := append(append([][]byte(nil), segs[:i]...), seg[:r.Offset()])
			cuts = append(cuts, cut)
		}
	}
	return cuts
}

// rebaseBytes re-bases e onto a fresh buffer, patching prev if it can.
func rebaseBytes(t testing.TB, e *Engine, prev []byte) []byte {
	t.Helper()
	enc := snapshot.NewAppender(nil)
	if err := e.Rebase(enc, prev); err != nil {
		t.Fatalf("re-base: %v", err)
	}
	return enc.Buffer()
}

// walRun drives an engine as a pipeline shard keeps its log: `base`
// packets, then a re-base (the snapshot), then one packet record per
// packet into a wal.Log. Returns the snapshot, the log, and the still-live
// engine.
func walRun(t *testing.T, cfg Config, pkts []pcap.Packet, base, segBytes int) ([]byte, *wal.Log, *Engine) {
	t.Helper()
	e := referenceEngine(t, cfg, pkts, base)
	snap := rebaseBytes(t, e, nil)
	log := wal.NewLog(segBytes)
	for _, p := range pkts[base:] {
		e.SafeProcessPacket(p.Time.UnixNano(), p.Data)
		appendPacket(t, log, p.Time.UnixNano(), p.Data)
	}
	return snap, log, e
}

func checkpointBytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// referenceEngine runs a fresh engine over the first n packets — the
// state a WAL restore landing at packet n must reproduce byte-for-byte.
func referenceEngine(t testing.TB, cfg Config, pkts []pcap.Packet, n int) *Engine {
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

// TestWALRestoreMidSegmentCuts: the log cut behind any record — mid-segment
// included — must restore to that record's packet boundary, byte-identical
// to a fresh run over that prefix, and refeeding the remainder must
// reproduce the uninterrupted run. A cut inside a record is damage, and
// the restore refuses it.
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
	cuts := logCuts(log.Segments())

	for _, cut := range []int{0, len(cuts) / 3, len(cuts) / 2, len(cuts) - 2} {
		restored, err := replayLog(cfg, snap, cuts[cut])
		if err != nil {
			t.Fatalf("cut=%d: restore: %v", cut, err)
		}
		n := int(restored.Packets())
		if n != base+cut+1 {
			t.Fatalf("cut=%d: restored to packet %d, want %d", cut, n, base+cut+1)
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
		sameRun(t, "refeed after the cut", restored, baseline)
	}

	torn := cuts[len(cuts)-1]
	last := torn[len(torn)-1]
	torn[len(torn)-1] = last[:len(last)-3]
	if _, err := replayLog(cfg, snap, torn); err == nil {
		t.Error("restore accepted a log cut inside a record")
	}
}

// TestWALReplayDeterminism: two restores from the same snapshot and
// segments must produce byte-identical engines.
func TestWALReplayDeterminism(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}
	snap, log, _ := walRun(t, cfg, pkts, len(pkts)/3, 8192)

	a, err := replayLog(cfg, snap, log.Segments())
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayLog(cfg, snap, log.Segments())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointBytes(t, a), checkpointBytes(t, b)) {
		t.Error("two replays of the same WAL produced different engines")
	}
}

// TestWALRestoreHilti runs the compiled-script backend with the paper's
// Figure 8(a) tracking script, whose set[addr] global is a VM container
// the snapshot carries whole and the replayed packets fill again.
func TestWALRestoreHilti(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "hilti",
		Scripts: []string{HTTPScript, FilesScript, DNSScript, TrackScript}, Quiet: true}
	snap, log, live := walRun(t, cfg, pkts, len(pkts)/4, 4096)

	restored, err := replayLog(cfg, snap, log.Segments())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(checkpointBytes(t, restored), checkpointBytes(t, live)) {
		t.Error("restored checkpoint differs from live engine checkpoint (hilti backend)")
	}

	cuts := logCuts(log.Segments())
	for _, cut := range []int{len(cuts) / 2, len(cuts) - 2} {
		restored, err := replayLog(cfg, snap, cuts[cut])
		if err != nil {
			t.Fatalf("cut=%d: restore: %v", cut, err)
		}
		n := int(restored.Packets())
		if !bytes.Equal(checkpointBytes(t, restored), checkpointBytes(t, referenceEngine(t, cfg, pkts, n))) {
			t.Errorf("cut=%d: restored state at packet %d differs from straight run (hilti backend)", cut, n)
		}
	}
}

// TestWALRebase: mid-run re-bases (the second patching the first) plus log
// resets (segment truncation) must leave the snapshot+log pair restoring
// to the live state — the rotation path a shard uses to bound replay
// length.
func TestWALRebase(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}

	e := mustEngine(t, cfg)
	snap := rebaseBytes(t, e, nil)
	log := wal.NewLog(4096)
	for i, p := range pkts {
		e.SafeProcessPacket(p.Time.UnixNano(), p.Data)
		appendPacket(t, log, p.Time.UnixNano(), p.Data)
		if i == len(pkts)/4 || i == len(pkts)/2 {
			snap = rebaseBytes(t, e, snap)
			log.Reset()
		}
	}
	if reused, _, _ := e.RebaseFrames(); reused == 0 {
		t.Error("the second re-base copied no frame: it did not patch")
	}

	restored, err := replayLog(cfg, snap, log.Segments())
	if err != nil {
		t.Fatalf("restore after re-base: %v", err)
	}
	if !bytes.Equal(checkpointBytes(t, restored), checkpointBytes(t, e)) {
		t.Error("restore from re-based snapshot+log differs from live engine")
	}
}

// TestWALCorruptSegmentRejected: damage in a non-final segment is not a
// crash-truncated tail — restore must fail cleanly, never panic. An intact
// record whose frame is no packet runs as one: it counts, and changes
// nothing else.
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
	if _, err := replayLog(cfg, snap, corrupt); err == nil {
		t.Error("restore accepted a corrupt frozen segment")
	}

	junk := wal.NewLog(0)
	appendPacket(t, junk, pkts[len(pkts)/4].Time.UnixNano(), []byte("not a frame"))
	restored, err := replayLog(cfg, snap, junk.Segments())
	if err != nil {
		t.Fatal(err)
	}
	at, err := RestoreEngine(cfg, bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Packets() != at.Packets()+1 {
		t.Errorf("a junk frame counted %d packets, want 1", restored.Packets()-at.Packets())
	}
	at.packets.Inc()
	at.now = restored.now
	if !bytes.Equal(checkpointBytes(t, restored), checkpointBytes(t, at)) {
		t.Error("a junk frame changed more than the packet count and the clock")
	}
}
