package pipeline

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/snapshot"
)

// ckptHandler counts packets and serializes the count — the smallest
// possible Snapshotter, for exercising the pipeline's shard codec
// without dragging a full engine in.
type ckptHandler struct {
	worker int
	count  uint64
	finish int
	// stallOn, when nonzero, wedges the handler forever on any packet
	// whose first payload byte matches (frames are UDP; offset 42).
	stallOn byte
}

func (h *ckptHandler) ProcessPacket(_ int64, data []byte) {
	if h.stallOn != 0 && len(data) > 42 && data[42] == h.stallOn {
		select {} // wedge forever: the supervisor must recover
	}
	h.count++
}

func (h *ckptHandler) Finish() { h.finish++ }

func (h *ckptHandler) Rebase(enc *snapshot.Encoder, _ []byte) error {
	enc.Header()
	enc.U64(h.count)
	return enc.Err()
}

func (h *ckptHandler) ReplayPacket(tsNs int64, data []byte) { h.ProcessPacket(tsNs, data) }

func (h *ckptHandler) Unreplayable() bool { return false }

func restoreCkptHandler(stallOn byte) func(int, []byte) (Handler, error) {
	return func(i int, data []byte) (Handler, error) {
		dec := snapshot.NewDecoder(data)
		h := &ckptHandler{worker: i, count: dec.U64(), stallOn: stallOn}
		return h, dec.Err()
	}
}

// TestCloseIdempotent: Close (and Kill) must be callable repeatedly, and
// in any order, without double-running Finish, double-dropping timers, or
// panicking — regression for the crash-only shutdown path, alongside
// TestCloseOrdering.
func TestCloseIdempotent(t *testing.T) {
	p, hs := newRecPipeline(t, Config{Workers: 3})
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	for i := 0; i < 50; i++ {
		p.Feed(int64(i), frame(a, b, uint16(5000+i%7), 53, []byte{byte(i)}))
	}
	p.Close()
	p.Close()
	p.Kill()
	p.Close()
	for _, h := range hs {
		if h.finish != 1 {
			t.Fatalf("worker %d: Finish ran %d times, want exactly 1", h.worker, h.finish)
		}
	}
	var dropped uint64
	for _, st := range p.Stats() {
		dropped += st.TimersDropped
	}
	if dropped > 7 {
		t.Fatalf("timers dropped more than once: %d (at most one idle timer per flow)", dropped)
	}
	if err := p.Feed(0, frame(a, b, 1, 2, nil)); err == nil {
		t.Fatal("Feed after Close must error")
	}
}

// TestCheckpointKillRestore: checkpoint mid-trace, kill, restore, finish
// the trace — per-shard packet counts must equal an uninterrupted run's.
func TestCheckpointKillRestore(t *testing.T) {
	newCfg := func() Config {
		return Config{
			Workers: 4,
			NewHandler: func(i int) (Handler, error) {
				return &ckptHandler{worker: i}, nil
			},
			RestoreHandler: restoreCkptHandler(0),
		}
	}
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	const total = 400
	mkFrame := func(i int) []byte {
		return frame(a, b, uint16(6000+i%23), 53, []byte{1, byte(i)})
	}

	p1, err := New(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total/2; i++ {
		p1.Feed(int64(i*1000), mkFrame(i))
	}
	var buf bytes.Buffer
	if err := p1.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	flowsBefore := p1.FlowTableSize()
	p1.Kill()

	p2, err := Restore(newCfg(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := p2.FlowTableSize(); got != flowsBefore {
		t.Fatalf("restored flow table has %d entries, checkpoint had %d", got, flowsBefore)
	}
	for i := total / 2; i < total; i++ {
		p2.Feed(int64(i*1000), mkFrame(i))
	}
	p2.Close()

	var count uint64
	for i := range p2.slots {
		h := p2.slots[i].Load().h.(*ckptHandler)
		count += h.count
		if h.finish != 1 {
			t.Fatalf("worker %d: finish=%d", i, h.finish)
		}
	}
	if count != total {
		t.Fatalf("restored run counted %d packets, want %d", count, total)
	}
	var statPkts uint64
	for _, st := range p2.Stats() {
		statPkts += st.Packets
	}
	if statPkts != total {
		t.Fatalf("stats count %d packets across the restore, want %d", statPkts, total)
	}
}

// TestRestoreWorkerMismatch: restoring with a different worker count must
// fail (flow→worker routing depends on it), and adopting the count via
// Workers=0 must succeed.
func TestRestoreWorkerMismatch(t *testing.T) {
	cfg := Config{
		Workers:        3,
		NewHandler:     func(i int) (Handler, error) { return &ckptHandler{worker: i}, nil },
		RestoreHandler: restoreCkptHandler(0),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	p.Kill()

	bad := cfg
	bad.Workers = 5
	if _, err := Restore(bad, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("worker-count mismatch accepted")
	}
	adopt := cfg
	adopt.Workers = 0
	p2, err := Restore(adopt, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Workers() != 3 {
		t.Fatalf("adopted %d workers, want 3", p2.Workers())
	}
	p2.Close()

	if _, err := Restore(adopt, bytes.NewReader(buf.Bytes()[:4])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestFinalCheckpointOnClose: Close's graceful drain writes a checkpoint
// that a fresh pipeline can restore.
func TestFinalCheckpointOnClose(t *testing.T) {
	var final bytes.Buffer
	cfg := Config{
		Workers:         2,
		FinalCheckpoint: &final,
		NewHandler:      func(i int) (Handler, error) { return &ckptHandler{worker: i}, nil },
		RestoreHandler:  restoreCkptHandler(0),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 0, 0, 9}, [4]byte{10, 0, 0, 8}
	for i := 0; i < 100; i++ {
		p.Feed(int64(i), frame(a, b, uint16(7000+i%5), 53, []byte{byte(i)}))
	}
	p.Close()
	if err := p.FinalCheckpointErr(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if final.Len() == 0 {
		t.Fatal("no final checkpoint written")
	}
	cfg.FinalCheckpoint = nil
	p2, err := Restore(cfg, bytes.NewReader(final.Bytes()))
	if err != nil {
		t.Fatalf("restore from final checkpoint: %v", err)
	}
	var count uint64
	for i := range p2.slots {
		count += p2.slots[i].Load().h.(*ckptHandler).count
	}
	p2.Close()
	if count != 100 {
		t.Fatalf("final checkpoint carried %d packets, want 100", count)
	}
}

// TestSupervisorRecoversWedgedWorker: a handler that never returns on one
// poisoned flow must be detected, its worker replaced from its log, the
// flow quarantined, and every other flow's packets still processed. Close
// must complete normally afterwards.
func TestSupervisorRecoversWedgedWorker(t *testing.T) {
	var restartsSeen atomic.Bool
	cfg := Config{
		Workers:      2,
		StallTimeout: 30 * time.Millisecond,
		NewHandler: func(i int) (Handler, error) {
			return &ckptHandler{worker: i, stallOn: 0xEE}, nil
		},
		RestoreHandler: restoreCkptHandler(0xEE),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 1, 0, 1}, [4]byte{10, 1, 0, 2}
	clean := func(i int) []byte {
		return frame(a, b, uint16(8000+i%11), 53, []byte{1, byte(i)})
	}
	for i := 0; i < 50; i++ {
		p.Feed(int64(i*1000), clean(i))
	}
	poison := frame(a, b, 9999, 53, []byte{0xEE})
	p.Feed(51_000, poison)

	deadline := time.Now().Add(5 * time.Second)
	for p.Restarts() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never replaced the wedged worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	restartsSeen.Store(true)

	// The replacement must process new traffic on the same shard, and the
	// poisoned flow's later packets must be quarantine-dropped, not
	// delivered (a second wedge would double Restarts).
	p.Feed(60_000, poison)
	for i := 50; i < 100; i++ {
		p.Feed(int64((i+10)*1000), clean(i))
	}
	p.Close()

	if got := p.Restarts(); got != 1 {
		t.Fatalf("restarts = %d, want 1 (poison retry must be quarantined)", got)
	}
	stallSeen := false
	for _, f := range p.Faults() {
		if f.Op == "stall" {
			stallSeen = true
		}
	}
	if !stallSeen {
		t.Fatal("stall not recorded in the fault ledger")
	}
	var count uint64
	for i := range p.slots {
		count += p.slots[i].Load().h.(*ckptHandler).count
	}
	qDropped := sumStats(p).QuarantineDropped
	// All 100 clean packets processed: the 50 pre-poison ones were logged,
	// so the restore lost none.
	if count != 100 {
		t.Fatalf("clean packets processed = %d, want 100", count)
	}
	if qDropped != 1 {
		t.Fatalf("quarantine dropped %d packets, want 1 (the poison retry)", qDropped)
	}
	if !restartsSeen.Load() {
		t.Fatal("unreachable")
	}
}

// TestSupervisorUnsupervisedOff: without StallTimeout no heartbeats are
// tracked and Checkpoint still works (no supervisor required).
func TestSupervisorUnsupervisedOff(t *testing.T) {
	p, _ := newRecPipeline(t, Config{Workers: 2})
	a, b := [4]byte{10, 2, 0, 1}, [4]byte{10, 2, 0, 2}
	for i := 0; i < 20; i++ {
		p.Feed(int64(i), frame(a, b, uint16(100+i), 53, nil))
	}
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty checkpoint")
	}
	// recHandler is not a Snapshotter and nothing supervises it, so
	// each shard blob is a snapshot with zero log segments; restore must
	// fall back to NewHandler for every shard.
	cfg := Config{
		Workers:        2,
		NewHandler:     func(i int) (Handler, error) { return &recHandler{worker: i}, nil },
		RestoreHandler: func(int, []byte) (Handler, error) { return nil, fmt.Errorf("unexpected") },
	}
	p2, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.FlowTableSize(); got != p.FlowTableSize() {
		t.Fatalf("flow table: %d vs %d", got, p.FlowTableSize())
	}
	p.Kill()
	p2.Close()
}

// stallHandler is a plain handler — neither Snapshotter nor anything
// else — that wedges forever on a packet whose first payload byte is 0xEE.
type stallHandler struct{}

func (stallHandler) ProcessPacket(_ int64, data []byte) {
	if len(data) > 42 && data[42] == 0xEE {
		select {}
	}
}

func (stallHandler) Finish() {}

// TestSupervisorRecoversPlainHandlerShard: a supervised shard whose handler
// has no state of its own still keeps a log, so a wedge costs the wedged
// packet only — every flow-table entry and every processed packet from
// before it survive, though the shard never re-bases.
func TestSupervisorRecoversPlainHandlerShard(t *testing.T) {
	p, err := New(Config{
		Workers:         1,
		StallTimeout:    30 * time.Millisecond,
		CheckpointEvery: 1 << 20,
		NewHandler:      func(int) (Handler, error) { return stallHandler{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 7, 0, 1}, [4]byte{10, 7, 0, 2}
	const pre = 60
	for i := 0; i < pre; i++ {
		p.Feed(int64(i*1000), frame(a, b, uint16(8200+i%13), 53, []byte{1, byte(i)}))
	}
	all := func(uint64) bool { return true }
	before, err := p.ExtractFlows(all)
	if err != nil {
		t.Fatal(err)
	}
	if processed := sumStats(p).Packets; processed != pre {
		t.Fatalf("processed %d packets before the wedge, want %d", processed, pre)
	}

	p.Feed(int64(pre*1000), frame(a, b, 9997, 53, []byte{0xEE}))
	waitFor(t, "the replacement", func() bool { return p.Restarts() == 1 })
	after, err := p.ExtractFlows(all)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.Sched) != fmt.Sprint(before.Sched) {
		t.Fatalf("recovered flow table differs from the one before the wedge:\n  before %v\n  after  %v", before.Sched, after.Sched)
	}
	if processed := sumStats(p).Packets; processed != pre {
		t.Fatalf("recovered shard counts %d processed packets, want the %d from before the wedge", processed, pre)
	}

	p.Feed(int64((pre+1)*1000), frame(a, b, 8200, 53, []byte{2}))
	p.Close()
	l := p.Ledger()
	if !l.Balanced() || l.Offered != pre+2 {
		t.Fatalf("ledger unbalanced: %+v", l)
	}
	if l.Fates[admission.FateRolledBack] != 1 || l.Fates[admission.FateProcessed] != pre+1 {
		t.Fatalf("fates %v: want the wedged packet alone rolled back and every other processed", l.Fates)
	}
}

// TestSupervisorKeepsFaultHistory: a replacement takes over its worker's
// fault ledger, so two stalls on one worker, each ending in a replacement,
// are two stall faults in Faults and in the worker's Stats.
func TestSupervisorKeepsFaultHistory(t *testing.T) {
	p, err := New(Config{
		Workers:      1,
		StallTimeout: 30 * time.Millisecond,
		NewHandler:   func(int) (Handler, error) { return stallHandler{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 8, 0, 1}, [4]byte{10, 8, 0, 2}
	for n, port := range []uint16{9990, 9991} {
		p.Feed(int64(n*1000), frame(a, b, 8300, 53, []byte{1}))
		p.Feed(int64(n*1000+500), frame(a, b, port, 53, []byte{0xEE}))
		waitFor(t, "the replacement", func() bool { return p.Restarts() == uint64(n+1) })
	}
	p.Close()
	stalls := 0
	for _, f := range p.Faults() {
		if f.Op == "stall" {
			stalls++
		}
	}
	if got := p.Stats()[0].Faults; stalls != 2 || got != 2 {
		t.Fatalf("after two stalls: %d stall faults in the ledger, the worker counts %d faults; want 2 and 2", stalls, got)
	}
}

// TestRestoreRefusesDuplicateFlow: a shard snapshot whose flow table lists
// one vid twice is refused, as the engine's linger section refuses a flow
// named twice; the same snapshot listing it once restores.
func TestRestoreRefusesDuplicateFlow(t *testing.T) {
	p, err := newPipeline(&Config{Workers: 1, NewHandler: func(int) (Handler, error) { return &recHandler{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	k := flow.FromIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 5001, 80, layers.IPProtoUDP)
	shard := func(rows int) []byte {
		enc := snapshot.NewAppender(nil)
		enc.Header()
		enc.I64(0) // clock
		var fates admission.Counts
		for range fates {
			enc.U64(0)
		}
		for range p.newWstate(0).persisted() {
			enc.U64(0)
		}
		enc.U32(0) // quarantine marks
		enc.U32(uint32(rows))
		for i := 0; i < rows; i++ {
			encodeSched(enc, SchedFlow{VID: k.Hash(), Key: k, HasKey: true, Deadline: int64(100 + i)})
		}
		enc.Bool(false) // no handler state
		return composeShardBlob(enc.Buffer(), nil)
	}
	sl, err := p.restoreSlotFromBlob(0, shard(1))
	if err != nil {
		t.Fatalf("one row: %v", err)
	}
	if n := sl.ws.liveFlows.Load(); n != 1 {
		t.Fatalf("one row restored %d live flows", n)
	}
	if _, err := p.restoreSlotFromBlob(0, shard(2)); err == nil {
		t.Fatal("restored a flow table that lists one vid twice")
	}
}
