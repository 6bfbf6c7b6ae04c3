package pipeline

import (
	"bytes"
	"testing"
	"time"

	"hilti/internal/rt/snapshot"
)

// deltaHandler is the smallest DeltaCheckpointer: per-worker packet count
// plus an order-sensitive hash chain over payload bytes, so any lost,
// duplicated, or reordered packet after a restore shows up. Deltas carry
// the absolute (count, chain) pair — trivially O(changed state).
type deltaHandler struct {
	worker  int
	count   uint64
	chain   uint64
	finish  int
	panicOn byte // payload byte that makes ProcessPacket panic
	stallOn byte // payload byte that wedges ProcessPacket forever
}

func (h *deltaHandler) ProcessPacket(_ int64, data []byte) {
	if len(data) > 42 {
		if h.stallOn != 0 && data[42] == h.stallOn {
			select {}
		}
		if h.panicOn != 0 && data[42] == h.panicOn {
			panic("poison payload")
		}
	}
	h.count++
	for _, b := range data[42:] {
		h.chain = h.chain*1099511628211 + uint64(b)
	}
}

func (h *deltaHandler) Finish() { h.finish++ }

func (h *deltaHandler) Rebase(enc *snapshot.Encoder, _ []byte) error {
	enc.Header()
	return h.EncodeDelta(enc)
}

func (h *deltaHandler) EncodeDelta(enc *snapshot.Encoder) error {
	enc.U64(h.count)
	enc.U64(h.chain)
	return enc.Err()
}

func (h *deltaHandler) ApplyDelta(data []byte) error {
	dec := snapshot.NewRawDecoder(data)
	h.count = dec.U64()
	h.chain = dec.U64()
	return dec.Err()
}

func deltaCfg(workers int, panicOn, stallOn byte) Config {
	return Config{
		Workers: workers,
		NewHandler: func(i int) (Handler, error) {
			return &deltaHandler{worker: i, panicOn: panicOn, stallOn: stallOn}, nil
		},
		RestoreHandler: func(i int, data []byte) (Handler, error) {
			dec := snapshot.NewDecoder(data)
			h := &deltaHandler{worker: i, panicOn: panicOn, stallOn: stallOn,
				count: dec.U64(), chain: dec.U64()}
			return h, dec.Err()
		},
	}
}

func handlerStates(p *Pipeline) (counts, chains []uint64) {
	for i := range p.slots {
		h := p.slots[i].Load().h.(*deltaHandler)
		counts = append(counts, h.count)
		chains = append(chains, h.chain)
	}
	return
}

// TestWALCheckpointKillRestore: a checkpoint (snapshot + log
// segments, composed without re-encoding) must restore, via record
// replay, to exactly the per-worker state of the live pipeline — then the
// finished run must match an uninterrupted reference run byte-for-byte
// (hash chains per worker).
func TestWALCheckpointKillRestore(t *testing.T) {
	a, b := [4]byte{10, 2, 0, 1}, [4]byte{10, 2, 0, 2}
	const total = 500
	mkFrame := func(i int) []byte {
		return frame(a, b, uint16(6000+i%17), 53, []byte{byte(i), byte(i >> 8)})
	}

	ref, err := New(deltaCfg(4, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		ref.Feed(int64(i*1000), mkFrame(i))
	}
	ref.Close()
	refCounts, refChains := handlerStates(ref)

	p1, err := New(deltaCfg(4, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total/2; i++ {
		p1.Feed(int64(i*1000), mkFrame(i))
	}
	var buf bytes.Buffer
	if err := p1.Checkpoint(&buf); err != nil {
		t.Fatalf("WAL checkpoint: %v", err)
	}
	flowsBefore := p1.FlowTableSize()
	p1.Kill()

	p2, err := Restore(deltaCfg(4, 0, 0), bytes.NewReader(buf.Bytes()))
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
	counts, chains := handlerStates(p2)
	for i := range counts {
		if counts[i] != refCounts[i] || chains[i] != refChains[i] {
			t.Errorf("worker %d: (count,chain)=(%d,%#x), uninterrupted run has (%d,%#x)",
				i, counts[i], chains[i], refCounts[i], refChains[i])
		}
	}
	var statPkts uint64
	for _, st := range p2.Stats() {
		statPkts += st.Packets
	}
	if statPkts != total {
		t.Fatalf("stats count %d packets across the restore, want %d", statPkts, total)
	}
}

// TestWALFaultReplay: a handler panic becomes a walFault record whose
// replay reproduces the quarantine — the restored pipeline must drop the
// poisoned flow's later packets and report the same quarantine counters
// as the live one.
func TestWALFaultReplay(t *testing.T) {
	a, b := [4]byte{10, 4, 0, 1}, [4]byte{10, 4, 0, 2}
	clean := func(i int) []byte {
		return frame(a, b, uint16(7200+i%5), 53, []byte{1, byte(i)})
	}
	poisonFlow := func(payload byte) []byte {
		return frame(a, b, 9999, 53, []byte{payload})
	}

	p1, err := New(deltaCfg(2, 0xAB, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		p1.Feed(int64(i*1000), clean(i))
	}
	p1.Feed(61_000, poisonFlow(0xAB)) // panics: flow quarantined
	p1.Feed(62_000, poisonFlow(0x01)) // same flow: dropped, counted
	p1.Feed(63_000, poisonFlow(0x02))
	var buf bytes.Buffer
	if err := p1.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	liveCounts, liveChains := handlerStates(p1)
	var liveQuar, liveDropped uint64
	for _, st := range p1.Stats() {
		liveQuar += st.QuarantinedFlows
		liveDropped += st.QuarantineDropped
	}
	if liveQuar != 1 || liveDropped != 2 {
		t.Fatalf("live pipeline: quarantined=%d dropped=%d, want 1 and 2", liveQuar, liveDropped)
	}
	p1.Kill()

	p2, err := Restore(deltaCfg(2, 0xAB, 0), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	counts, chains := handlerStates(p2)
	for i := range counts {
		if counts[i] != liveCounts[i] || chains[i] != liveChains[i] {
			t.Errorf("worker %d state (%d,%#x) != live (%d,%#x)",
				i, counts[i], chains[i], liveCounts[i], liveChains[i])
		}
	}
	var quar, dropped uint64
	for _, st := range p2.Stats() {
		quar += st.QuarantinedFlows
		dropped += st.QuarantineDropped
	}
	if quar != liveQuar || dropped != liveDropped {
		t.Errorf("restored quarantine counters (%d,%d) != live (%d,%d)", quar, dropped, liveQuar, liveDropped)
	}
	p2.Feed(64_000, poisonFlow(0x03)) // quarantine must survive the restore
	p2.Close()
	var droppedAfter uint64
	for _, st := range p2.Stats() {
		droppedAfter += st.QuarantineDropped
	}
	if droppedAfter != liveDropped+1 {
		t.Errorf("post-restore drop count %d, want %d", droppedAfter, liveDropped+1)
	}
}

// TestWALSupervisedRecoveryLossWindow: a wedged worker's replacement
// resumes at the record before the wedged packet — even with
// CheckpointEvery far larger than the packets processed, no pre-wedge
// work is lost.
func TestWALSupervisedRecoveryLossWindow(t *testing.T) {
	cfg := deltaCfg(2, 0, 0xEE)
	cfg.StallTimeout = 30 * time.Millisecond
	cfg.CheckpointEvery = 1 << 20 // never rotates: recovery relies on the log
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 5, 0, 1}, [4]byte{10, 5, 0, 2}
	clean := func(i int) []byte {
		return frame(a, b, uint16(8100+i%11), 53, []byte{1, byte(i)})
	}
	const pre = 80
	for i := 0; i < pre; i++ {
		p.Feed(int64(i*1000), clean(i))
	}
	poison := frame(a, b, 9998, 53, []byte{0xEE})
	p.Feed(81_000, poison)

	deadline := time.Now().Add(5 * time.Second)
	for p.Restarts() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never replaced the wedged worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	const post = 40
	for i := 0; i < post; i++ {
		p.Feed(int64((100+i)*1000), clean(pre+i))
	}
	p.Close()

	var count uint64
	for i := range p.slots {
		count += p.slots[i].Load().h.(*deltaHandler).count
	}
	if count != pre+post {
		t.Fatalf("counted %d packets across the recovery, want %d (loss window must be the wedged packet only)",
			count, pre+post)
	}
	var quar uint64
	for _, st := range p.Stats() {
		quar += st.QuarantinedFlows
	}
	if quar != 1 {
		t.Fatalf("quarantined flows = %d, want 1 (the wedged flow)", quar)
	}
}
