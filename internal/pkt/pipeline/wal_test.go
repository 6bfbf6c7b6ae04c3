package pipeline

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"hilti/internal/rt/admission"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/wal"
)

// deltaHandler is the smallest Snapshotter: per-worker packet count plus
// an order-sensitive hash chain over payload bytes, so any lost,
// duplicated, or reordered packet after a restore shows up.
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
	enc.U64(h.count)
	enc.U64(h.chain)
	return enc.Err()
}

func (h *deltaHandler) ReplayPacket(tsNs int64, data []byte) { h.ProcessPacket(tsNs, data) }

func (h *deltaHandler) Unreplayable() bool { return false }

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

// TestWALFaultReplay: a handler panic leaves the log a gap, which the
// checkpoint's re-base closes with the quarantine in the snapshot — the
// restored pipeline must drop the poisoned flow's later packets and
// report the same quarantine counters as the live one.
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

// outsideHandler is a deltaHandler whose every k-th packet also reads a
// counter that lives outside the shard and mixes it into the chain — the
// shape of a wall-clock deadline or a budget other shards share — and
// reports that packet Unreplayable. Replaying one could not reproduce the
// chain, so ReplayPacket records it if it is ever handed one.
type outsideHandler struct {
	deltaHandler
	k        uint64
	outside  *atomic.Uint64 // shared by every handler, restored ones too
	read     bool           // the packet handled last read outside
	rebases  *atomic.Uint64
	replayed *atomic.Uint64
	bad      *atomic.Uint64 // unreplayable packets handed to ReplayPacket
}

func (h *outsideHandler) ProcessPacket(tsNs int64, data []byte) {
	h.deltaHandler.ProcessPacket(tsNs, data)
	n := h.outside.Add(1)
	if h.read = n%h.k == 0; h.read {
		h.chain ^= n
		data[len(data)-1] ^= 0x80 // marks the frame: never to be replayed
	}
}

func (h *outsideHandler) ReplayPacket(tsNs int64, data []byte) {
	h.replayed.Add(1)
	if data[len(data)-1]&0x80 != 0 {
		h.bad.Add(1)
	}
	h.deltaHandler.ProcessPacket(tsNs, data)
}

func (h *outsideHandler) Unreplayable() bool { r := h.read; h.read = false; return r }

func (h *outsideHandler) Rebase(enc *snapshot.Encoder, prev []byte) error {
	h.rebases.Add(1)
	return h.deltaHandler.Rebase(enc, prev)
}

func outsideCfg(workers int, k uint64) (Config, *outsideHandler) {
	proto := &outsideHandler{k: k, outside: new(atomic.Uint64), rebases: new(atomic.Uint64),
		replayed: new(atomic.Uint64), bad: new(atomic.Uint64)}
	mk := func(i int, count, chain uint64) *outsideHandler {
		h := *proto
		h.deltaHandler = deltaHandler{worker: i, count: count, chain: chain}
		return &h
	}
	return Config{
		Workers:    workers,
		NewHandler: func(i int) (Handler, error) { return mk(i, 0, 0), nil },
		RestoreHandler: func(i int, data []byte) (Handler, error) {
			dec := snapshot.NewDecoder(data)
			return mk(i, dec.U64(), dec.U64()), dec.Err()
		},
	}, proto
}

// TestWALReplaySkipsUnreplayable: a shard whose handler reports every
// 11th packet as having read outside state never logs such a packet, nor
// replays one on restore; every checkpoint still restores each handler to
// the live one's state at the cut, with records since the last re-base
// replayed on top.
func TestWALReplaySkipsUnreplayable(t *testing.T) {
	cfg, proto := outsideCfg(2, 11)
	cfg.CheckpointEvery = 4
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 6, 0, 1}, [4]byte{10, 6, 0, 2}
	next := 0
	for _, cut := range []int{50, 333, 1001, 1777} {
		for ; next < cut; next++ {
			p.Feed(int64(next*1000), frame(a, b, uint16(6000+next%13), 53, []byte{1, byte(next), 0}))
		}
		var buf bytes.Buffer
		if err := p.Checkpoint(&buf); err != nil {
			t.Fatalf("checkpoint at %d: %v", cut, err)
		}
		liveCounts, liveChains := handlerStatesOf(p)
		r, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("restore at %d: %v", cut, err)
		}
		counts, chains := handlerStatesOf(r)
		r.Kill()
		for i := range counts {
			if counts[i] != liveCounts[i] || chains[i] != liveChains[i] {
				t.Errorf("cut %d, worker %d: restored (%d,%#x), live (%d,%#x)",
					cut, i, counts[i], chains[i], liveCounts[i], liveChains[i])
			}
		}
	}
	p.Close()
	if proto.replayed.Load() == 0 {
		t.Error("no restore replayed a packet: the logs held none at any cut")
	}
	if n := proto.bad.Load(); n != 0 {
		t.Fatalf("restore replayed %d packets the handler had reported unreplayable", n)
	}
}

// TestWALUnreplayableRunRebasesLogarithmically: when every packet reads
// outside state, the gaps they open back off — 10,000 packets cost a
// handful of re-bases, not one per packet — and a checkpoint is still the
// live state.
func TestWALUnreplayableRunRebasesLogarithmically(t *testing.T) {
	cfg, proto := outsideCfg(1, 1)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 6, 1, 1}, [4]byte{10, 6, 1, 2}
	for i := 0; i < 10_000; i++ {
		p.Feed(int64(i), frame(a, b, 6000, 53, []byte{2, byte(i), 0}))
	}
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	liveCounts, liveChains := handlerStatesOf(p)
	if n := proto.rebases.Load(); n > 20 {
		t.Errorf("%d re-bases over 10,000 unreplayable packets, want at most 20", n)
	}
	r, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if counts, chains := handlerStatesOf(r); counts[0] != liveCounts[0] || chains[0] != liveChains[0] {
		t.Errorf("restored (%d,%#x), live (%d,%#x)", counts[0], chains[0], liveCounts[0], liveChains[0])
	}
	r.Kill()
	p.Close()
	if proto.replayed.Load() != 0 {
		t.Errorf("replayed %d packets, all of which were unreplayable", proto.replayed.Load())
	}
}

func handlerStatesOf(p *Pipeline) (counts, chains []uint64) {
	for i := range p.slots {
		h := p.slots[i].Load().h.(*outsideHandler)
		counts = append(counts, h.count)
		chains = append(chains, h.chain)
	}
	return
}

// TestWALRecordsEveryPacketFate: a shard's log still gives every packet's
// fate. Under faults, quarantine drops and sheds, the records of each
// shard's log at a checkpoint, added to its base snapshot's tally, are
// the shard's tally at the cut.
func TestWALRecordsEveryPacketFate(t *testing.T) {
	pkts := fateTrace(3)
	cfg, _ := fateCfg(t, 0)
	cfg.CheckpointEvery = 64
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next, logged := 0, 0
	for _, cut := range []int{len(pkts) / 7, len(pkts) * 2 / 5, len(pkts)*3/5 + 11, len(pkts) - 1} {
		feedAll(t, p, pkts[next:cut])
		next = cut
		var buf bytes.Buffer
		if err := p.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		dec := snapshot.NewDecoder(buf.Bytes())
		n := dec.Len(1)
		dec.U64()
		decodeCounts(dec)
		for i := 0; i < n; i++ {
			blob := snapshot.NewDecoder(dec.Bytes())
			snap := blob.Bytes()
			segs := make([][]byte, blob.Len(4))
			for j := range segs {
				segs[j] = blob.Bytes()
			}
			ws := p.newWstate(i)
			if _, _, err := p.decodeShard(ws, snap); err != nil || blob.Err() != nil {
				t.Fatalf("cut %d, shard %d: %v %v", cut, i, err, blob.Err())
			}
			got := ws.fates.Counts()
			recs, err := wal.Replay(segs, func(_ byte, payload []byte) error {
				rd := snapshot.NewRawDecoder(payload)
				rd.I64()
				rd.U64()
				rd.Bool()
				rd.Bytes()
				rd.U32()
				got[admission.Fate(rd.U8())]++
				return rd.Err()
			})
			if err != nil {
				t.Fatal(err)
			}
			logged += recs
			if want := p.slots[i].Load().ws.fates.Counts(); got != want {
				t.Errorf("cut %d, shard %d: base tally + records %v, shard tally %v", cut, i, got, want)
			}
		}
	}
	p.Close()
	if logged == 0 {
		t.Fatal("no checkpoint held a record: the fates came from snapshots alone")
	}
}

// TestWALRefusesUnknownRecordKind: a shard's log holds job records only.
// Restoring a shard whose log carries a record of another kind fails with
// an error.
func TestWALRefusesUnknownRecordKind(t *testing.T) {
	p, err := New(deltaCfg(1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 9, 0, 1}, [4]byte{10, 9, 0, 2}
	for i := 0; i < 10; i++ {
		p.Feed(int64(i*1000), frame(a, b, 7000, 53, []byte{byte(i)}))
	}
	p.Close()
	snap, _, err := p.encodeShard(p.slots[0].Load(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.restoreSlotFromBlob(0, composeShardBlob(snap, nil)); err != nil {
		t.Fatalf("the shard's own snapshot: %v", err)
	}
	// A job record the shard logged, under another kind.
	_, job, ok := wal.NewReader(p.slots[0].Load().wlog.Segments()[0]).Next()
	if !ok {
		t.Fatal("the shard logged no record")
	}
	alien := wal.NewLog(0)
	if err := alien.Append(walJobRecord+1, job); err != nil {
		t.Fatal(err)
	}
	if _, err := p.restoreSlotFromBlob(0, composeShardBlob(snap, alien.Segments())); err == nil {
		t.Error("restored a log with a record of unknown kind")
	}
}
