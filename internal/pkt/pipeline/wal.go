// Write-ahead logging: how a pipeline shard persists itself. A shard keeps
// a log when it has something to recover — its handler implements
// Snapshotter, or a supervisor may rebuild it (StallTimeout). Each packet
// job appends one self-contained record to the shard's log: the job's
// routing facts (timestamp, vid, flow key, frame length), its outcome,
// and — for a packet a Snapshotter processed — the frame itself, all
// encoded once, in place, on the tail of the log's open segment. The log
// holds the input, not the state it changed (command logging): a shard's
// state after a packet follows from its state before, the timestamp and
// the frame. A checkpoint is then the last full snapshot plus the log's
// segments, composed without re-encoding anything — up to CheckpointEvery
// raw frames per shard, so payload bytes end up at rest — and a
// replacement worker resumes at the record before the wedged packet. An
// unsupervised plain handler keeps no log and pays nothing.
//
// Every CheckpointEvery records the shard re-bases: a full snapshot of
// now replaces the base and the log is truncated. The handler's part of
// it comes from Snapshotter.Rebase, which is handed its part of the
// previous snapshot and may copy out of it whatever has not changed since
// — so the handler's share of a re-base follows what changed. The shard's
// own part (clock, tally, flow table) is small and encoded whole. The new
// snapshot is written into the one from two re-bases ago.
//
// Replay re-executes each record in live order: advanceWorkerTime,
// admitFlow for the two delivered fates, the handler on the logged frame
// (Snapshotter.ReplayPacket), then the recorded fate's settle. The shard
// has its owner while it replays, so an idle-expiry zap (ExpireFlows)
// reaches the handler as it did live. One record per job keeps flushes
// atomic — a record cut mid-write drops the whole packet, never half of
// one.
//
// Gap discipline: a packet the handler cannot replay — it faulted, or it
// read something besides its state, timestamp and frame
// (Snapshotter.Unreplayable) — is not logged; nor is anything after it
// until a re-base captures the state it left. The shard is then in a gap:
// records stop, the composed checkpoint lags at the last committed record,
// and a later job re-bases. A failed re-base, or a failed refresh after a
// migration, opens a gap the same way. The n-th gap since the log last
// ran a full CheckpointEvery interval waits 2^n packets (at most 4096)
// before it re-bases, so neither a persistently unserializable handler nor
// a run of unreplayable packets costs O(state) work per packet. The log
// therefore never contains a hole: it is always replayable
// prefix-complete.

package pipeline

import (
	"fmt"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/fault"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/wal"
)

// walJobRecord is the record kind of per-packet job records in a shard's
// log.
const walJobRecord byte = 1

// openLog gives a slot with something to recover its log, based on a full
// snapshot of now. Runs with the handler quiescent (from New/Restore
// before start, or from the supervisor on a slot not yet published).
func (p *Pipeline) openLog(sl *wslot) {
	sl.sn, _ = sl.h.(Snapshotter)
	if sl.sn == nil && !sl.track {
		return
	}
	sl.wlog = wal.NewLog(0)
	if p.rebase(sl) != nil {
		p.openGap(sl)
	}
}

// openGap stops records until a re-base: after a packet the log cannot
// replay, or a re-base the log cannot go on without that failed. The n-th
// gap since the last clean CheckpointEvery interval re-bases after 2^n
// packets (capped at 4096).
func (p *Pipeline) openGap(sl *wslot) {
	sl.walGap = true
	sl.ws.ckptFailures.Add(1)
	if sl.ckptFailN < 12 {
		sl.ckptFailN++
	}
	sl.gapSkip = 1 << sl.ckptFailN
}

// walRecord appends the record for one settled packet job (no-op without
// a log); its outcome byte is the packet's fate. The record is encoded
// once, onto the tail of the log's open segment: routing facts, then — for
// a packet a Snapshotter processed — the frame. A packet the handler
// cannot replay opens a gap instead. Every CheckpointEvery records the
// shard re-bases, truncating the log. Runs on the owning worker goroutine.
func (p *Pipeline) walRecord(sl *wslot, tsNs int64, vid uint64, key flow.Key, hasKey bool, frame []byte, tier int, fate admission.Fate) {
	if sl.wlog == nil {
		return
	}
	if sl.walGap {
		if sl.gapSkip > 0 {
			sl.gapSkip--
		} else if p.rebase(sl) != nil {
			p.openGap(sl)
		}
		return
	}
	var start time.Time
	sample := p.recordLat != nil && (sl.pktSince+1)%64 == 0
	if sample {
		start = time.Now()
	}
	hasFrame := sl.sn != nil && fate == admission.FateProcessed
	if sl.sn != nil && (fate == admission.FateFault || hasFrame && sl.sn.Unreplayable()) {
		p.openGap(sl)
		return
	}
	// Only the worker mutates the log, so it may read the tail unlocked;
	// the supervisor's Segments() sees the record once Commit publishes it.
	enc := &sl.enc
	tail := sl.wlog.Begin(walJobRecord)
	enc.Reset(tail)
	enc.I64(tsNs)
	enc.U64(vid)
	enc.Bool(hasKey)
	enc.Bytes(key.Wire())
	enc.U32(uint32(len(frame)))
	enc.U8(uint8(fate))
	enc.U8(uint8(tier))
	enc.Bool(hasFrame)
	if hasFrame {
		enc.Bytes(frame)
	}
	err := enc.Err()
	if err == nil {
		sl.mu.Lock()
		err = sl.wlog.Commit(enc.Buffer())
		sl.mu.Unlock()
	}
	if err != nil {
		p.openGap(sl)
		return
	}
	if sample {
		p.recordLat.Observe(time.Since(start).Nanoseconds())
		p.recordSize.Observe(int64(len(enc.Buffer()) - len(tail)))
	}
	if sl.pktSince++; sl.pktSince >= p.cfg.CheckpointEvery {
		sl.ckptFailN = 0 // a full interval without a gap
		if p.rebase(sl) != nil {
			p.openGap(sl)
		}
	}
}

// rebase replaces the shard's WAL base with a full snapshot of now and
// truncates the log; on success any open gap closes. The handler may
// build its part by patching the previous snapshot's. The new snapshot is
// encoded into the spare — the one before the previous, which nothing
// holds any more: the supervisor and Checkpoint copy a snapshot under
// sl.mu. Runs on the owning worker goroutine (or before the slot is
// published).
func (p *Pipeline) rebase(sl *wslot) error {
	var prevH []byte
	if sl.snap != nil {
		prevH = sl.snap[sl.snapH:]
	}
	blob, hoff, err := p.encodeShard(sl, prevH, sl.spare)
	if err != nil {
		return err
	}
	sl.mu.Lock()
	sl.spare, sl.snap = sl.snap, blob
	sl.wlog.Reset()
	sl.mu.Unlock()
	sl.snapH = hoff
	sl.walGap = false
	sl.pktSince = 0
	sl.gapSkip = 0
	return nil
}

// composeShardBlob assembles one shard's checkpoint blob: a full shard
// snapshot plus the log segments appended since — none for a shard without
// a log, so every blob restores through the same path. Pure composition — no
// handler access — so the supervisor can call it on a wedged worker's slot
// (under sl.mu).
func composeShardBlob(snap []byte, segs [][]byte) []byte {
	enc := snapshot.NewAppender(nil)
	enc.Header()
	enc.Bytes(snap)
	enc.U32(uint32(len(segs)))
	for _, s := range segs {
		enc.Bytes(s)
	}
	return enc.Buffer()
}

// shardBlob produces the checkpoint blob for one shard: the last snapshot
// plus the log's segments (healing a gap first, since a checkpoint must
// capture the present), or a fresh snapshot for a shard without a log.
// Runs on the owning worker goroutine.
func (p *Pipeline) shardBlob(sl *wslot) ([]byte, error) {
	if sl.wlog == nil {
		snap, _, err := p.encodeShard(sl, nil, nil)
		if err != nil {
			return nil, err
		}
		return composeShardBlob(snap, nil), nil
	}
	if sl.walGap && p.rebase(sl) != nil {
		return nil, fmt.Errorf("pipeline: log gap: shard state not currently serializable")
	}
	sl.mu.Lock()
	snap, segs := sl.snap, sl.wlog.Segments()
	sl.mu.Unlock()
	return composeShardBlob(snap, segs), nil
}

// restoreSlotFromBlob rebuilds one worker slot from a shard blob — the
// restore path shared by Restore and supervised recovery: decode the
// snapshot, rebuild the handler, replay whatever records follow. The slot
// comes back without a log; the caller opens one with openLog.
func (p *Pipeline) restoreSlotFromBlob(i int, blob []byte) (*wslot, error) {
	dec := snapshot.NewDecoder(blob)
	snap := dec.Bytes()
	segs := make([][]byte, dec.Len(4))
	for j := range segs {
		segs[j] = dec.Bytes()
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	ws := p.newWstate(i)
	hb, hasH, err := p.decodeShard(ws, snap)
	if err != nil {
		return nil, err
	}
	var h Handler
	switch {
	case hasH && p.cfg.RestoreHandler != nil:
		h, err = p.cfg.RestoreHandler(i, hb)
	case hasH:
		err = fmt.Errorf("handler state and no RestoreHandler")
	case p.cfg.NewHandler != nil:
		h, err = p.cfg.NewHandler(i)
	default:
		err = fmt.Errorf("no handler state and no NewHandler")
	}
	if err != nil {
		return nil, fmt.Errorf("handler: %w", err)
	}
	sl := &wslot{ws: ws, h: h, track: p.cfg.StallTimeout > 0}
	ws.owner = sl
	if _, err := wal.Replay(segs, func(k byte, payload []byte) error {
		if k != walJobRecord {
			return fmt.Errorf("pipeline: cannot replay WAL record kind %d", k)
		}
		start := time.Now()
		err := p.replayShardRecord(sl, payload)
		p.replayLat.Observe(time.Since(start).Nanoseconds())
		return err
	}); err != nil {
		return nil, err
	}
	sl.arrived = ws.fates.Counts().Sum()
	return sl, nil
}

// replayShardRecord re-executes one job record in live order: the worker
// clock advance, the flow admission the two delivered fates share, the
// handler on the logged frame, if the record has one, and the recorded
// fate's settle.
func (p *Pipeline) replayShardRecord(sl *wslot, payload []byte) error {
	dec := snapshot.NewRawDecoder(payload)
	tsNs := dec.I64()
	vid := dec.U64()
	hasKey := dec.Bool()
	rk := dec.Bytes()
	frameLen := int(dec.U32())
	fate := admission.Fate(dec.U8())
	tier := int(dec.U8())
	hasFrame := dec.Bool()
	var frame []byte
	if hasFrame {
		frame = dec.Bytes()
	}
	if err := dec.Err(); err != nil {
		return err
	}
	key, err := flow.KeyFromWire(rk)
	if err != nil {
		return err
	}
	ws := sl.ws
	switch fate {
	case admission.FateProcessed, admission.FateFault:
		p.advanceWorkerTime(ws, tsNs)
		// The record's existence proves the live job admitted, so replay
		// never re-sheds (the class isn't recorded); the tier reproduces
		// the scaled idle deadline.
		p.admitFlow(ws, vid, key, hasKey, tsNs, tier, false)
	case admission.FateQuarantineDrop, admission.FateShed, admission.FateDiscarded:
		p.advanceWorkerTime(ws, tsNs)
	default:
		return fmt.Errorf("pipeline: WAL job record with fate %d (%v), which no packet job settles", fate, fate)
	}
	if hasFrame {
		sn, ok := sl.h.(Snapshotter)
		if !ok {
			return fmt.Errorf("pipeline: WAL record carries a packet %T cannot replay", sl.h)
		}
		f := fault.Catch("replay", func() { sn.ReplayPacket(tsNs, frame) })
		if f != nil || sn.Unreplayable() {
			return fmt.Errorf("pipeline: a logged packet did not replay as it ran live (%v)", f)
		}
	}
	p.settle(ws, fate, vid, 1, frameLen)
	return nil
}
