// Write-ahead-log checkpointing for the pipeline (Config.WAL). The
// non-WAL machinery re-encodes a whole shard every CheckpointEvery
// packets — O(shard state) at every rotation, and a recovery loses all
// work since the last rotation. In WAL mode each packet job instead
// appends one self-contained record to the shard's log: the job's routing
// facts (timestamp, vid, flow key, frame length), its outcome, and the
// handler's O(changed-state) delta (DeltaCheckpointer.EncodeDelta), all
// encoded once, in place, on the tail of the log's open segment. A
// checkpoint is then just the last full snapshot plus the log's segments,
// composed without re-encoding anything, and a replacement worker resumes
// at the record before the wedged packet.
//
// Every CheckpointEvery records the shard re-bases: a full snapshot of
// now replaces the base and the log is truncated. The handler's part of
// it comes from DeltaCheckpointer.Rebase, which is handed its part of the
// previous snapshot and may copy out of it whatever no delta since has
// touched — so the handler's share of a re-base follows what changed. The
// shard's own part (clock, tally, flow table) is small and encoded whole.
//
// Replay determinism rests on the record carrying everything the live job
// consumed from outside the shard: the pipeline-level transitions
// (advanceWorkerTime, admitFlow, and the recorded fate's settle) are
// re-executed from the recorded facts, and the handler's transition is
// applied from the recorded delta. One record per job keeps flushes
// atomic — a record cut mid-write drops the whole packet, never half of
// one, and a record whose delta fails is never committed.
//
// Gap discipline: when a delta cannot express the handler's state (e.g.
// in-flight parser fibers) the shard enters a gap — records stop, the
// composed checkpoint lags at the last committed record, and every
// subsequent job retries a re-base (in full: the handler's base is void)
// until one succeeds. The log therefore never contains a hole: it is
// always replayable prefix-complete.

package pipeline

import (
	"errors"
	"fmt"

	"hilti/internal/pkt/flow"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/wal"
)

// walJobRecord is the record kind of per-packet job records in a shard's
// log.
const walJobRecord byte = 1

// initWALBase puts a slot into WAL mode: full snapshot as the base, empty
// log, handler delta tracking pinned to the current state. Runs with the
// handler quiescent (from New/Restore before start, or on the worker).
func (p *Pipeline) initWALBase(sl *wslot) error {
	dc, ok := sl.h.(DeltaCheckpointer)
	if !ok {
		return fmt.Errorf("pipeline: WAL mode requires the handler to implement DeltaCheckpointer")
	}
	sl.dc = dc
	sl.wlog = wal.NewLog(0)
	return p.rebase(sl)
}

// walRecord appends the record for one settled packet job (no-op when
// WAL is off); its outcome byte is the packet's fate. The record is
// encoded once, onto the tail of the log's open segment: routing facts,
// then — for the two fates that reached the handler — its delta. A delta
// failure abandons the record and opens a gap instead of logging a hole.
// Every CheckpointEvery records the shard re-bases, truncating the log.
// Failed re-bases retry with exponential packet-count backoff (capped at
// 4096) rather than every record, so a persistently unserializable
// handler costs bounded work. Runs on the owning worker goroutine.
func (p *Pipeline) walRecord(sl *wslot, tsNs int64, vid uint64, key flow.Key, hasKey bool, frameLen int, tier int, fate admission.Fate) {
	if sl.dc == nil {
		return
	}
	if sl.walGap {
		if sl.gapSkip > 0 {
			sl.gapSkip--
			return
		}
		if p.rebase(sl) != nil {
			sl.ws.ckptFailures.Add(1)
			if sl.ckptFailN < 12 {
				sl.ckptFailN++
			}
			sl.gapSkip = backoffPackets(sl.ckptFailN)
		}
		return
	}
	// Only the worker mutates the log, so it may read the tail unlocked;
	// the supervisor's Segments() sees the record once Commit publishes it.
	enc := &sl.enc
	enc.Reset(sl.wlog.Begin(walJobRecord))
	enc.I64(tsNs)
	enc.U64(vid)
	enc.Bool(hasKey)
	enc.Bytes(key.Wire())
	enc.U32(uint32(frameLen))
	enc.U8(uint8(fate))
	enc.U8(uint8(tier))
	hasDelta := fate == admission.FateProcessed || fate == admission.FateFault
	enc.Bool(hasDelta)
	var err error
	if hasDelta {
		mark := enc.Begin()
		err = sl.dc.EncodeDelta(enc)
		enc.End(mark)
	}
	if err = errors.Join(err, enc.Err()); err == nil {
		sl.mu.Lock()
		err = sl.wlog.Commit(enc.Buffer())
		sl.mu.Unlock()
	}
	if err != nil {
		sl.walGap = true
		sl.ws.ckptFailures.Add(1)
		return
	}
	if sl.pktSince++; sl.pktSince >= p.cfg.CheckpointEvery {
		if p.rebase(sl) != nil {
			sl.ws.ckptFailures.Add(1)
			// Retry after another full interval, not on every record.
			sl.pktSince = 0
		}
	}
}

// rebase replaces the shard's WAL base with a full snapshot of now and
// truncates the log; on success any open gap closes. While the log has
// been gapless the handler may build its part by patching the previous
// snapshot's; after a gap its base is void and it encodes in full. Runs on
// the owning worker goroutine (or before the slot is published).
func (p *Pipeline) rebase(sl *wslot) error {
	var prevH []byte
	if sl.snap != nil && !sl.walGap {
		prevH = sl.snap[sl.snapH:]
	}
	blob, hoff, err := p.encodeShard(sl, prevH)
	if err != nil {
		return err
	}
	sl.mu.Lock()
	sl.snap = blob
	sl.wlog.Reset()
	sl.mu.Unlock()
	sl.snapH = hoff
	sl.walGap = false
	sl.pktSince = 0
	sl.ckptFailN = 0
	sl.gapSkip = 0
	return nil
}

// composeShardBlob assembles one shard's checkpoint blob: a full shard
// snapshot plus the WAL segments appended since — none outside WAL mode,
// so every blob restores through the same path. Pure composition — no
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

// shardBlob produces the checkpoint blob for one shard: a fresh snapshot
// in normal mode, the last snapshot plus the log's segments in WAL mode
// (healing a gap first, since a checkpoint must capture the present).
// Runs on the owning worker goroutine.
func (p *Pipeline) shardBlob(sl *wslot) ([]byte, error) {
	if sl.dc == nil {
		snap, _, err := p.encodeShard(sl, nil)
		if err != nil {
			return nil, err
		}
		return composeShardBlob(snap, nil), nil
	}
	if sl.walGap && p.rebase(sl) != nil {
		return nil, fmt.Errorf("pipeline: WAL gap: shard state not currently serializable")
	}
	sl.mu.Lock()
	snap, segs := sl.snap, sl.wlog.Segments()
	sl.mu.Unlock()
	return composeShardBlob(snap, segs), nil
}

// restoreSlotFromBlob rebuilds one worker slot from a shard blob — the
// restore path shared by Restore and supervised recovery: decode the
// snapshot, rebuild the handler, replay whatever records follow. A blob
// written under either Config.WAL setting restores under either,
// re-entering WAL mode when it is on.
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
	case hasH:
		h, err = p.cfg.RestoreHandler(i, hb)
	case len(segs) > 0:
		err = fmt.Errorf("WAL segments without handler state")
	case p.cfg.NewHandler != nil:
		h, err = p.cfg.NewHandler(i)
	default:
		err = fmt.Errorf("no handler state and no NewHandler")
	}
	if err != nil {
		return nil, fmt.Errorf("handler: %w", err)
	}
	dc, _ := h.(DeltaCheckpointer)
	if _, err := wal.Replay(segs, func(k byte, payload []byte) error {
		if k != walJobRecord || dc == nil {
			return fmt.Errorf("pipeline: cannot replay WAL record kind %d onto %T", k, h)
		}
		return p.replayShardRecord(ws, dc, payload)
	}); err != nil {
		return nil, err
	}
	sl := &wslot{ws: ws, h: h, track: p.cfg.StallTimeout > 0, arrived: ws.fates.Counts().Sum()}
	ws.owner = sl
	if p.cfg.WAL {
		if err := p.initWALBase(sl); err != nil {
			return nil, err
		}
	}
	return sl, nil
}

// replayShardRecord re-executes one job record: the worker clock advance,
// the flow admission the two delivered fates share, the recorded fate's
// settle, then the handler's transition from the recorded delta.
func (p *Pipeline) replayShardRecord(ws *wstate, dc DeltaCheckpointer, payload []byte) error {
	dec := snapshot.NewRawDecoder(payload)
	tsNs := dec.I64()
	vid := dec.U64()
	hasKey := dec.Bool()
	rk := dec.Bytes()
	frameLen := dec.U32()
	fate := admission.Fate(dec.U8())
	tier := int(dec.U8())
	hasDelta := dec.Bool()
	var delta []byte
	if hasDelta {
		delta = dec.Bytes()
	}
	if err := dec.Err(); err != nil {
		return err
	}
	key, err := flow.KeyFromWire(rk)
	if err != nil {
		return err
	}
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
	p.settle(ws, fate, vid, 1, int(frameLen))
	if hasDelta {
		return dc.ApplyDelta(delta)
	}
	return nil
}
