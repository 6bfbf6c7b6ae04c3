// Engine state management — the paper's transparent-state-management
// argument made concrete: because analysis state lives in typed runtime
// values rather than ad-hoc heap structures, the host can suspend, resume
// and move it without the analyzers' cooperation. There is one codec, and
// the three products built on it are selections over the same sections:
//
//	state    := frames sections
//	frames   := u32 n { bytes(frame) }
//	frame    := string uid, u8 flags, [key if flags != 0], [conn if ffConn], tables
//	tables   := u32 n { string global, ops }
//	ops      := u32 n { string keyStr } u32 n { entry }      (deletes, upserts)
//	sections := meta quar logs interp exec
//	meta     := i64 now, i64 nextCtx, u64 per counter
//	quar     := u32 n { u64 vid, bool present, u64 dropped }
//	logs     := u32 n { string stream, u32 n { string line } }   (from a watermark)
//	interp   := u32 n { string global, u8 mode, bytes body }
//	            body(modeWhole) = val
//	            body(modeTable) = bool reset [table attrs] u64 nextSeq ops
//	exec     := bool present [ i64 now, u32 n { u32 index, u8 mode, bytes body } ]
//
// A flow frame is everything keyed by one connection uid: the connection
// record plus the script-table entries whose first index is that uid (HTTP
// keeps `table[string] of ...` by uid, DNS `table[string, count]`). The uid
// derives from the canonical 5-tuple and the flow's start time (flow.UID),
// so it names the same flow on every instance. Table entries carry their
// insertion rank (seq), which makes iteration order data rather than a
// property of where an entry sat in an encoding — so an entry can live in
// its flow's frame and still replay to the exact table order.
//
// The selections:
//
//   - Full checkpoint (Checkpoint / RestoreEngine): the delta against an
//     empty engine — every section complete, every open flow a frame.
//     RestoreEngine is NewEngine plus the one apply path.
//   - WAL delta (Rebase or ResetDeltaBase, then EncodeDelta / AppendDelta,
//     ApplyDelta), for engine-level logs (RestoreEngineWAL) — a pipeline
//     shard logs packets and replays them (ReplayPacket), using Rebase
//     alone: touched quarantine marks, log lines past the flushed
//     watermark, globals that differ from the cached base, and a frame per
//     dirty or closed flow. Granularity: a dirty connection re-encodes
//     whole; interpreter tables emit the entries marked since the last
//     flush (TableVal.mark), so a flush costs what changed, not what the
//     table holds; VM container globals with scalar-only contents journal
//     individual operations (container.JournalFn), and any non-scalar key
//     or value trips the gate to whole-blob diffing — a heap value stored in
//     a container can be mutated later without a container operation the
//     journal could observe. Rebase writes the full checkpoint the next
//     deltas build on by patching the previous one: the frames no delta
//     and no pending mark touched are copied, the sections encoded as
//     ever.
//   - Flow migration (ExtractFlow / InjectFlow): one live flow's frame,
//     built directly. Applied in adopt mode: ctx and seq are
//     instance-local, so the target assigns its own, and nothing
//     engine-global (counters, clocks, logs) moves.
//
// Limits: a frame counts as untouched on the word of the dirty marks, and
// an aggregate reachable from two table entries is marked only under the
// one it was read through (DESIGN "Script tables", the aliasing limit). The
// marks are not claimed complete: every fullRebaseEvery-th Rebase in a row
// encodes every frame again. In-flight BinPAC++ parse state is a parked
// vm.Resumable — activation records over registers and rope iterators —
// which is not encoded yet (ROADMAP 1a); every selection refuses a
// connection that is mid-parse (the caller re-bases once possible).
// Unserializable VM globals (function refs, channels) keep the
// restoring side's value. Per-flow migration supports the interpreter
// script backend only: compiled scripts keep their state in VM globals
// that cannot be attributed to individual flows. Fault diagnostics (the
// Recorder) are intentionally not carried across a restore. All methods
// run on the engine's owning worker goroutine.

package bro

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/flow"
	"hilti/internal/rt/container"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
	"hilti/internal/rt/wal"
)

// DeltaRecord is the WAL record kind under which engine-level harnesses
// append AppendDelta payloads (the pipeline logs packets in its own
// records instead).
const DeltaRecord = 1

// Global-emission modes.
const (
	modeWhole   = 0 // full re-encoded value
	modeTable   = 1 // interpreter table: optional reset, then per-entry ops
	modeJournal = 2 // container journal ops (VM globals only)
)

// Flow-frame flag bits.
const (
	ffClosed = 1 << iota // the flow closed: drop its connection
	ffConn               // a connection record follows
)

// frameMin is the smallest length-prefixed frame: prefix, uid length,
// flags, table count.
const frameMin = 4 + 4 + 1 + 4

// deltaState is a selection: which state the next encodeState call emits,
// plus the caches describing what the previous call (or the base
// snapshot) contained. The engine's live one (Engine.delta) is fed by the
// dirty marks below; fullSelection builds the everything-selected one.
type deltaState struct {
	dirtyConns  map[int64]*conn
	closed      map[string]flow.Key // uid -> key of flows closed since the last flush
	quarTouched map[uint64]bool
	dirtyInterp bool
	dirtyExec   bool
	skipFrames  bool // a full selection's sections only: labelled entries stay out

	interp  map[string]*interpCache
	exec    []execCache
	flushed map[string]int // stream name -> lines already persisted

	// base says where the flow frames sit in the snapshot the deltas build
	// on (nil: unknown, the next Rebase encodes in full). touched has the
	// uid of every frame a flush has emitted since — what Rebase encodes
	// again rather than copies.
	base    *baseIndex
	touched map[string]touch

	// What one encodeState call gathers before it writes, kept for capacity.
	frames  frameSet
	globals []globalDelta
	qvids   []uint64
	snames  []string
	scratch snapshot.Encoder // a non-table global's encoding, to hold against its base
	out     snapshot.Encoder // AppendDelta's record, before the exact-size copy it returns
}

func newDeltaState() *deltaState {
	return &deltaState{
		dirtyConns:  map[int64]*conn{},
		closed:      map[string]flow.Key{},
		quarTouched: map[uint64]bool{},
		interp:      map[string]*interpCache{},
		flushed:     map[string]int{},
		touched:     map[string]touch{},
		frames:      frameSet{at: map[string]int{}},
	}
}

// baseIndex locates the length-prefixed flow frames of one Rebase
// snapshot: they lie back to back in uid order, frame i at
// [starts[i], starts[i+1]) of it. That, with the uid each frame opens
// with, is all a later Rebase needs to copy frames; the bytes stay with
// the caller.
type baseIndex struct {
	origin  int // the snapshot's offset in the encoder it was written to
	size    int
	starts  []int // one more than there are frames
	patched int   // Rebases since one encoded every frame
}

// note records that a frame starts at offset at of the encoder (or, as
// the last call, that the frames end there).
func (ix *baseIndex) note(at int) {
	if ix != nil {
		ix.starts = append(ix.starts, at-ix.origin)
	}
}

// frames returns the number of frames; uid returns the label frame i of
// snap opens with (behind the frame's and the string's length prefixes).
func (ix *baseIndex) frames() int { return len(ix.starts) - 1 }

func (ix *baseIndex) uid(snap []byte, i int) []byte {
	body := snap[ix.starts[i]+4 : ix.starts[i+1]]
	return body[4 : 4+binary.BigEndian.Uint32(body)]
}

// interpCache is the per-interpreter-global base the next diff runs
// against: for a table the object whose marks describe the changes, for
// anything else its encoding.
type interpCache struct {
	tbl  *TableVal
	blob []byte
}

// execCache is the per-VM-global base. Container globals with scalar-only
// contents run in journal mode: mutations append ops and an unchanged
// container costs nothing at flush time. Everything else diffs blobs (a
// nil blob: not serializable so far).
type execCache struct {
	obj       any // journaled container identity (nil: plain blob mode)
	journaled bool
	dirty     bool // any journal activity since last flush
	ops       *snapshot.Encoder
	nops      int
	blob      []byte
}

// --- dirty marks (called from engine.go; no-ops when WAL is off) ---------------

func (e *Engine) markConnDirty(c *conn) {
	if e.delta != nil {
		e.delta.dirtyConns[c.ctx] = c
	}
}

func (e *Engine) markConnClosed(c *conn) {
	if e.delta != nil {
		delete(e.delta.dirtyConns, c.ctx)
		e.delta.closed[c.uid] = c.key
	}
}

func (e *Engine) markQuar(vid uint64) {
	if e.delta != nil {
		e.delta.quarTouched[vid] = true
	}
}

func (e *Engine) markInterpDirty() {
	if e.delta != nil {
		e.delta.dirtyInterp = true
	}
}

// --- the three selections ------------------------------------------------------

// Checkpoint serializes the engine's full analysis state to w. The engine
// must be between packets (the single-threaded engine always is; the
// pipeline quiesces each shard by scheduling the checkpoint as a job on
// the shard's own virtual thread). Delta tracking is not disturbed.
func (e *Engine) Checkpoint(w io.Writer) error {
	return e.encodeFull(snapshot.NewRawEncoder(w), nil)
}

// encodeFull writes the full-checkpoint stream: every section complete,
// every open flow a frame (noted in ix).
func (e *Engine) encodeFull(enc *snapshot.Encoder, ix *baseIndex) error {
	e.encodeHeader(enc)
	return e.encodeState(enc, e.fullSelection(false), ix)
}

func (e *Engine) encodeHeader(enc *snapshot.Encoder) {
	enc.Header()
	enc.String(e.cfg.Parser)
	enc.String(e.cfg.ScriptExec)
}

// fullSelection selects everything: empty caches and watermarks, every
// connection, mark and global dirty — the delta against an empty engine.
// With sectionsOnly it leaves the flow frames out: no connection, and
// script-table entries only where they have no label.
func (e *Engine) fullSelection(sectionsOnly bool) *deltaState {
	ds := newDeltaState()
	if ds.skipFrames = sectionsOnly; !sectionsOnly {
		for _, c := range e.conns {
			ds.dirtyConns[c.ctx] = c
		}
	}
	for vid := range e.quarantined {
		ds.quarTouched[vid] = true
	}
	ds.dirtyInterp = true
	if e.ex != nil {
		ds.exec = make([]execCache, len(e.ex.Globals))
	}
	ds.dirtyExec = true
	return ds
}

// RestoreEngine builds a fresh engine for cfg and applies the state
// checkpointed by Checkpoint. The configuration's parser and script
// backends must match the checkpoint's.
func RestoreEngine(cfg Config, r io.Reader) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	dec := snapshot.NewDecoder(data)
	if p := dec.String(); dec.Err() == nil && p != cfg.Parser {
		return nil, fmt.Errorf("bro: checkpoint parser %q does not match config %q", p, cfg.Parser)
	}
	if s := dec.String(); dec.Err() == nil && s != cfg.ScriptExec {
		return nil, fmt.Errorf("bro: checkpoint script backend %q does not match config %q", s, cfg.ScriptExec)
	}
	if err := e.applyState(dec); err != nil {
		return nil, err
	}
	return e, nil
}

// ResetDeltaBase (re)initializes delta tracking so that subsequent
// AppendDelta calls describe changes relative to the engine's *current*
// state. Call it immediately after writing a full snapshot (Checkpoint);
// the snapshot plus the deltas then reconstruct the engine exactly. Rebase
// is the two in one step, and the cheaper one when it repeats.
func (e *Engine) ResetDeltaBase() error { return e.pin(nil) }

// pin makes the current state the delta base; base locates the frames of
// the snapshot just written of it, if one was.
func (e *Engine) pin(base *baseIndex) error {
	e.detachJournals()
	e.delta = nil
	ds := newDeltaState()
	ds.base = base
	for name, v := range e.interp.Globals {
		if t, ok := v.(*TableVal); ok {
			t.clearMarks()
			ds.interp[name] = &interpCache{tbl: t}
			continue
		}
		ds.scratch.Reset(ds.scratch.Buffer()[:0])
		encodeVal(&ds.scratch, v, 0)
		if err := ds.scratch.Err(); err != nil {
			return err
		}
		ds.interp[name] = &interpCache{blob: bytes.Clone(ds.scratch.Buffer())}
	}
	ds.exec = e.baseExec()
	for name, st := range e.Logs.streams {
		ds.flushed[name] = len(st.lines)
	}
	e.delta = ds
	e.outsideSeen = e.outsideReads()
	return nil
}

// ReplayPacket runs a packet again on a restored engine, for a log that
// records packets rather than the state they changed (the pipeline's):
// ProcessPacket with print output muted, no wall-clock deadline, and the
// shared reassembly budget granting every byte — what it granted live,
// since a packet it refused is Unreplayable and never logged.
func (e *Engine) ReplayPacket(tsNs int64, frame []byte) {
	if e.cfg.LoopPort != 0 && e.loopExec == nil {
		_ = e.initLoopExec() // now, so that it too runs without a deadline
	}
	iout := e.interp.Out
	e.interp.Out = io.Discard
	defer func() { e.interp.Out = iout }()
	for _, ex := range []*vm.Exec{e.ex, e.loopExec} {
		if ex != nil {
			out, lim := ex.Out, ex.Limits
			ex.Out, ex.Limits.Deadline = io.Discard, 0
			defer func() { ex.Out, ex.Limits = out, lim }()
		}
	}
	if e.cfg.SharedReassembly != nil {
		e.reasm.Granting = true
		defer func() { e.reasm.Granting = false }()
	}
	e.ProcessPacket(tsNs, frame)
}

// Unreplayable reports whether the packet processed last read anything
// besides the engine's state, its timestamp and its frame, so that running
// it again might not reproduce it: it faulted, it tripped a wall-clock
// Limits.Deadline, or a SharedReassembly budget — which the other
// engines' traffic fills too — refused it a byte.
func (e *Engine) Unreplayable() bool {
	n := e.outsideReads()
	changed := n != e.outsideSeen
	e.outsideSeen = n
	return changed
}

// outsideReads counts the events Unreplayable looks for, over the
// engine's lifetime.
func (e *Engine) outsideReads() uint64 {
	n := e.faults.Count()
	for _, ex := range []*vm.Exec{e.ex, e.loopExec} {
		if ex != nil {
			n += ex.DeadlineTrips()
		}
	}
	if e.cfg.SharedReassembly != nil {
		n += e.reasm.Forced()
	}
	return n
}

// fullRebaseEvery makes every 16th Rebase in a row encode all frames
// again. A patching Rebase believes the marks; the periodic full encode
// bounds how long a snapshot can lag behind a write they miss — the
// aliasing limit (see the header), or a mark nobody knows to be missing.
const fullRebaseEvery = 16

// Rebase writes a full snapshot of the engine as it is now onto enc — the
// bytes Checkpoint would write — and makes that state the delta base. prev
// is what the previous Rebase wrote (nil: not available). If every delta
// since then was flushed without error, only the flow frames they touched
// are encoded again; the other frames are copied out of prev, and the
// sections encoded as Checkpoint encodes them — the part of the cost that
// still grows with the state. On an error the previous base stays in force.
func (e *Engine) Rebase(enc *snapshot.Encoder, prev []byte) error {
	ix := &baseIndex{origin: enc.Len()}
	var err error
	if ds := e.delta; ds != nil && ds.base != nil && len(prev) == ds.base.size && ds.base.patched+1 < fullRebaseEvery {
		if err = e.encodePatched(enc, prev, ds.base, ix); err != nil {
			ds.base = nil // whatever went wrong, the next Rebase encodes in full
		}
	} else if err = e.encodeFull(enc, ix); err == nil {
		e.rebaseTouched.Add(uint64(ix.frames()))
		e.rebaseEncoded.Add(uint64(ix.frames()))
	}
	if err != nil {
		return err
	}
	ix.size = enc.Len() - ix.origin
	return e.pin(ix)
}

// EncodeDelta serializes everything that changed since the last flush (or
// base) onto enc as one self-contained record, advancing the base so the
// next call describes only subsequent changes. An error means the delta
// cannot express the current state (in-flight binpac parse, unencodable
// script value) and the base is no longer trustworthy: what was written is
// to be discarded, and the caller re-bases once possible.
func (e *Engine) EncodeDelta(enc *snapshot.Encoder) error {
	if e.delta == nil {
		return errNoDeltaBase
	}
	err := e.encodeState(enc, e.delta, nil)
	if err != nil {
		e.delta.base = nil // touched missed this flush: nothing to patch from
	}
	return err
}

var errNoDeltaBase = errors.New("bro: AppendDelta without ResetDeltaBase")

// AppendDelta is EncodeDelta into a record of its own, which the caller
// appends to a wal.Log.
func (e *Engine) AppendDelta() ([]byte, error) {
	if e.delta == nil {
		return nil, errNoDeltaBase
	}
	out := &e.delta.out
	out.Reset(out.Buffer()[:0])
	if err := e.EncodeDelta(out); err != nil {
		return nil, err
	}
	return bytes.Clone(out.Buffer()), nil
}

// ApplyDelta replays one AppendDelta record onto the engine — the restore
// half of incremental checkpointing. The engine must be at the state the
// record was diffed against (the base snapshot plus all earlier records).
func (e *Engine) ApplyDelta(data []byte) error {
	return e.applyState(snapshot.NewRawDecoder(data))
}

// RestoreEngineWAL rebuilds an engine from a full snapshot plus the WAL
// segments written since, replaying each delta record in order. Damage in
// the final segment is treated as a crash-truncated tail (the restore
// lands on the last intact record); damage in an earlier segment is an
// error. The restored engine is not yet in WAL mode — call Checkpoint +
// ResetDeltaBase to resume appending.
func RestoreEngineWAL(cfg Config, snap []byte, segs [][]byte) (*Engine, error) {
	e, err := RestoreEngine(cfg, bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	if _, err := wal.ReplayTolerant(segs, func(kind byte, payload []byte) error {
		if kind != DeltaRecord {
			return fmt.Errorf("bro: unexpected WAL record kind %d", kind)
		}
		return e.ApplyDelta(payload)
	}); err != nil {
		return nil, err
	}
	return e, nil
}

var errPerFlowBackend = errors.New("bro: per-flow migration requires the interpreter script backend")

// MigratableFlows enumerates every open connection's canonical flow key,
// ordered by connection age (ctx ascending) for determinism. Together
// with ExtractFlow/InjectFlow/ForgetFlow/HasFlow this implements the
// pipeline's MigratableHandler contract.
func (e *Engine) MigratableFlows() []flow.Key {
	open := make([]*conn, 0, len(e.conns))
	for _, c := range e.conns {
		open = append(open, c)
	}
	sort.Slice(open, func(i, j int) bool { return open[i].ctx < open[j].ctx })
	out := make([]flow.Key, len(open))
	for i, c := range open {
		out[i] = c.key
	}
	return out
}

// HasFlow reports whether the engine holds a connection for the flow.
func (e *Engine) HasFlow(key flow.Key) bool {
	ck, _ := key.Canonical()
	_, ok := e.conns[ck]
	return ok
}

// ExtractFlow serializes one flow's frame — connection record plus every
// script-table entry keyed by its uid — without removing anything: the
// source keeps ownership until the handoff commits.
func (e *Engine) ExtractFlow(key flow.Key) ([]byte, error) {
	if e.compiled {
		return nil, errPerFlowBackend
	}
	ck, _ := key.Canonical()
	c, ok := e.conns[ck]
	if !ok {
		return nil, fmt.Errorf("bro: no connection for migrating flow")
	}
	if c.inFlightParse() {
		return nil, fmt.Errorf("bro: connection %s holds in-flight parse state", c.uid)
	}
	var f flowFrame
	e.liveFrame(&f, c.uid, c)
	enc := snapshot.NewAppender(nil)
	encodeFrame(enc, &f)
	return enc.Buffer(), enc.Err()
}

// InjectFlow installs a shipped flow frame. The install is
// counter-neutral: the flow was opened on its first instance and closes on
// its last. Only a live flow the engine does not hold is installed: a
// tombstone or a frame without a connection is refused, and a flow already
// present is a double-ownership violation. A refused frame changes nothing.
func (e *Engine) InjectFlow(blob []byte) (flow.Key, error) {
	if e.compiled {
		return flow.Key{}, errPerFlowBackend
	}
	dec := snapshot.NewRawDecoder(blob)
	uid, flags, key := frameHeader(dec)
	if err := dec.Err(); err != nil {
		return flow.Key{}, err
	}
	if flags != ffConn {
		return flow.Key{}, fmt.Errorf("bro: migrated frame for %s carries no live connection", uid)
	}
	if e.HasFlow(key) {
		return flow.Key{}, fmt.Errorf("bro: flow %s already present (double ownership)", uid)
	}
	return e.applyFrame(blob, true)
}

// ForgetFlow releases a flow after a committed handoff: connection state
// and uid-keyed script entries go, with no events, no log lines, and no
// counter movement — the flow now lives elsewhere and will close there.
func (e *Engine) ForgetFlow(key flow.Key) bool {
	ck, _ := key.Canonical()
	c, ok := e.conns[ck]
	if !ok {
		return false
	}
	e.dropConnState(c)
	e.dropFlowScriptState(c.uid)
	e.markConnClosed(c)
	return true
}

// --- encoding ------------------------------------------------------------------

// encodeState writes the section sequence for selection ds and advances
// ds's caches and watermarks past what it wrote; ix, if not nil, learns
// where each frame went.
func (e *Engine) encodeState(enc *snapshot.Encoder, ds *deltaState, ix *baseIndex) error {
	if err := e.gather(ds); err != nil {
		return err
	}
	enc.U32(uint32(len(ds.frames.all)))
	for i := range ds.frames.all {
		ix.note(enc.Len())
		putFrame(enc, &ds.frames.all[i])
	}
	ix.note(enc.Len())
	e.encodeSections(enc, ds)
	if err := enc.Err(); err != nil {
		return err
	}
	clear(ds.dirtyConns)
	clear(ds.closed)
	clear(ds.quarTouched)
	return nil
}

// gather collects, in uid order, the flow frames selection ds emits and,
// in ds.globals, the interpreter globals that changed. The live selection
// notes the frames as touched.
func (e *Engine) gather(ds *deltaState) error {
	fs := &ds.frames
	fs.reset()
	for _, c := range ds.dirtyConns {
		if c.inFlightParse() {
			return fmt.Errorf("bro: cannot serialize connection %s: in-flight binpac parse state", c.uid)
		}
		f := fs.get(c.uid)
		f.conn, f.key = c, c.key
	}
	for uid, key := range ds.closed {
		f := fs.get(uid)
		if f.closed = true; f.conn == nil {
			f.key = key
		}
	}
	if err := e.diffInterp(ds); err != nil {
		return err
	}
	slices.SortFunc(fs.all, func(a, b flowFrame) int { return strings.Compare(a.uid, b.uid) })
	if ds == e.delta {
		for i := range fs.all {
			if f := &fs.all[i]; f.conn != nil || f.closed {
				ds.touched[f.uid] = touch{f.key, true}
			} else if _, ok := ds.touched[f.uid]; !ok {
				ds.touched[f.uid] = touch{}
			}
		}
	}
	return nil
}

// encodeSections writes everything behind the frames.
func (e *Engine) encodeSections(enc *snapshot.Encoder, ds *deltaState) {
	e.encodeMeta(enc)

	ds.qvids = ds.qvids[:0]
	for vid := range ds.quarTouched {
		ds.qvids = append(ds.qvids, vid)
	}
	slices.Sort(ds.qvids)
	enc.U32(uint32(len(ds.qvids)))
	for _, vid := range ds.qvids {
		n, present := e.quarantined[vid]
		enc.U64(vid)
		enc.Bool(present)
		enc.U64(n)
	}

	ds.snames = ds.snames[:0]
	for name, st := range e.Logs.streams {
		if len(st.lines) > ds.flushed[name] {
			ds.snames = append(ds.snames, name)
		}
	}
	slices.Sort(ds.snames)
	enc.U32(uint32(len(ds.snames)))
	for _, name := range ds.snames {
		st := e.Logs.streams[name]
		enc.String(name)
		encodeStrings(enc, st.lines[ds.flushed[name]:])
		ds.flushed[name] = len(st.lines)
	}

	enc.U32(uint32(len(ds.globals)))
	for i := range ds.globals {
		g := &ds.globals[i]
		enc.String(g.name)
		if enc.U8(g.mode); g.mode == modeWhole {
			enc.Bytes(g.blob)
			continue
		}
		body := enc.Begin()
		enc.Bool(g.reset)
		if g.reset {
			enc.Bool(g.tbl.IsSet)
			enc.I64(g.tbl.ExpireInterval)
			enc.Bool(g.tbl.ExpireOnRead)
		}
		enc.U64(g.tbl.nextSeq)
		encodeTableOps(enc, &g.ops)
		enc.End(body)
	}
	e.encodeExec(enc, ds)
}

// encodePatched is encodeFull for the price of what changed: old locates
// the frames of prev, the previous base's snapshot, and the live
// selection's touched set says which of them no longer hold.
func (e *Engine) encodePatched(enc *snapshot.Encoder, prev []byte, old, ix *baseIndex) error {
	ds := e.delta
	// What no flush has emitted yet is touched as well.
	for uid, key := range ds.closed {
		ds.touched[uid] = touch{key, true}
	}
	for _, c := range ds.dirtyConns {
		ds.touched[c.uid] = touch{c.key, true}
	}
	for _, v := range e.interp.Globals {
		if t, ok := v.(*TableVal); ok {
			for _, en := range t.marks {
				if l := en.label(); ds.touched[l] == (touch{}) {
					ds.touched[l] = touch{}
				}
			}
		}
	}
	delete(ds.touched, "") // entries without a label are section state
	ix.patched = old.patched + 1
	ix.starts = make([]int, 0, len(old.starts)+len(ds.touched))
	uids := make([]string, 0, len(ds.touched))
	for uid := range ds.touched {
		uids = append(uids, uid)
	}
	slices.Sort(uids)

	e.encodeHeader(enc)
	count, next, reused := enc.Begin(), 0, 0 // next: the first frame of prev not dealt with
	// reuse copies frames [next, upTo) of prev, which lie back to back.
	reuse := func(upTo int) {
		shift := enc.Len() - old.starts[next]
		enc.Raw(prev[old.starts[next]:old.starts[upTo]])
		for reused += upTo - next; next < upTo; next++ {
			ix.note(old.starts[next] + shift)
		}
	}
	var f flowFrame
	for _, uid := range uids {
		at, had := sort.Find(old.frames()-next, func(i int) int {
			switch was := old.uid(prev, next+i); { // in conversions that do not allocate
			case uid == string(was):
				return 0
			case uid < string(was):
				return -1
			}
			return 1
		})
		at += next
		reuse(at)
		var was []byte // the frame's previous encoding, behind its length prefix
		if had {
			was, next = prev[old.starts[at]+4:old.starts[at+1]], at+1
		}
		c := e.liveConn(uid, ds.touched[uid], was)
		if c != nil && c.inFlightParse() {
			return fmt.Errorf("bro: cannot serialize connection %s: in-flight binpac parse state", uid)
		}
		if e.liveFrame(&f, uid, c); c != nil || len(f.tables) > 0 {
			ix.note(enc.Len())
			putFrame(enc, &f)
		}
	}
	reuse(old.frames())
	ix.note(enc.Len())
	enc.EndCount(count, ix.frames())
	e.rebaseTouched.Add(uint64(len(uids)))
	e.rebaseEncoded.Add(uint64(ix.frames() - reused))
	e.rebaseReused.Add(uint64(reused))

	sections := e.fullSelection(true)
	if err := e.gather(sections); err != nil {
		return err
	}
	e.encodeSections(enc, sections)
	return enc.Err()
}

// touch is what the live selection knows of a frame it emitted: the flow
// key, if a frame carried one (a connection or a tombstone).
type touch struct {
	key   flow.Key
	known bool
}

// liveConn finds the open connection named uid, if there is one, under
// the flow key the deltas carried or else the one in was, the flow's
// frame in the previous snapshot: a connection opened since that snapshot
// has been in a delta, and one that is not open any more is under no key.
func (e *Engine) liveConn(uid string, t touch, was []byte) *conn {
	if !t.known && was != nil {
		dec := snapshot.NewRawDecoder(was)
		_, flags, key := frameHeader(dec)
		t = touch{key, dec.Err() == nil && flags&ffConn != 0}
	}
	if t.known {
		ck, _ := t.key.Canonical()
		if c := e.conns[ck]; c != nil && c.uid == uid {
			return c
		}
	}
	return nil
}

// liveFrame makes f the frame a full selection emits for uid: connection
// c (nil: the flow has none here) and its entries in every table global.
func (e *Engine) liveFrame(f *flowFrame, uid string, c *conn) {
	*f = flowFrame{uid: uid, conn: c, tables: f.tables[:0]}
	if c != nil {
		f.key = c.key
	}
	e.entriesLabelled(uid, func(name string, _ *TableVal, ens []*tableEntry) {
		ops := f.ops(name)
		ops.ups = append(ops.ups, ens...)
	})
}

// entriesLabelled hands fn, for each table global in name order, the live
// entries labelled uid, if it holds any — the script state that belongs to
// the flow of that uid, found without looking at any other flow's. The
// slice is fn's until it returns.
func (e *Engine) entriesLabelled(uid string, fn func(name string, t *TableVal, ens []*tableEntry)) {
	e.oneKey = append(append(e.oneKey[:0], labelPrefix...), uid...)
	for _, name := range e.interpGlobalNames() {
		if t, ok := e.interp.Globals[name].(*TableVal); ok {
			if e.ents = t.labelled(e.ents[:0], uid, e.oneKey); len(e.ents) > 0 {
				fn(name, t, e.ents)
			}
		}
	}
}

// metaCounters lists the counters of the meta block, in wire order. All
// of them are serialized so metrics stay monotonic (no reset, no double
// count) across a crash-only restore.
func (e *Engine) metaCounters() [9]*metrics.Counter {
	return [...]*metrics.Counter{&e.packets, &e.events, &e.parseErrs, &e.budgetBlown,
		&e.quarDropped, &e.flowsOpened, &e.flowsClosed, &e.Logs.written, &e.planeDropped}
}

func (e *Engine) encodeMeta(enc *snapshot.Encoder) {
	enc.I64(e.now)
	enc.I64(e.nextCtx)
	for _, c := range e.metaCounters() {
		enc.U64(c.Load())
	}
}

func (e *Engine) decodeMeta(dec *snapshot.Decoder) {
	e.now = dec.I64()
	e.nextCtx = dec.I64()
	for _, c := range e.metaCounters() {
		c.Store(dec.U64())
	}
}

// flowFrame collects what one encodeState call emits under one uid.
type flowFrame struct {
	uid    string
	closed bool
	key    flow.Key // set with closed or conn
	conn   *conn
	tables []frameTable
}

// frameTable is one table's part of a frame (or of the interp section):
// keys to delete, entries to upsert.
type frameTable struct {
	name string
	dels []string
	ups  []*tableEntry
}

// ops returns the frame's ops for table global name. Callers visit
// globals one at a time in name order, so it is the last one or new.
func (f *flowFrame) ops(name string) *frameTable {
	if n := len(f.tables); n == 0 || f.tables[n-1].name != name {
		f.tables = grow(f.tables)
		f.tables[n].reset(name)
	}
	return &f.tables[len(f.tables)-1]
}

// grow lengthens s by one element: the one left there by an earlier,
// longer use of s if there is one — whose slices the caller empties and
// keeps — else a zero one.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// reset empties ft for table global name, keeping its capacity.
func (ft *frameTable) reset(name string) {
	*ft = frameTable{name: name, dels: ft.dels[:0], ups: ft.ups[:0]}
}

// frameSet is the frames of one encodeState call, reused from call to
// call: all until gather sorts it, at finds a uid's frame in it.
type frameSet struct {
	all []flowFrame
	at  map[string]int
}

func (fs *frameSet) reset() {
	fs.all = fs.all[:0]
	clear(fs.at)
}

// get returns the frame for uid, valid until the next get.
func (fs *frameSet) get(uid string) *flowFrame {
	i, ok := fs.at[uid]
	if !ok {
		i = len(fs.all)
		fs.at[uid] = i
		fs.all = grow(fs.all)
		fs.all[i] = flowFrame{uid: uid, tables: fs.all[i].tables[:0]}
	}
	return &fs.all[i]
}

// putFrame writes f with its length prefix.
func putFrame(enc *snapshot.Encoder, f *flowFrame) {
	body := enc.Begin()
	encodeFrame(enc, f)
	enc.End(body)
}

func encodeFrame(enc *snapshot.Encoder, f *flowFrame) {
	enc.String(f.uid)
	var flags byte
	if f.closed {
		flags |= ffClosed
	}
	if f.conn != nil {
		flags |= ffConn
	}
	enc.U8(flags)
	if flags != 0 {
		enc.Bytes(f.key.Wire())
	}
	if f.conn != nil {
		encodeConn(enc, f.conn)
	}
	enc.U32(uint32(len(f.tables)))
	for i := range f.tables {
		enc.String(f.tables[i].name)
		encodeTableOps(enc, &f.tables[i])
	}
}

func frameHeader(dec *snapshot.Decoder) (uid string, flags byte, key flow.Key) {
	uid = dec.String()
	if flags = dec.U8(); flags != 0 {
		key = decodeKey(dec)
	}
	return uid, flags, key
}

func encodeTableOps(enc *snapshot.Encoder, ops *frameTable) {
	encodeStrings(enc, ops.dels)
	enc.U32(uint32(len(ops.ups)))
	for _, en := range ops.ups {
		encodeTableEntry(enc, en, 1)
	}
}

// labelPrefix opens the canonical key string (KeyString) of every table
// entry whose first index is a string; labelPrefix + uid is the whole key
// of the one-index entry labelled uid (tableEntry.label).
const labelPrefix = "string\x00"

// interpGlobalNames lists the interpreter's globals in name order. Names
// are only ever added (script declarations, restored state), so the cached
// list is current while its length matches.
func (e *Engine) interpGlobalNames() []string {
	if len(e.globalNames) != len(e.interp.Globals) {
		e.globalNames = e.globalNames[:0]
		for name := range e.interp.Globals {
			e.globalNames = append(e.globalNames, name)
		}
		sort.Strings(e.globalNames)
	}
	return e.globalNames
}

// globalDelta is one changed interpreter global: its new encoding, or for
// a table the ops on its engine-global part (the entries with no label).
type globalDelta struct {
	name  string
	mode  byte
	blob  []byte    // modeWhole
	tbl   *TableVal // modeTable
	reset bool
	ops   frameTable
}

// diffInterp collects in ds.globals the interpreter globals that changed
// against ds's caches, and advances the caches. Table entries labelled by
// a uid go to that flow's frame instead.
func (e *Engine) diffInterp(ds *deltaState) error {
	ds.globals = ds.globals[:0]
	if !ds.dirtyInterp {
		return nil
	}
	for _, name := range e.interpGlobalNames() {
		c := ds.interp[name]
		if c == nil {
			c = &interpCache{}
			ds.interp[name] = c
		}
		v := e.interp.Globals[name]
		if t, ok := v.(*TableVal); ok {
			e.diffTable(ds, name, c, t)
			continue
		}
		ds.scratch.Reset(ds.scratch.Buffer()[:0])
		encodeVal(&ds.scratch, v, 0)
		if err := ds.scratch.Err(); err != nil {
			return err
		}
		if blob := ds.scratch.Buffer(); c.tbl != nil || !bytes.Equal(blob, c.blob) {
			c.tbl, c.blob = nil, append(c.blob[:0], blob...)
			ds.global(name, modeWhole).blob = c.blob
		}
	}
	ds.dirtyInterp = false
	return nil
}

// global adds a changed global to ds.globals.
func (ds *deltaState) global(name string, mode byte) *globalDelta {
	ds.globals = grow(ds.globals)
	g := &ds.globals[len(ds.globals)-1]
	g.ops.reset(name)
	*g = globalDelta{name: name, mode: mode, ops: g.ops}
	return g
}

// diffTable files what changed in table global t since the last flush —
// the entries t has marked — under the frames of their labels and, for
// the engine-global part, in a modeTable global (none when nothing is
// marked). A global bound to a different table object than the cached one
// (always so for a full selection's empty cache) resets instead: the
// global recreates the table from its attributes and every live entry is
// an upsert.
func (e *Engine) diffTable(ds *deltaState, name string, c *interpCache, t *TableVal) {
	reset := c.tbl != t
	look := t.marks
	if reset {
		look = t.order
	} else if len(look) == 0 {
		return
	} else {
		// Replay does not depend on the order, but seq order makes a record
		// a function of the state alone, whichever engine wrote it.
		slices.SortFunc(look, func(a, b *tableEntry) int { return cmp.Compare(a.seq, b.seq) })
	}
	g := ds.global(name, modeTable)
	g.tbl, g.reset = t, reset
	encoded := 0
	for _, en := range look {
		switch {
		case !en.deleted:
			encoded++
		case reset || en.fresh:
			// Nothing to undo: a reset starts from an empty table, and the
			// base never held an entry born since the last flush.
			continue
		case t.entries[en.keyStr] != nil:
			// The live successor under the same key is itself marked, and its
			// upsert replaces this entry on replay.
			continue
		}
		ops := &g.ops
		if uid := en.label(); uid != "" {
			if ds.skipFrames {
				continue
			}
			ops = ds.frames.get(uid).ops(name)
		}
		if en.deleted {
			ops.dels = append(ops.dels, en.keyStr)
		} else {
			ops.ups = append(ops.ups, en)
		}
	}
	if !reset {
		e.deltaMarked.Add(uint64(len(look)))
		e.deltaEncoded.Add(uint64(encoded))
	}
	// The flush consumed the marks. After a reset only the live selection
	// (re)starts tracking on t; a full selection is a throwaway and leaves
	// the marks pending for the next delta.
	if !reset || ds == e.delta {
		t.clearMarks()
	}
	c.tbl, c.blob = t, nil
}

// --- VM executor globals -------------------------------------------------------

func journalableScalar(v values.Value) bool {
	// Kinds at or below Bitset keep their payload in the two scalar words
	// (strings are immutable), so a journaled copy can never be mutated
	// behind the journal's back through an alias.
	return v.K <= values.KindBitset
}

// detachJournals removes this engine's container journals (installed by a
// previous ResetDeltaBase) so orphaned callbacks stop accumulating ops.
func (e *Engine) detachJournals() {
	if e.delta == nil {
		return
	}
	for i := range e.delta.exec {
		setContainerJournal(e.delta.exec[i].obj, nil)
	}
}

func setContainerJournal(obj any, fn container.JournalFn) {
	switch o := obj.(type) {
	case *container.Map:
		o.SetJournal(fn)
	case *container.Set:
		o.SetJournal(fn)
	}
}

// baseExec starts a cache for every VM global and journals the containers.
func (e *Engine) baseExec() []execCache {
	if e.ex == nil {
		return nil
	}
	globals := e.ex.Globals
	cache := make([]execCache, len(globals))
	for i := range globals {
		gc := &cache[i]
		switch o := globals[i].O.(type) {
		case *container.Map, *container.Set:
			gc.obj = o
			gc.journaled = true
			setContainerJournal(o, execJournal(gc))
		default:
			gc.blob = encodeExecGlobal(globals[i])
		}
	}
	return cache
}

// execJournal builds the journal callback feeding one VM global's cache.
func execJournal(gc *execCache) container.JournalFn {
	return func(op container.JournalOp, key, val values.Value, lastUse timer.Time) {
		gc.dirty = true
		if !gc.journaled {
			return
		}
		if op == container.JournalReset || !journalableScalar(key) || !journalableScalar(val) {
			// Gate tripped: this global now diffs whole blobs. Drop any ops
			// already buffered — the next flush re-encodes from scratch.
			gc.journaled = false
			gc.nops, gc.ops = 0, nil
			return
		}
		if gc.ops == nil {
			gc.ops = snapshot.NewAppender(nil)
		}
		gc.ops.U8(byte(op))
		gc.ops.Value(key)
		gc.ops.Value(val)
		gc.ops.I64(int64(lastUse))
		gc.nops++
	}
}

// encodeExecGlobal returns nil for a value with no serializable form.
func encodeExecGlobal(v values.Value) []byte {
	enc := snapshot.NewAppender(nil)
	enc.Value(v)
	if enc.Err() != nil {
		return nil
	}
	return enc.Buffer()
}

// encodeExec emits the VM's clock and changed globals: journal ops for
// clean container globals, blob diffs otherwise.
func (e *Engine) encodeExec(enc *snapshot.Encoder, ds *deltaState) {
	enc.Bool(e.ex != nil)
	if e.ex == nil {
		return
	}
	globals := e.ex.Globals
	enc.I64(int64(e.ex.GlobalTM.Now()))
	count, n := enc.Begin(), 0 // the globals emitted, counted as they go
	for i := range ds.exec {
		gc := &ds.exec[i]
		if gc.obj != nil && globals[i].O != gc.obj {
			// Global rebound to a different object: the journal watches the
			// old one. Detach and fall back to blob mode permanently.
			setContainerJournal(gc.obj, nil)
			gc.obj, gc.journaled, gc.dirty = nil, false, true
		}
		if gc.journaled {
			if gc.nops > 0 {
				enc.U32(uint32(i))
				enc.U8(modeJournal)
				body := enc.Begin()
				enc.U32(uint32(gc.nops))
				enc.Raw(gc.ops.Buffer())
				enc.End(body)
				n++
				gc.ops.Reset(gc.ops.Buffer()[:0])
				gc.nops = 0
			}
			gc.dirty = false
			continue
		}
		// Blob mode. Container globals have a precise dirty signal (the
		// journal still marks even after falling back); plain globals only
		// have the executor-wide flag.
		if gc.obj != nil {
			if !gc.dirty {
				continue
			}
		} else if !ds.dirtyExec {
			continue
		}
		blob := encodeExecGlobal(globals[i])
		gc.dirty = false
		if blob == nil || bytes.Equal(blob, gc.blob) {
			continue
		}
		gc.blob = blob
		enc.U32(uint32(i))
		enc.U8(modeWhole)
		enc.Bytes(blob)
		n++
	}
	ds.dirtyExec = false
	enc.EndCount(count, n)
}

// --- applying ------------------------------------------------------------------

// applyState is the one decoder of the section sequence: RestoreEngine
// runs it on a fresh engine, ApplyDelta on the engine a record was diffed
// against.
func (e *Engine) applyState(dec *snapshot.Decoder) error {
	frames := make([][]byte, dec.Len(frameMin))
	for i := range frames {
		frames[i] = dec.Bytes()
	}
	e.decodeMeta(dec)

	nq := dec.Len(17)
	for i := 0; i < nq && dec.Err() == nil; i++ {
		vid := dec.U64()
		present := dec.Bool()
		n := dec.U64()
		if present {
			e.quarantined[vid] = n
		} else {
			delete(e.quarantined, vid)
		}
	}

	ns := dec.Len(8)
	for i := 0; i < ns && dec.Err() == nil; i++ {
		name := dec.String()
		lines := decodeStrings(dec)
		st := e.Logs.stream(name)
		st.lines = append(st.lines, lines...)
	}

	if err := e.applyInterp(dec); err != nil {
		return err
	}
	if err := e.applyExec(dec); err != nil {
		return err
	}
	if err := dec.Err(); err != nil {
		return err
	}
	for _, frame := range frames {
		if _, err := e.applyFrame(frame, false); err != nil {
			return err
		}
	}
	// Entries of one table arrive split over the interp section and the
	// frames; their seq says where each belongs.
	for _, v := range e.interp.Globals {
		if t, ok := v.(*TableVal); ok {
			t.settle()
		}
	}
	return nil
}

// applyFrame applies one flow frame: tombstone, connection, table ops.
// Replay (adopt false) reproduces the encoding engine exactly. Adopt is
// the migration path, which InjectFlow only opens for a live flow the
// engine does not hold: ctx and seq are instance-local, so the incoming
// connection takes a fresh ctx and new entries join the end of the
// target's tables.
func (e *Engine) applyFrame(frame []byte, adopt bool) (flow.Key, error) {
	dec := snapshot.NewRawDecoder(frame)
	uid, flags, key := frameHeader(dec)
	if err := dec.Err(); err != nil {
		return flow.Key{}, err
	}
	ck, _ := key.Canonical()
	if flags&ffClosed != 0 {
		if c, ok := e.conns[ck]; ok && c.uid == uid {
			e.dropConnState(c)
			e.markConnClosed(c)
		}
	}
	if flags&ffConn != 0 {
		c, err := decodeConn(dec, e, uid, key)
		if err != nil {
			return ck, err
		}
		if adopt {
			c.ctx = e.nextCtx
			e.nextCtx++
		}
		if old := e.conns[ck]; old != nil {
			e.dropConnState(old)
		}
		if old := e.ctxs[c.ctx]; old != nil {
			e.dropConnState(old)
		}
		e.conns[ck] = c
		e.ctxs[c.ctx] = c
		e.markConnDirty(c)
	}
	nt := dec.Len(12)
	for i := 0; i < nt && dec.Err() == nil; i++ {
		name := dec.String()
		t, ok := e.interp.Globals[name].(*TableVal)
		if !ok {
			return ck, errors.Join(dec.Err(), fmt.Errorf("bro: flow frame names non-table global %q", name))
		}
		applyTableOps(dec, t, e.interp, adopt)
	}
	if nt > 0 {
		e.markInterpDirty()
	}
	return ck, dec.Err()
}

// dropConnState removes a connection without events or counter updates,
// releasing its reassembly budget.
func (e *Engine) dropConnState(c *conn) {
	c.origStream.Discard()
	c.respStream.Discard()
	ck, _ := c.key.Canonical()
	delete(e.conns, ck)
	delete(e.ctxs, c.ctx)
}

// dropFlowScriptState deletes every entry labelled uid from every table
// global.
func (e *Engine) dropFlowScriptState(uid string) {
	e.entriesLabelled(uid, func(_ string, t *TableVal, ens []*tableEntry) {
		for _, en := range ens {
			t.remove(en)
		}
	})
	e.markInterpDirty()
}

func applyTableOps(dec *snapshot.Decoder, t *TableVal, ip *Interp, adopt bool) {
	for _, ks := range decodeStrings(dec) {
		t.drop(ks)
	}
	n := dec.Len(tableEntryMin)
	for i := 0; i < n; i++ {
		en := decodeTableEntry(dec, ip, 1)
		if en == nil {
			return
		}
		t.install(en, adopt)
	}
}

func (e *Engine) applyInterp(dec *snapshot.Decoder) error {
	ng := dec.Len(9)
	for i := 0; i < ng && dec.Err() == nil; i++ {
		name := dec.String()
		mode := dec.U8()
		sub := snapshot.NewRawDecoder(dec.Bytes())
		if dec.Err() != nil {
			break
		}
		switch mode {
		case modeWhole:
			// A function global decodes to nil when its declaration is
			// gone; keep the freshly initialized value in that case.
			if v := decodeVal(sub, e.interp, 0); v != nil || !isFuncGlobal(e.interp.Globals[name]) {
				e.interp.Globals[name] = v
			}
		case modeTable:
			t, _ := e.interp.Globals[name].(*TableVal)
			if sub.Bool() {
				isSet := sub.Bool()
				interval := sub.I64()
				t = e.interp.newTable(isSet, interval, sub.Bool())
				e.interp.Globals[name] = t
			}
			if t == nil {
				return fmt.Errorf("bro: table ops for non-table global %q", name)
			}
			t.nextSeq = sub.U64()
			applyTableOps(sub, t, e.interp, false)
		default:
			return fmt.Errorf("bro: unknown interp global mode %d", mode)
		}
		if err := sub.Err(); err != nil {
			return err
		}
	}
	return dec.Err()
}

func isFuncGlobal(v Val) bool {
	_, ok := v.(*FuncVal)
	return ok
}

func (e *Engine) applyExec(dec *snapshot.Decoder) error {
	had := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
	}
	if had != (e.ex != nil) {
		return fmt.Errorf("bro: state/config executor mismatch")
	}
	if e.ex == nil {
		return nil
	}
	globals, mgr := e.ex.Globals, e.ex.GlobalTM
	mgr.SetNow(timer.Time(dec.I64()))
	ng := dec.Len(9)
	for i := 0; i < ng && dec.Err() == nil; i++ {
		idx := int(dec.U32())
		mode := dec.U8()
		body := dec.Bytes()
		if dec.Err() != nil {
			break
		}
		if idx >= len(globals) {
			return fmt.Errorf("bro: state references VM global %d of %d", idx, len(globals))
		}
		switch mode {
		case modeWhole:
			sub := snapshot.NewRawDecoder(body, snapshot.WithTimerMgr(mgr), snapshot.WithStructs(e.linkedStruct))
			v := sub.Value()
			if err := sub.Err(); err != nil {
				return err
			}
			globals[idx] = v
		case modeJournal:
			if err := applyJournalOps(globals[idx], body, mgr, e.linkedStruct); err != nil {
				return fmt.Errorf("bro: VM global %d: %w", idx, err)
			}
		default:
			return fmt.Errorf("bro: unknown exec global mode %d", mode)
		}
	}
	return dec.Err()
}

func applyJournalOps(v values.Value, body []byte, mgr *timer.Mgr, structs func(string, []string) *values.StructDef) error {
	sub := snapshot.NewRawDecoder(body, snapshot.WithTimerMgr(mgr), snapshot.WithStructs(structs))
	n := sub.Len(1)
	for i := 0; i < n && sub.Err() == nil; i++ {
		op := container.JournalOp(sub.U8())
		key := sub.Value()
		val := sub.Value()
		lastUse := timer.Time(sub.I64())
		if sub.Err() != nil {
			break
		}
		switch o := v.O.(type) {
		case *container.Map:
			switch op {
			case container.JournalInsert:
				o.InsertRestored(key, val, lastUse)
			case container.JournalRemove:
				o.Remove(key)
			case container.JournalTouch:
				o.TouchRestored(key, lastUse)
			default:
				return fmt.Errorf("unknown journal op %d", op)
			}
		case *container.Set:
			switch op {
			case container.JournalInsert:
				o.InsertRestored(key, lastUse)
			case container.JournalRemove:
				o.Remove(key)
			case container.JournalTouch:
				o.TouchRestored(key, lastUse)
			default:
				return fmt.Errorf("unknown journal op %d", op)
			}
		default:
			return fmt.Errorf("journal ops target non-container value %s", v.K)
		}
	}
	return sub.Err()
}
