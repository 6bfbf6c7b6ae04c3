// Engine state management — the paper's transparent-state-management
// argument made concrete: because analysis state lives in typed runtime
// values rather than ad-hoc heap structures, the host can suspend, resume
// and move it without the analyzers' cooperation. There is one codec, and
// two products built on it:
//
//	state    := frames sections
//	frames   := u32 n { bytes(frame) }
//	frame    := string uid, u8 flags, [key if flags != 0], [conn if ffConn], tables
//	key      := bytes(flow key, canonical in linger)
//	conn     := i64 ctx, i64 lastUse, analyzer state (statecodec.go)
//	tables   := u32 n { string global, entries }
//	entries  := u32 0, u32 n { entry }
//	sections := meta quar linger logs interp exec
//	meta     := i64 now, i64 nextCtx, u64 per counter
//	quar     := u32 n { u64 vid, bool true, u64 dropped }
//	linger   := u32 n { key, i64 closedAt }      the closed flows in close order (conns.go)
//	logs     := u32 n { string stream, u32 n { string line } }
//	interp   := u32 n { string global, u8 mode, bytes body }
//	            body(modeWhole) = val
//	            body(modeTable) = bool true, table attrs, u64 nextSeq, entries
//	exec     := bool present [ i64 now, u32 n { u32 index, u8 modeWhole, bytes val } ]
//
// The constant fields (the true flags, the empty list in front of the
// entries) are where format version 5 kept what the retired engine-level
// delta records varied; the decoder refuses any other value there. Version
// 6 added the linger section and its counter in meta; version 7 carries in
// each conn its last-packet time, which its inactivity timeout runs from.
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
// The products:
//
//   - Snapshot (Checkpoint / RestoreEngine): every section complete, every
//     open flow a frame. RestoreEngine is NewEngine plus the one apply path.
//     Rebase writes the same bytes for the price of what changed since the
//     previous Rebase: the frames no dirty mark touched are copied out of
//     the previous snapshot, the sections encoded as ever. A pipeline shard
//     re-bases every so many packets, logs the packets in between, and
//     restores by running them again (ReplayPacket).
//   - Flow frame (ExtractFlow / InjectFlow): one live flow's frame, built
//     directly. Applied in adopt mode: ctx and seq are instance-local, so
//     the target assigns its own, and nothing engine-global (counters,
//     clocks, logs, the linger) moves. A closed flow lingers on the
//     instance that closed it.
//
// Limits: a frame counts as untouched on the word of the dirty marks, and
// an aggregate reachable from two table entries is marked only under the
// one it was read through (DESIGN "Script tables", the aliasing limit). The
// marks are not claimed complete: every fullRebaseEvery-th Rebase in a row
// encodes every frame again. In-flight BinPAC++ parse state is a parked
// vm.Resumable — activation records over registers and rope iterators —
// which is not encoded yet (ROADMAP 1a); both products refuse a
// connection that is mid-parse (the caller re-bases once possible).
// Unserializable VM globals (function refs, channels) keep the
// restoring side's value. Per-flow migration supports the interpreter
// script backend only: compiled scripts keep their state in VM globals
// that cannot be attributed to individual flows. Fault diagnostics (the
// Recorder) are intentionally not carried across a restore. All methods
// run on the engine's owning worker goroutine.

package bro

import (
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
)

// Global-encoding modes.
const (
	modeWhole = 0 // the value, encoded whole
	modeTable = 1 // an interpreter table: attributes, then its engine-global entries
)

// ffConn is the flow-frame flag saying a connection record follows. Bit 0
// marked a delta's closed-flow tombstone, which no product writes.
const ffConn = 1 << 1

// frameMin is the smallest length-prefixed frame: prefix, uid length,
// flags, table count.
const frameMin = 4 + 4 + 1 + 4

// tracker is what a patching Rebase needs besides the dirty marks, which
// are the tables' (connTable's and TableVal.tbl's): where the flow frames
// sit in the previous snapshot (nil: unknown, the next Rebase encodes in
// full). The engine keeps one while it re-bases.
type tracker struct {
	base    *baseIndex
	touched map[string]touch     // encodePatched's scratch: the uids it encodes again
	tables  map[string]*TableVal // the global tables pin started marking
}

// touch is what a patching Rebase knows of a flow that changed: the flow
// key, if its connection was marked (not only entries labelled by it).
type touch struct {
	key   flow.Key
	known bool
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

// --- snapshots ---------------------------------------------------------------------

// Checkpoint serializes the engine's full analysis state to w. The engine
// must be between packets (the single-threaded engine always is; the
// pipeline quiesces each shard by scheduling the checkpoint as a job on
// the shard's own virtual thread). The dirty marks are not disturbed.
func (e *Engine) Checkpoint(w io.Writer) error {
	return e.encodeFull(snapshot.NewRawEncoder(w), nil)
}

// encodeFull writes a snapshot: every section complete, every open flow a
// frame (noted in ix).
func (e *Engine) encodeFull(enc *snapshot.Encoder, ix *baseIndex) error {
	e.encodeHeader(enc)
	return e.encodeState(enc, &selection{frames: frameSet{at: map[string]int{}}}, ix)
}

func (e *Engine) encodeHeader(enc *snapshot.Encoder) {
	enc.Header()
	enc.String(e.cfg.Parser)
	enc.String(e.cfg.ScriptExec)
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

// pin starts the dirty marks afresh against the current state; base
// locates the frames of the snapshot just written of it.
func (e *Engine) pin(base *baseIndex) {
	if e.track == nil {
		e.track = &tracker{touched: map[string]touch{}, tables: map[string]*TableVal{}}
	}
	e.track.base = base
	clear(e.track.touched)
	clear(e.track.tables)
	e.flows.tcp.ClearMarks()
	e.flows.udp.ClearMarks()
	for name, v := range e.interp.Globals {
		if t, ok := v.(*TableVal); ok {
			t.clearMarks()
			e.track.tables[name] = t
		}
	}
	e.outsideSeen = e.outsideReads()
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
// bytes Checkpoint would write — and starts the dirty marks afresh. prev
// is what the previous Rebase wrote (nil: not available). If there is one,
// only the flow frames marked since are encoded again; the other frames
// are copied out of prev, and the sections encoded as Checkpoint encodes
// them — the part of the cost that still grows with the state. On an
// error the next Rebase encodes in full.
func (e *Engine) Rebase(enc *snapshot.Encoder, prev []byte) error {
	ix := &baseIndex{origin: enc.Len()}
	var err error
	if t := e.track; t != nil && t.base != nil && len(prev) == t.base.size && t.base.patched+1 < fullRebaseEvery && e.tablesPinned() {
		if err = e.encodePatched(enc, prev, t.base, ix); err != nil {
			t.base = nil
		}
	} else if err = e.encodeFull(enc, ix); err == nil {
		e.rebaseTouched.Add(uint64(ix.frames()))
		e.rebaseEncoded.Add(uint64(ix.frames()))
	}
	if err != nil {
		return err
	}
	ix.size = enc.Len() - ix.origin
	e.pin(ix)
	return nil
}

// ResetDeltaBase and AppendDelta survive only as names: the benchmark's
// WAL layer (bench/layers.go) calls them, and this package keeps no
// per-packet log. Each is a full Rebase; AppendDelta returns the snapshot.
func (e *Engine) ResetDeltaBase() error {
	_, err := e.AppendDelta()
	return err
}

func (e *Engine) AppendDelta() ([]byte, error) {
	enc := snapshot.NewAppender(nil)
	if err := e.Rebase(enc, nil); err != nil {
		return nil, err
	}
	return enc.Buffer(), nil
}

// tablesPinned reports whether every global is bound to the table it was
// at the last re-base, if any. A global rebound since names a table whose
// writes went unmarked, and no longer one whose entries the previous
// snapshot holds: the frames of either could be stale.
func (e *Engine) tablesPinned() bool {
	n := 0
	for name, v := range e.interp.Globals {
		if t, ok := v.(*TableVal); ok {
			if e.track.tables[name] != t {
				return false
			}
			n++
		}
	}
	return n == len(e.track.tables)
}

// encodePatched is encodeFull for the price of what changed: old locates
// the frames of prev, the previous snapshot, and the tracker and the
// tables' marks say which of them no longer hold.
func (e *Engine) encodePatched(enc *snapshot.Encoder, prev []byte, old, ix *baseIndex) error {
	touched := e.track.touched
	for _, tbl := range [...]*container.Table[flow.Key, conn]{&e.flows.tcp, &e.flows.udp} {
		for _, en := range tbl.Marks() {
			touched[en.V.uid] = touch{en.V.key, true}
		}
	}
	for _, v := range e.interp.Globals {
		if t, ok := v.(*TableVal); ok {
			for _, en := range t.tbl.Marks() {
				if l := en.V.label(); l != "" {
					if _, ok := touched[l]; !ok {
						touched[l] = touch{}
					}
				}
			}
		}
	}
	ix.patched = old.patched + 1
	ix.starts = make([]int, 0, len(old.starts)+len(touched))
	uids := make([]string, 0, len(touched))
	for uid := range touched {
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
		c := e.liveConn(uid, touched[uid], was)
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

	sections := &selection{sectionsOnly: true}
	if err := e.gather(sections); err != nil {
		return err
	}
	e.encodeSections(enc, sections)
	return enc.Err()
}

// liveConn finds the open connection named uid, if there is one, under
// the flow key the tracker saw or else the one in was, the flow's frame in
// the previous snapshot: a connection opened since that snapshot has been
// marked, and one that is not open any more is under no key.
func (e *Engine) liveConn(uid string, t touch, was []byte) *conn {
	if !t.known && was != nil {
		dec := snapshot.NewRawDecoder(was)
		_, flags, key := frameHeader(dec)
		t = touch{key, dec.Err() == nil && flags&ffConn != 0}
	}
	if t.known {
		if c := e.flows.find(t.key); c != nil && c.uid == uid {
			return c
		}
	}
	return nil
}

// --- flow frames -------------------------------------------------------------------

var errPerFlowBackend = errors.New("bro: per-flow migration requires the interpreter script backend")

// MigratableFlows enumerates every open connection's flow key in open
// order. Together with ExtractFlow/InjectFlow/ForgetFlow/HasFlow this
// implements the pipeline's MigratableHandler contract.
func (e *Engine) MigratableFlows() []flow.Key {
	out := make([]flow.Key, 0, e.flows.len())
	e.flows.each(func(c *conn) { out = append(out, c.key) })
	return out
}

// HasFlow reports whether the engine holds a connection for the flow.
func (e *Engine) HasFlow(key flow.Key) bool {
	return e.flows.find(key) != nil
}

// ExtractFlow serializes one flow's frame — connection record plus every
// script-table entry keyed by its uid — without removing anything: the
// source keeps ownership until the handoff commits.
func (e *Engine) ExtractFlow(key flow.Key) ([]byte, error) {
	if e.compiled {
		return nil, errPerFlowBackend
	}
	c := e.flows.find(key)
	if c == nil {
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
// frame without a connection, or with a flag bit other than ffConn, is
// refused, and a flow already present is a double-ownership violation. A
// refused frame changes nothing.
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
	c := e.flows.find(key)
	if c == nil {
		return false
	}
	e.flows.drop(c)
	e.dropFlowScriptState(c.uid)
	return true
}

// liveFrame makes f the frame a snapshot holds for uid: connection c (nil:
// the flow has none here) and its entries in every table global.
func (e *Engine) liveFrame(f *flowFrame, uid string, c *conn) {
	*f = flowFrame{uid: uid, conn: c, tables: f.tables[:0]}
	if c != nil {
		f.key = c.key
	}
	e.entriesLabelled(uid, func(name string, _ *TableVal, ens []*tableEntry) {
		ft := f.table(name)
		ft.ups = append(ft.ups, ens...)
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

// --- encoding ----------------------------------------------------------------------

// selection is what one encodeState call gathers before it writes:
// everything, or with sectionsOnly the sections alone (no connection, and
// script-table entries only where they have no label).
type selection struct {
	sectionsOnly bool
	frames       frameSet
	globals      []globalState
	blobs        snapshot.Encoder // the non-table globals' encodings, back to back
}

// globalState is one interpreter global as the interp section carries it:
// a table's engine-global entries, or any other value's encoding, at
// [from, to) of selection.blobs.
type globalState struct {
	name     string
	tbl      *TableVal
	from, to int
	ups      []*tableEntry
}

// encodeState writes the frames and sections of selection sel; ix, if not
// nil, learns where each frame went.
func (e *Engine) encodeState(enc *snapshot.Encoder, sel *selection, ix *baseIndex) error {
	if err := e.gather(sel); err != nil {
		return err
	}
	enc.U32(uint32(len(sel.frames.all)))
	for i := range sel.frames.all {
		ix.note(enc.Len())
		putFrame(enc, &sel.frames.all[i])
	}
	ix.note(enc.Len())
	e.encodeSections(enc, sel)
	return enc.Err()
}

// gather collects, in uid order, the flow frames selection sel emits and,
// in name order, the interpreter globals.
func (e *Engine) gather(sel *selection) error {
	fs := &sel.frames
	if !sel.sectionsOnly {
		for _, c := range e.flows.ctxs {
			if c.inFlightParse() {
				return fmt.Errorf("bro: cannot serialize connection %s: in-flight binpac parse state", c.uid)
			}
			f := fs.get(c.uid)
			f.conn, f.key = c, c.key
		}
	}
	for _, name := range e.interpGlobalNames() {
		v := e.interp.Globals[name]
		if t, ok := v.(*TableVal); ok {
			e.gatherTable(sel, name, t)
			continue
		}
		from := sel.blobs.Len()
		encodeVal(&sel.blobs, v, 0)
		if err := sel.blobs.Err(); err != nil {
			return err
		}
		sel.globals = append(sel.globals, globalState{name: name, from: from, to: sel.blobs.Len()})
	}
	slices.SortFunc(fs.all, func(a, b flowFrame) int { return strings.Compare(a.uid, b.uid) })
	return nil
}

// gatherTable files table global t's live entries under the frames of
// their labels and, for the engine-global part, in a modeTable global.
func (e *Engine) gatherTable(sel *selection, name string, t *TableVal) {
	sel.globals = append(sel.globals, globalState{name: name, tbl: t})
	g := &sel.globals[len(sel.globals)-1]
	t.tbl.Walk(func(en *tableEntry) bool {
		if uid := en.V.label(); uid == "" {
			g.ups = append(g.ups, en)
		} else if !sel.sectionsOnly {
			ft := sel.frames.get(uid).table(name)
			ft.ups = append(ft.ups, en)
		}
		return true
	})
}

// encodeSections writes everything behind the frames.
func (e *Engine) encodeSections(enc *snapshot.Encoder, sel *selection) {
	e.encodeMeta(enc)

	vids := make([]uint64, 0, len(e.quarantined))
	for vid := range e.quarantined {
		vids = append(vids, vid)
	}
	slices.Sort(vids)
	enc.U32(uint32(len(vids)))
	for _, vid := range vids {
		enc.U64(vid)
		enc.Bool(true)
		enc.U64(e.quarantined[vid])
	}

	e.flows.encodeClosed(enc)

	names := make([]string, 0, len(e.Logs.streams))
	for name, st := range e.Logs.streams {
		if len(st.lines) > 0 {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	enc.U32(uint32(len(names)))
	for _, name := range names {
		enc.String(name)
		encodeStrings(enc, e.Logs.streams[name].lines)
	}

	enc.U32(uint32(len(sel.globals)))
	for i := range sel.globals {
		g := &sel.globals[i]
		enc.String(g.name)
		if g.tbl == nil {
			enc.U8(modeWhole)
			enc.Bytes(sel.blobs.Buffer()[g.from:g.to])
			continue
		}
		enc.U8(modeTable)
		body := enc.Begin()
		enc.Bool(true)
		enc.Bool(g.tbl.IsSet)
		enc.I64(g.tbl.ExpireInterval)
		enc.Bool(g.tbl.ExpireOnRead)
		enc.U64(g.tbl.nextSeq)
		encodeEntries(enc, g.ups)
		enc.End(body)
	}
	e.encodeExec(enc, &sel.blobs)
}

// metaCounters lists the counters of the meta block, in wire order. All
// of them are serialized so metrics stay monotonic (no reset, no double
// count) across a crash-only restore.
func (e *Engine) metaCounters() [10]*metrics.Counter {
	return [...]*metrics.Counter{&e.packets, &e.events, &e.parseErrs, &e.budgetBlown,
		&e.quarDropped, &e.flowsOpened, &e.flowsClosed, &e.Logs.written, &e.planeDropped,
		&e.afterClose}
}

func (e *Engine) encodeMeta(enc *snapshot.Encoder) {
	enc.I64(e.now)
	enc.I64(e.flows.nextCtx)
	for _, c := range e.metaCounters() {
		enc.U64(c.Load())
	}
}

func (e *Engine) decodeMeta(dec *snapshot.Decoder) {
	e.now = dec.I64()
	e.flows.nextCtx = dec.I64()
	for _, c := range e.metaCounters() {
		c.Store(dec.U64())
	}
}

// encodeExec emits the VM's clock and every global with a serializable
// value; scratch is free for the encoder to use.
func (e *Engine) encodeExec(enc *snapshot.Encoder, scratch *snapshot.Encoder) {
	enc.Bool(e.ex != nil)
	if e.ex == nil {
		return
	}
	enc.I64(int64(e.ex.GlobalTM.Now()))
	count, n := enc.Begin(), 0 // the globals emitted, counted as they go
	for i, v := range e.ex.Globals {
		scratch.Reset(scratch.Buffer()[:0])
		if scratch.Value(v); scratch.Err() != nil {
			continue // no serializable form: the restoring side keeps its own
		}
		enc.U32(uint32(i))
		enc.U8(modeWhole)
		enc.Bytes(scratch.Buffer())
		n++
	}
	enc.EndCount(count, n)
}

// flowFrame collects what one snapshot holds under one uid.
type flowFrame struct {
	uid    string
	key    flow.Key // set with conn
	conn   *conn
	tables []frameTable
}

// frameTable is one table's part of a frame: the entries labelled by the
// frame's uid.
type frameTable struct {
	name string
	ups  []*tableEntry
}

// table returns the frame's part of table global name. Callers visit
// globals one at a time in name order, so it is the last one or new.
func (f *flowFrame) table(name string) *frameTable {
	if n := len(f.tables); n == 0 || f.tables[n-1].name != name {
		f.tables = grow(f.tables)
		f.tables[n] = frameTable{name: name, ups: f.tables[n].ups[:0]}
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

// frameSet is the frames of one encodeState call: all until gather sorts
// it, at finds a uid's frame in it.
type frameSet struct {
	all []flowFrame
	at  map[string]int
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
	if f.conn == nil {
		enc.U8(0)
	} else {
		enc.U8(ffConn)
		enc.Bytes(f.key.Wire())
		encodeConn(enc, f.conn)
	}
	enc.U32(uint32(len(f.tables)))
	for i := range f.tables {
		enc.String(f.tables[i].name)
		encodeEntries(enc, f.tables[i].ups)
	}
}

func frameHeader(dec *snapshot.Decoder) (uid string, flags byte, key flow.Key) {
	uid = dec.String()
	if flags = dec.U8(); flags != 0 {
		key = decodeKey(dec)
	}
	return uid, flags, key
}

// encodeEntries writes table entries behind the empty list that once held
// a delta's deletes.
func encodeEntries(enc *snapshot.Encoder, ups []*tableEntry) {
	enc.U32(0)
	enc.U32(uint32(len(ups)))
	for _, en := range ups {
		encodeTableEntry(enc, en, 1)
	}
}

// labelPrefix opens the canonical key string (KeyString) of every table
// entry whose first index is a string; labelPrefix + uid is the whole key
// of the one-index entry labelled uid (tableItem.label).
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

// --- applying ----------------------------------------------------------------------

// applyState is the one decoder of the section sequence, run by
// RestoreEngine on a fresh engine.
func (e *Engine) applyState(dec *snapshot.Decoder) error {
	frames := make([][]byte, dec.Len(frameMin))
	for i := range frames {
		frames[i] = dec.Bytes()
	}
	e.decodeMeta(dec)

	nq := dec.Len(17)
	for i := 0; i < nq && dec.Err() == nil; i++ {
		vid := dec.U64()
		if !dec.Bool() && dec.Err() == nil {
			return fmt.Errorf("bro: quarantine entry for vid %d marked absent", vid)
		}
		e.quarantined[vid] = dec.U64()
	}

	if err := e.flows.decodeClosed(dec); err != nil {
		return err
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
	e.flows.settle()
	// Entries of one table arrive split over the interp section and the
	// frames; their seq says where each belongs.
	for _, v := range e.interp.Globals {
		if t, ok := v.(*TableVal); ok {
			t.settle()
		}
	}
	return nil
}

// applyFrame applies one flow frame: connection, table entries. Restore
// (adopt false) reproduces the encoding engine exactly. Adopt is the
// migration path, which InjectFlow only opens for a live flow the engine
// does not hold: ctx and seq are instance-local, so the incoming
// connection takes a fresh ctx and new entries join the end of the
// target's tables.
func (e *Engine) applyFrame(frame []byte, adopt bool) (flow.Key, error) {
	dec := snapshot.NewRawDecoder(frame)
	uid, flags, key := frameHeader(dec)
	if err := dec.Err(); err != nil {
		return flow.Key{}, err
	}
	if flags&^ffConn != 0 {
		return flow.Key{}, fmt.Errorf("bro: flow frame for %s has unknown flags %#x", uid, flags)
	}
	ck, _ := key.Canonical()
	if flags&ffConn != 0 {
		en, err := decodeConn(dec, e, uid, key)
		if err != nil {
			return ck, err
		}
		e.flows.open(en, !adopt)
	}
	nt := dec.Len(12)
	for i := 0; i < nt && dec.Err() == nil; i++ {
		name := dec.String()
		t, ok := e.interp.Globals[name].(*TableVal)
		if !ok {
			return ck, errors.Join(dec.Err(), fmt.Errorf("bro: flow frame names non-table global %q", name))
		}
		if err := applyEntries(dec, t, e.interp, adopt); err != nil {
			return ck, err
		}
	}
	return ck, dec.Err()
}

// dropFlowScriptState deletes every entry labelled uid from every table
// global.
func (e *Engine) dropFlowScriptState(uid string) {
	e.entriesLabelled(uid, func(_ string, t *TableVal, ens []*tableEntry) {
		for _, en := range ens {
			t.remove(en)
		}
	})
}

// applyEntries installs the entries encodeEntries wrote.
func applyEntries(dec *snapshot.Decoder, t *TableVal, ip *Interp, adopt bool) error {
	if dels := dec.U32(); dels != 0 {
		return fmt.Errorf("bro: %d table deletes in a snapshot", dels)
	}
	decodeEntries(dec, ip, t, 1, adopt)
	return dec.Err()
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
			if !sub.Bool() && sub.Err() == nil {
				return fmt.Errorf("bro: table global %q without its attributes", name)
			}
			isSet := sub.Bool()
			interval := sub.I64()
			t := e.interp.newTable(isSet, interval, sub.Bool())
			e.interp.Globals[name] = t
			t.nextSeq = sub.U64()
			if err := applyEntries(sub, t, e.interp, false); err != nil {
				return err
			}
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
		if mode != modeWhole {
			return fmt.Errorf("bro: unknown exec global mode %d", mode)
		}
		sub := snapshot.NewRawDecoder(body, snapshot.WithTimerMgr(mgr), snapshot.WithStructs(e.linkedStruct))
		v := sub.Value()
		if err := sub.Err(); err != nil {
			return err
		}
		globals[idx] = v
	}
	return dec.Err()
}
