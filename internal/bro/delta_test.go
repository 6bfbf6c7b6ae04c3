package bro

import (
	"bytes"
	"runtime"
	"testing"

	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/snapshot"
)

// deltaTwin is a live engine in delta mode and a replica that has seen
// nothing but the live engine's snapshot and its delta records.
type deltaTwin struct {
	t       *testing.T
	cfg     Config
	live    *Engine
	replica *Engine
	snap    []byte // the live engine's last Rebase
}

func newDeltaTwin(t *testing.T, cfg Config) *deltaTwin {
	tw := &deltaTwin{t: t, cfg: cfg, live: mustEngine(t, cfg)}
	tw.rebase()
	return tw
}

// rebase re-bases the live engine — patching its previous snapshot, when
// it has one — and rebuilds the replica from the result, which must be the
// full encode of the same instant, byte for byte.
func (tw *deltaTwin) rebase() {
	tw.t.Helper()
	want := checkpointBytes(tw.t, tw.live)
	enc := snapshot.NewAppender(nil)
	if err := tw.live.Rebase(enc, tw.snap); err != nil {
		tw.t.Fatal(err)
	}
	if tw.snap = enc.Buffer(); !bytes.Equal(tw.snap, want) {
		tw.t.Fatalf("re-base: %d bytes, differing from the %d of the full encode", len(tw.snap), len(want))
	}
	var err error
	if tw.replica, err = RestoreEngine(tw.cfg, bytes.NewReader(tw.snap)); err != nil {
		tw.t.Fatal(err)
	}
}

// flush ships one delta record to the replica and demands that the two
// engines then checkpoint to the same bytes. It returns the record and how
// many table entries the flush looked at and encoded.
func (tw *deltaTwin) flush(what string) (rec []byte, marked, encoded uint64) {
	tw.t.Helper()
	m0, e0 := tw.live.DeltaTableEntries()
	rec, err := tw.live.AppendDelta()
	if err != nil {
		tw.t.Fatalf("%s: AppendDelta: %v", what, err)
	}
	m1, e1 := tw.live.DeltaTableEntries()
	if err := tw.replica.ApplyDelta(rec); err != nil {
		tw.t.Fatalf("%s: ApplyDelta: %v", what, err)
	}
	if !bytes.Equal(checkpointBytes(tw.t, tw.replica), checkpointBytes(tw.t, tw.live)) {
		tw.t.Fatalf("%s: snapshot + deltas no longer reproduce the live engine", what)
	}
	return rec, m1 - m0, e1 - e0
}

// TestDeltaIdentityAfterEveryPacket: snapshot plus every delta so far must
// reproduce the live engine byte for byte after each packet, not just at a
// few cuts — a change the marks miss would otherwise hide until the next
// full re-base overwrote it. Every 64 packets the live engine re-bases by
// patching (deltaTwin.rebase holds each snapshot against the full encode),
// with marks pending across it; the migrate row also moves a flow out and
// back in — forgotten before a re-base, injected after it — every 50.
// BinPAC++ HTTP connections cannot be serialized mid-parse
// (TestStateViewsResumeIdentically), so that row runs the DNS trace.
func TestDeltaIdentityAfterEveryPacket(t *testing.T) {
	dc := gen.DefaultDNSConfig()
	dc.Transactions = 400
	for _, row := range []struct {
		name, parser string
		pkts         []pcap.Packet
		migrate      bool
	}{
		{"standard", "standard", mergedTrace(t), false},
		{"binpac", "binpac", gen.GenerateDNS(dc), false},
		{"migrate", "standard", mergedTrace(t), true},
	} {
		t.Run(row.name, func(t *testing.T) {
			tw := newDeltaTwin(t, Config{Parser: row.parser, ScriptExec: "interp",
				Scripts: []string{HTTPScript, FilesScript, DNSScript, TrackScript}, Quiet: true})
			var marked, encoded uint64
			for i := range row.pkts {
				feed(tw.live, row.pkts[i:i+1])
				_, m, e := tw.flush("packet")
				if e > m {
					t.Fatalf("packet %d: %d entries encoded, %d marked", i, e, m)
				}
				marked, encoded = marked+m, encoded+e
				if flows := tw.live.MigratableFlows(); row.migrate && i%50 == 49 && len(flows) > 0 {
					key := flows[i%len(flows)]
					blob, err := tw.live.ExtractFlow(key)
					if err != nil || !tw.live.ForgetFlow(key) {
						t.Fatalf("packet %d: extract/forget: %v", i, err)
					}
					tw.flush("forget")
					tw.rebase()
					if _, err := tw.live.InjectFlow(blob); err != nil {
						t.Fatalf("packet %d: inject: %v", i, err)
					}
					tw.flush("inject")
				}
				if i%64 == 63 {
					tw.rebase()
				}
			}
			if encoded == 0 || (!row.migrate && float64(marked) > 4*float64(len(row.pkts))) {
				t.Errorf("%d entries marked, %d encoded over %d packets: want some, and at most 4 per packet",
					marked, encoded, len(row.pkts))
			}
			reused, again, touched := tw.live.RebaseFrames()
			if t.Logf("re-bases: %d frames copied, %d encoded, %d uids touched", reused, again, touched); reused == 0 || again > touched {
				t.Errorf("want frames copied, and no more encoded than touched")
			}
		})
	}
}

// mutationScript reaches table yields every way a script can: through a
// local bound by an index expression, through both variables of a for, and
// not at all (membership tests and one-variable loops hand nothing out).
const mutationScript = `
type Rec: record {
    n: count;
    tag: string;
};

global recs: table[string] of Rec &create_expire=10 sec;
global vecs: table[string] of vector of count &read_expire=10 sec;
global counts: table[count] of count;

event put(k: string, n: count) {
    recs[k] = Rec($n=n, $tag=k);
    vecs[k] = vector(n);
    counts[n] = n;
}

event mutate_local(k: string) {
    local r = recs[k];
    r$n = r$n + 1;
    local v = vecs[k];
    v[|v|] = r$n;
}

event mutate_for() {
    for ( k, r in recs )
        r$n = r$n + 100;
    for ( k, v in vecs )
        v[|v|] = 7;
}

event look(k: string) {
    if ( k in recs )
        counts[0] = |recs|;
    for ( k2 in vecs )
        counts[1] = |vecs|;
}

event del(k: string) {
    delete recs[k];
}

event put_del(k: string) {
    recs[k] = Rec($n=0, $tag="gone");
    delete recs[k];
}
`

// recordFrames returns one delta record's flow frames; the sections behind
// them are not parsed.
func recordFrames(t testing.TB, rec []byte) [][]byte {
	t.Helper()
	dec := snapshot.NewRawDecoder(rec)
	var frames [][]byte
	for n := dec.Len(frameMin); n > 0 && dec.Err() == nil; n-- {
		frames = append(frames, dec.Bytes())
	}
	if dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	return frames
}

// recordTableOps lists, from one delta record's flow frames, the keys
// deleted and the number of entries upserted. The test tables are keyed by
// plain strings, so every op travels in a (connection-less) frame.
func recordTableOps(t *testing.T, e *Engine, rec []byte) (dels []string, ups int) {
	t.Helper()
	for _, frame := range recordFrames(t, rec) {
		dec := snapshot.NewRawDecoder(frame)
		frameHeader(dec)
		for n := dec.Len(12); n > 0 && dec.Err() == nil; n-- {
			_ = dec.String() // table global's name
			dels = append(dels, decodeStrings(dec)...)
			for m := dec.Len(tableEntryMin); m > 0 && dec.Err() == nil; m-- {
				decodeTableEntry(dec, e.interp, 1)
				ups++
			}
		}
		if dec.Err() != nil {
			t.Fatal(dec.Err())
		}
	}
	return dels, ups
}

// raise dispatches a custom script's event by name, as the engine does its own.
func (e *Engine) raise(name string, args ...Val) {
	var bodies []*vm.CompiledFunc
	if e.compiled {
		bodies = e.ex.Prog.HookBodies[name]
	}
	e.dispatchNamed(name, bodies, nil, args)
}

// TestDeltaMarksYieldMutations: an aggregate a script obtained from a table
// and changed in place must reach the next delta, and the delete rules
// hold: an entry born and gone between two flushes leaves no trace, an
// entry the base holds leaves exactly one delete however it went.
func TestDeltaMarksYieldMutations(t *testing.T) {
	tw := newDeltaTwin(t, Config{Parser: "standard", ScriptExec: "interp", Scripts: []string{mutationScript}, Quiet: true})
	e := tw.live
	sec := int64(1e9)
	e.now = 100 * sec
	for i, k := range []string{"a", "b", "c"} {
		e.raise("put", StringVal(k), CountVal(i+1))
		tw.flush("put " + k)
	}

	e.raise("mutate_local", StringVal("b"))
	if _, m, enc := tw.flush("mutation through a local"); m != 2 || enc != 2 {
		t.Errorf("mutating recs[b] and vecs[b] through locals: %d marked, %d encoded, want 2 and 2", m, enc)
	}
	e.raise("mutate_for")
	if _, m, enc := tw.flush("mutation through for (k, v in t)"); m != 6 || enc != 6 {
		t.Errorf("mutating every yield through a two-variable for: %d marked, %d encoded, want 6 and 6", m, enc)
	}
	e.now += sec
	e.raise("look", StringVal("a"))
	if rec, m, _ := tw.flush("reads that hand nothing out"); m != 2 {
		// counts[0] and counts[1]; `k in recs` is &create_expire, the
		// one-variable for passes no yield.
		dels, ups := recordTableOps(t, e, rec)
		t.Errorf("membership test and one-variable for marked %d entries, want 2 (frames: %v deleted, %d upserted)", m, dels, ups)
	}

	e.raise("put_del", StringVal("ghost"))
	rec, _, _ := tw.flush("entry born and gone between flushes")
	if dels, ups := recordTableOps(t, e, rec); len(dels) != 0 || ups != 0 {
		t.Errorf("an entry the base never held emitted %v deletes, %d upserts", dels, ups)
	}

	e.raise("del", StringVal("a"))
	e.raise("put", StringVal("a"), CountVal(9)) // same key, new entry: the upsert replaces
	rec, _, _ = tw.flush("delete then re-insert")
	if dels, ups := recordTableOps(t, e, rec); len(dels) != 0 || ups != 2 {
		t.Errorf("delete + re-insert of a flushed key: %v deletes, %d upserts, want none and 2", dels, ups)
	}

	// Mark recs[c] (its yield is handed out), then let it expire before
	// the flush: one delete, though it was marked twice over.
	e.raise("mutate_local", StringVal("c"))
	e.now += 11 * sec
	e.raise("look", StringVal("a"))
	rec, _, _ = tw.flush("marked, then expired")
	dels, _ := recordTableOps(t, e, rec)
	got := map[string]int{}
	for _, ks := range dels {
		got[ks]++
	}
	// recs[a] (re-inserted at 101 s) and recs[b], recs[c] are all past
	// &create_expire by now; vecs[*] were read at 101 s at the latest.
	for _, k := range []string{"a", "b", "c"} {
		if n := got[KeyString([]Val{StringVal(k)})]; n != 2 {
			t.Errorf("key %q expired from recs and vecs: %d deletes in the record, want one per table", k, n)
		}
	}
	if exp := e.interp.Expired.Load(); exp != 6 {
		t.Errorf("interpreter counted %d expired entries, want 6", exp)
	}
}

// TestDeltaWorkIndependentOfTableSize: what a flush costs follows what the
// packet's handlers touched, not how much the script tables hold. The same
// late stretch of an HTTP trace is measured with ten times the sessions
// behind it (http_pending keeps one entry per session seen).
func TestDeltaWorkIndependentOfTableSize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 2,000-session trace")
	}
	const window = 1000 // flushes measured, at the end of the trace
	perFlush := func(sessions int) float64 {
		hc := gen.DefaultHTTPConfig()
		hc.Sessions = sessions
		pkts := gen.GenerateHTTP(hc)
		e := mustEngine(t, Config{Parser: "standard", ScriptExec: "interp",
			Scripts: []string{HTTPScript, FilesScript}, Quiet: true, DiscardLogs: true})
		if err := e.ResetDeltaBase(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		var total uint64
		for i := range pkts {
			feed(e, pkts[i:i+1])
			measured := i >= len(pkts)-window
			m0, e0 := e.DeltaTableEntries()
			if measured {
				runtime.ReadMemStats(&before)
			}
			if _, err := e.AppendDelta(); err != nil {
				t.Fatal(err)
			}
			if measured {
				runtime.ReadMemStats(&after)
				total += after.TotalAlloc - before.TotalAlloc
			}
			// One packet raises a handful of events, each touching at most
			// the three per-connection tables.
			if m1, e1 := e.DeltaTableEntries(); e1-e0 > m1-m0 || m1-m0 > 12 {
				t.Fatalf("%d sessions, packet %d: flush looked at %d entries and encoded %d", sessions, i, m1-m0, e1-e0)
			}
		}
		if n := e.interp.Globals["http_pending"].(*TableVal).Len(); n < sessions*9/10 {
			t.Fatalf("http_pending holds %d entries after %d sessions; the test needs the table to grow", n, sessions)
		}
		return float64(total) / window
	}
	small, large := perFlush(200), perFlush(2000)
	t.Logf("TotalAlloc per AppendDelta: %.0f B at 200 sessions, %.0f B at 2000", small, large)
	if large > 1.5*small {
		t.Errorf("a flush allocates %.0f B behind 2000 sessions, %.0f B behind 200: cost grows with table size", large, small)
	}
}

// TestRebaseWorkIndependentOfLiveFlows: what a patching re-base encodes
// follows what the packets since the last one touched, not how many flows
// the engine holds. The trace is re-based every 64 packets with 200 and
// with 2,000 HTTP sessions' frames accumulating behind it (a session's
// http_pending entry outlives its connection): every re-base that patches
// encodes at most one frame per packet of its interval, copies the rest,
// and allocates little beyond the snapshot it returns.
func TestRebaseWorkIndependentOfLiveFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 2,000-session trace")
	}
	const every = 64
	for _, sessions := range []int{200, 2000} {
		hc := gen.DefaultHTTPConfig()
		hc.Sessions = sessions
		pkts := gen.GenerateHTTP(hc)
		e := mustEngine(t, Config{Parser: "standard", ScriptExec: "interp",
			Scripts: []string{HTTPScript, FilesScript}, Quiet: true, DiscardLogs: true})
		var snap []byte
		var before, after runtime.MemStats
		var patched, copied, encodedMax uint64
		for i := range pkts {
			feed(e, pkts[i:i+1])
			if snap != nil {
				if _, err := e.AppendDelta(); err != nil {
					t.Fatal(err)
				}
			}
			if i%every != every-1 {
				continue
			}
			r0, e0, t0 := e.RebaseFrames()
			enc := snapshot.NewAppender(make([]byte, 0, len(snap)+len(snap)/8))
			runtime.ReadMemStats(&before)
			if err := e.Rebase(enc, snap); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			snap = enc.Buffer()
			r1, e1, t1 := e.RebaseFrames()
			if r1 == r0 {
				continue // the first base, and every 16th after: all frames encoded
			}
			patched, copied, encodedMax = patched+1, r1-r0, max(encodedMax, e1-e0)
			if e1-e0 > t1-t0 || t1-t0 > every {
				t.Fatalf("%d sessions, packet %d: re-base encoded %d frames, %d uids touched in %d packets",
					sessions, i, e1-e0, t1-t0, every)
			}
			// (Late in the trace: early on, the snapshot outgrows the room given it.)
			if alloc := after.TotalAlloc - before.TotalAlloc; i > len(pkts)*3/4 && alloc > uint64(len(snap))*3/2 {
				t.Fatalf("%d sessions, packet %d: re-base allocated %d B for a %d B snapshot", sessions, i, alloc, len(snap))
			}
		}
		t.Logf("%d sessions: %d patching re-bases, at most %d frames encoded in one; the last copied %d into %d B",
			sessions, patched, encodedMax, copied, len(snap))
		if patched == 0 || copied < uint64(sessions)*9/10 {
			t.Errorf("%d sessions: last re-base copied %d frames; the test needs them to pile up", sessions, copied)
		}
	}
}
