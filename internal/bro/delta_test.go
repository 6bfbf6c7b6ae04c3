package bro

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/values"
)

// rebaser re-bases an engine as a pipeline shard does, and holds each
// snapshot against the full encode of the same instant.
type rebaser struct {
	t    *testing.T
	e    *Engine
	snap []byte // the engine's last Rebase
}

// rebase re-bases the engine — patching its previous snapshot, when it can
// — demands the bytes of the full encode, and reports whether it patched.
func (r *rebaser) rebase(what string) (patched bool) {
	r.t.Helper()
	tr := r.e.track
	patched = tr != nil && tr.base != nil && tr.base.patched+1 < fullRebaseEvery
	want := checkpointBytes(r.t, r.e)
	if r.snap = rebaseBytes(r.t, r.e, r.snap); !bytes.Equal(r.snap, want) {
		r.t.Fatalf("%s: re-base wrote %d bytes, differing from the %d of the full encode", what, len(r.snap), len(want))
	}
	return patched
}

// TestDeltaIdentityAfterEveryPacket: a patching Rebase must write the full
// encode's bytes after every packet, not just at a few cuts — a change the
// dirty marks miss would otherwise hide until the next full re-base
// overwrote it. Every 64 packets the snapshot is also restored and must
// checkpoint to itself. The migrate row moves a flow out and back in every
// 50 packets — forgotten before a re-base, injected before the next.
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
			cfg := Config{Parser: row.parser, ScriptExec: "interp",
				Scripts: []string{HTTPScript, FilesScript, DNSScript, TrackScript}, Quiet: true}
			r := &rebaser{t: t, e: mustEngine(t, cfg)}
			r.rebase("base")
			patched := 0
			for i := range row.pkts {
				feed(r.e, row.pkts[i:i+1])
				if r.rebase(fmt.Sprintf("packet %d", i)) {
					patched++
				}
				if flows := r.e.MigratableFlows(); row.migrate && i%50 == 49 && len(flows) > 0 {
					key := flows[i%len(flows)]
					blob, err := r.e.ExtractFlow(key)
					if err != nil || !r.e.ForgetFlow(key) {
						t.Fatalf("packet %d: extract/forget: %v", i, err)
					}
					r.rebase("forget")
					if _, err := r.e.InjectFlow(blob); err != nil {
						t.Fatalf("packet %d: inject: %v", i, err)
					}
					r.rebase("inject")
				}
				if i%64 == 63 {
					restored, err := RestoreEngine(cfg, bytes.NewReader(r.snap))
					if err != nil {
						t.Fatalf("packet %d: restore: %v", i, err)
					}
					if !bytes.Equal(checkpointBytes(t, restored), r.snap) {
						t.Fatalf("packet %d: the re-based snapshot does not restore to itself", i)
					}
				}
			}
			reused, again, touched := r.e.RebaseFrames()
			if t.Logf("%d of %d re-bases patched: %d frames copied, %d encoded, %d uids touched", patched, len(row.pkts), reused, again, touched); patched == 0 || reused == 0 || again > touched {
				t.Errorf("want patching re-bases that copy frames, and no more encoded than touched")
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

// raise dispatches a custom script's event by name, as the engine does its own.
func (e *Engine) raise(name string, args ...values.Value) {
	var bodies []*vm.CompiledFunc
	if e.compiled {
		bodies = e.ex.Prog.HookBodies[name]
	}
	e.dispatchNamed(name, bodies, nil, args)
}

// TestDeltaMarksYieldMutations: an aggregate a script obtained from a
// table and changed in place must reach the next patching re-base, as must
// an entry a &read_expire read refreshed and a marked entry that then
// expired; reads that hand nothing out mark nothing. Every re-base here
// patches, and must write the full encode's bytes.
func TestDeltaMarksYieldMutations(t *testing.T) {
	r := &rebaser{t: t, e: mustEngine(t, Config{Parser: "standard", ScriptExec: "interp", Scripts: []string{mutationScript}, Quiet: true})}
	e := r.e
	r.rebase("base")
	// step re-bases and returns how many uids the marks named.
	step := func(what string) uint64 {
		t.Helper()
		_, _, t0 := e.RebaseFrames()
		if !r.rebase(what) {
			t.Fatalf("%s: the re-base did not patch", what)
		}
		_, _, t1 := e.RebaseFrames()
		return t1 - t0
	}
	sec := int64(1e9)
	e.now = 100 * sec
	for i, k := range []string{"a", "b", "c"} {
		e.raise("put", values.String(k), values.Int(int64(i+1)))
		step("put " + k)
	}

	e.raise("mutate_local", values.String("b"))
	if n := step("mutation through a local"); n != 1 {
		t.Errorf("mutating recs[b] and vecs[b] through locals marked %d flows' entries, want 1", n)
	}
	e.raise("mutate_for")
	if n := step("mutation through for (k, v in t)"); n != 3 {
		t.Errorf("mutating every yield through a two-variable for marked %d flows' entries, want 3", n)
	}
	e.now += sec
	e.raise("look", values.String("a"))
	// counts[0] and counts[1] have no label; `k in recs` is
	// &create_expire, the one-variable for passes no yield.
	if n := step("reads that hand nothing out"); n != 0 {
		t.Errorf("membership test and one-variable for marked %d flows' entries, want none", n)
	}

	e.raise("put_del", values.String("ghost"))
	step("entry born and gone between re-bases")
	e.raise("del", values.String("a"))
	e.raise("put", values.String("a"), values.Int(9))
	step("delete then re-insert")

	// Mark recs[c] (its yield is handed out, and vecs[c]'s &read_expire
	// read refreshes it), then let everything expire before the re-base.
	e.raise("mutate_local", values.String("c"))
	e.now += 11 * sec
	e.raise("look", values.String("a"))
	if n := step("marked, then expired"); n != 3 {
		t.Errorf("entries of three flows expired, the marks named %d", n)
	}
	if exp := e.interp.Expired.Load(); exp != 6 {
		t.Errorf("interpreter counted %d expired entries, want 6", exp)
	}
}

// reboundScript rebinds a global table to a fresh one and to another
// global's.
const reboundScript = `
global recs: table[string] of count;
global other: table[string] of count;

event put(k: string, n: count) {
    recs[k] = n;
}

event rebind() {
    local fresh: table[string] of count;
    recs = fresh;
}

event alias() {
    recs = other;
}
`

// TestRebaseAfterTableRebound: a global bound to another table since the
// last re-base names a table whose writes no mark recorded, and drops one
// whose entries the previous snapshot holds. The next re-base must still
// write the full encode's bytes, and the one after must see the new
// table's writes.
func TestRebaseAfterTableRebound(t *testing.T) {
	r := &rebaser{t: t, e: mustEngine(t, Config{Parser: "standard", ScriptExec: "interp", Scripts: []string{reboundScript}, Quiet: true})}
	e := r.e
	r.rebase("base")
	e.raise("put", values.String("a"), values.Int(1))
	r.rebase("put a")
	e.raise("rebind")
	e.raise("put", values.String("b"), values.Int(2))
	r.rebase("rebind, put b")
	e.raise("put", values.String("c"), values.Int(3))
	r.rebase("put c")
	e.raise("alias")
	r.rebase("alias")
	e.raise("put", values.String("d"), values.Int(4))
	r.rebase("put d")
}

// TestRebaseWorkIndependentOfLiveFlows: what a patching re-base encodes
// follows what the packets since the last one touched, not how many flows
// the engine holds. The trace is re-based every 64 packets with 200 and
// with 2,000 HTTP sessions' frames accumulating behind it (a session's
// http_pending entry outlives its connection): every re-base that patches
// encodes at most one frame per packet of its interval, copies the rest,
// and allocates little beyond the snapshot it returns. Every fourth
// re-base must also equal the full encode of the same instant.
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
			if i%every != every-1 {
				continue
			}
			var full []byte
			if i%(4*every) == 4*every-1 {
				full = checkpointBytes(t, e)
			}
			r0, e0, t0 := e.RebaseFrames()
			enc := snapshot.NewAppender(make([]byte, 0, len(snap)+len(snap)/8))
			runtime.ReadMemStats(&before)
			if err := e.Rebase(enc, snap); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			snap = enc.Buffer()
			if full != nil && !bytes.Equal(snap, full) {
				t.Fatalf("%d sessions, packet %d: the re-based snapshot differs from the full encode", sessions, i)
			}
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
