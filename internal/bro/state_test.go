package bro

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/snapshot"
)

var logStreams = []string{"http", "files", "dns"}

func feed(e *Engine, pkts []pcap.Packet) {
	for i := range pkts {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
	}
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// labelledEntries counts the script-table entries carrying flow label uid.
func labelledEntries(e *Engine, uid string) int {
	n := 0
	for _, v := range e.interp.Globals {
		if t, ok := v.(*TableVal); ok {
			for _, en := range t.order {
				if !en.deleted && en.label() == uid {
					n++
				}
			}
		}
	}
	return n
}

// A stateView interrupts a run after pkts[:cut]: it serializes the state
// through one product of the codec and returns the engines that carry it
// on, with the trace position the last of them resumes at.
type stateView func(t *testing.T, cfg Config, pkts []pcap.Packet, cut int, rng *rand.Rand) (engines []*Engine, resume int)

// viewFull: full checkpoint → RestoreEngine.
func viewFull(t *testing.T, cfg Config, pkts []pcap.Packet, cut int, _ *rand.Rand) ([]*Engine, int) {
	e := referenceEngine(t, cfg, pkts, cut)
	resumed, err := RestoreEngine(cfg, bytes.NewReader(checkpointBytes(t, e)))
	if err != nil {
		t.Fatalf("cut=%d: restore: %v", cut, err)
	}
	return []*Engine{resumed}, cut
}

// viewWAL: the log a pipeline shard keeps. The live engine re-bases at a
// random point and again, by patching, at a random base; it is restored
// from that snapshot and runs a random prefix of the later packets again
// (ReplayPacket). The restored state must also be byte-identical to a
// straight run over the same prefix.
func viewWAL(t *testing.T, cfg Config, pkts []pcap.Packet, cut int, rng *rand.Rand) ([]*Engine, int) {
	base := rng.Intn(cut + 1)
	first := rng.Intn(base + 1)
	e := referenceEngine(t, cfg, pkts, first)
	snap := rebaseBytes(t, e, nil)
	feed(e, pkts[first:base])
	snap = rebaseBytes(t, e, snap)
	keep := rng.Intn(cut - base + 1)
	resumed, err := RestoreEngine(cfg, bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("base=%d: restore: %v", base, err)
	}
	for _, p := range pkts[base : base+keep] {
		resumed.ReplayPacket(p.Time.UnixNano(), p.Data)
	}
	if got, want := resumed.Packets(), uint64(base+keep); got != want {
		t.Fatalf("base=%d keep=%d: restored engine at %d packets, want %d", base, keep, got, want)
	}
	if !bytes.Equal(checkpointBytes(t, resumed), checkpointBytes(t, referenceEngine(t, cfg, pkts, base+keep))) {
		t.Errorf("base=%d keep=%d: restored state differs from a straight run", base, keep)
	}
	return []*Engine{resumed}, base + keep
}

// viewFlow: every open flow moves, one frame at a time, into a fresh
// engine, which carries the trace on. Moving one flow must not disturb
// another's script state, the source must not keep what it forgot, and a
// second install of the same frame is double ownership.
func viewFlow(t *testing.T, cfg Config, pkts []pcap.Packet, cut int, _ *rand.Rand) ([]*Engine, int) {
	a, b := referenceEngine(t, cfg, pkts, cut), mustEngine(t, cfg)
	keys := a.MigratableFlows()
	for i, key := range keys {
		probe, before := "", 0
		if i+1 < len(keys) {
			ck, _ := keys[i+1].Canonical()
			probe = a.conns[ck].uid
			before = labelledEntries(a, probe)
		}
		blob, err := a.ExtractFlow(key)
		if err != nil {
			t.Fatalf("extract: %v", err)
		}
		if _, err := b.InjectFlow(blob); err != nil {
			t.Fatalf("inject: %v", err)
		}
		if _, err := b.InjectFlow(blob); err == nil {
			t.Fatal("second injection accepted (double ownership)")
		}
		if !a.ForgetFlow(key) || a.HasFlow(key) {
			t.Fatal("source still has the flow after forget")
		}
		if got := labelledEntries(a, probe); probe != "" && got != before {
			t.Fatalf("unrelated flow's script entries changed: %d -> %d", before, got)
		}
	}
	return []*Engine{a, b}, cut
}

// TestInjectFlowRefusesNonLiveFrames: InjectFlow installs only a live flow
// the engine does not hold. A tombstone (the closed-flow frame of the
// retired delta records), a frame with no connection, a connection frame
// with an unknown flag bit, and a frame for a flow already present are
// each refused with an error and leave the engine's state as it was.
func TestInjectFlowRefusesNonLiveFrames(t *testing.T) {
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}
	pkts := mergedTrace(t)
	holder := referenceEngine(t, cfg, pkts, len(pkts)/3)
	// A live flow with script entries.
	live := holder.MigratableFlows()[0]
	for _, key := range holder.MigratableFlows() {
		if ck, _ := key.Canonical(); labelledEntries(holder, holder.conns[ck].uid) > 0 {
			live = key
			break
		}
	}
	present, err := holder.ExtractFlow(live)
	if err != nil {
		t.Fatal(err)
	}
	frames := refusedFrames(holder, live)

	refuse := func(name string, e *Engine, frame []byte) {
		t.Helper()
		before := checkpointBytes(t, e)
		if _, err := e.InjectFlow(frame); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !bytes.Equal(checkpointBytes(t, e), before) {
			t.Errorf("%s: refused frame changed engine state", name)
		}
	}
	for _, name := range []string{"tombstone", "no connection", "unknown flag"} {
		refuse(name+", flow held", holder, frames[name])
		refuse(name+", flow absent", mustEngine(t, cfg), frames[name])
	}
	refuse("flow already present", holder, present)
	if !holder.HasFlow(live) {
		t.Error("a refused frame dropped a held flow")
	}
}

// refusedFrames builds, for the live flow key of e, the frames InjectFlow
// must refuse: a tombstone (flag bit 0 and the key), the flow's script
// entries without its connection, and its whole frame with a flag bit no
// product writes.
func refusedFrames(e *Engine, key flow.Key) map[string][]byte {
	ck, _ := key.Canonical()
	c := e.conns[ck]
	tomb := snapshot.NewAppender(nil)
	tomb.String(c.uid)
	tomb.U8(1)
	tomb.Bytes(key.Wire())
	tomb.U32(0)
	var f flowFrame
	e.liveFrame(&f, c.uid, nil)
	connless := snapshot.NewAppender(nil)
	encodeFrame(connless, &f)
	e.liveFrame(&f, c.uid, c)
	whole := snapshot.NewAppender(nil)
	encodeFrame(whole, &f)
	odd := bytes.Clone(whole.Buffer())
	odd[4+len(c.uid)] |= 1 << 4 // the flags byte, behind the uid
	return map[string][]byte{"tombstone": tomb.Buffer(), "no connection": connless.Buffer(), "unknown flag": odd}
}

// TestStateViewsResumeIdentically is the codec's property test: a seeded
// HTTP+DNS run interrupted at a cut, carried on three ways (full
// checkpoint, re-based snapshot + packet log, per-flow extract→inject),
// and continued, must produce the uninterrupted run's logs — line for line
// where one engine resumes, sorted where the state was split over two.
// BinPAC++ HTTP connections hold parser fibers for their whole life, which
// no product can serialize (asserted below), so binpac rows run the DNS
// trace; per-flow extraction does not support compiled scripts (asserted).
func TestStateViewsResumeIdentically(t *testing.T) {
	merged := mergedTrace(t)
	dc := gen.DefaultDNSConfig()
	dc.Transactions = 400
	dnsOnly := gen.GenerateDNS(dc)
	views := []struct {
		name string
		view stateView
	}{{"full", viewFull}, {"wal", viewWAL}, {"flow", viewFlow}}

	for _, parser := range []string{"standard", "binpac"} {
		for _, exec := range []string{"interp", "hilti"} {
			cfg := Config{Parser: parser, ScriptExec: exec,
				Scripts: []string{HTTPScript, FilesScript, DNSScript, TrackScript}, Quiet: true}
			pkts := merged
			if parser == "binpac" {
				pkts = dnsOnly
			}
			baseline := mustEngine(t, cfg)
			baseline.ProcessTrace(pkts)
			rng := rand.New(rand.NewSource(int64(len(parser)*31 + len(exec))))
			cuts := []int{1, len(pkts) - 1, 1 + rng.Intn(len(pkts)-1), 1 + rng.Intn(len(pkts)-1)}

			for _, v := range views {
				t.Run(fmt.Sprintf("%s/%s/%s", parser, exec, v.name), func(t *testing.T) {
					if v.name == "flow" && exec == "hilti" {
						e := mustEngine(t, cfg)
						feed(e, pkts[:len(pkts)/2])
						if _, err := e.ExtractFlow(e.MigratableFlows()[0]); err == nil {
							t.Fatal("per-flow extract accepted under compiled scripts")
						}
						return
					}
					for _, cut := range cuts {
						engines, resume := v.view(t, cfg, pkts, cut, rng)
						feed(engines[len(engines)-1], pkts[resume:])
						events := 0
						got := map[string][]string{}
						for _, e := range engines {
							e.Finish()
							events += int(e.events.Load())
							for _, s := range logStreams {
								got[s] = append(got[s], e.Logs.Lines(s)...)
							}
						}
						// Each extra engine raises its own bro_done.
						if want := int(baseline.events.Load()) + len(engines) - 1; events != want {
							t.Errorf("cut=%d: %d events, uninterrupted run had %d", cut, events, want)
						}
						for _, s := range logStreams {
							want := baseline.Logs.Lines(s)
							if len(engines) > 1 {
								want, got[s] = sortedCopy(want), sortedCopy(got[s])
							}
							if strings.Join(got[s], "\n") != strings.Join(want, "\n") {
								t.Errorf("cut=%d: %s.log differs from the uninterrupted run (%d lines, want %d)",
									cut, s, len(got[s]), len(want))
							}
						}
					}
				})
			}
		}
	}

	// The limit the binpac rows route around: an open BinPAC++ HTTP
	// connection is refused by every product rather than half-serialized.
	cfg := Config{Parser: "binpac", ScriptExec: "interp", Scripts: []string{HTTPScript}, Quiet: true}
	hc := gen.DefaultHTTPConfig()
	hc.Sessions = 2
	e := mustEngine(t, cfg)
	snap := rebaseBytes(t, e, nil)
	feed(e, gen.GenerateHTTP(hc)[:4])
	if err := e.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Error("Checkpoint accepted an in-flight binpac parse")
	}
	if err := e.Rebase(snapshot.NewAppender(nil), snap); err == nil {
		t.Error("a patching Rebase accepted an in-flight binpac parse")
	}
	if err := e.Rebase(snapshot.NewAppender(nil), nil); err == nil {
		t.Error("a full Rebase accepted an in-flight binpac parse")
	}
	if _, err := e.ExtractFlow(e.MigratableFlows()[0]); err == nil {
		t.Error("ExtractFlow accepted an in-flight binpac parse")
	}
}

// TestRestoreRejectsOldVersion: the format bumps (1 → 2 → … → 5) came with
// no compatibility reader; a blob of an earlier version fails the header
// check. testdata/checkpoint-v3-http.bin is a version-3 checkpoint taken
// while an HTTP body was in progress, which version 3 laid out as the bytes
// received so far: it must be refused by the version check, not decoded as
// a digest state.
func TestRestoreRejectsOldVersion(t *testing.T) {
	cfg := Config{Parser: "standard", ScriptExec: "interp", Scripts: []string{HTTPScript}, Quiet: true}
	if data := checkpointBytes(t, mustEngine(t, cfg)); data[4] != 0 || data[5] != 5 {
		t.Fatalf("checkpoint header carries version %d.%d, want 5", data[4], data[5])
	}
	v3, err := os.ReadFile("testdata/checkpoint-v3-http.bin")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RestoreEngine(cfg, bytes.NewReader(v3))
	if err == nil || !strings.Contains(err.Error(), "unsupported version 3") {
		t.Fatalf("version-3 blob: err = %v, want the snapshot version error", err)
	}
}

// TestPlaneDroppedSurvivesRestore: the engine-hosted rule plane's drop
// count is part of the meta block, so it continues across a full restore
// and a snapshot + packet-log replay (it used to restart from zero).
func TestPlaneDroppedSurvivesRestore(t *testing.T) {
	pkts := mergedTrace(t)
	plane, err := ruleplane.New(gateClientSubnet())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Parser: "standard", ScriptExec: "interp", RulePlane: plane,
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}
	half := len(pkts) / 2
	snap, log, live := walRun(t, cfg, pkts[:half], half/2, 4096)
	want := live.PlaneDropped()
	if want == 0 {
		t.Fatal("gate dropped nothing; trace/rule mismatch")
	}
	full, err := RestoreEngine(cfg, bytes.NewReader(checkpointBytes(t, live)))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := replayLog(cfg, snap, log.Segments())
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"full": full, "wal": replayed} {
		if got := e.PlaneDropped(); got != want {
			t.Errorf("%s restore: PlaneDropped = %d, want %d", name, got, want)
		}
		feed(e, pkts[half:])
	}
	feed(live, pkts[half:])
	if full.PlaneDropped() != live.PlaneDropped() || replayed.PlaneDropped() != live.PlaneDropped() {
		t.Errorf("after resuming: PlaneDropped full=%d wal=%d, uninterrupted %d",
			full.PlaneDropped(), replayed.PlaneDropped(), live.PlaneDropped())
	}
}

// TestRestoreRefusesRetiredDeltaForms: format version 5 kept the fields
// the engine-level delta records varied, and a snapshot fixes them. Each
// value only a delta wrote — a closed-flow tombstone, a table delete, a
// table without its attributes, a quarantine entry marked absent, a
// container journal — fails the restore with an error.
func TestRestoreRefusesRetiredDeltaForms(t *testing.T) {
	// build assembles a snapshot of e: its header and meta block around
	// the frames and the sections the caller writes.
	build := func(e *Engine, frames [][]byte, quar, interp, exec func(*snapshot.Encoder)) []byte {
		enc := snapshot.NewAppender(nil)
		e.encodeHeader(enc)
		enc.U32(uint32(len(frames)))
		for _, f := range frames {
			enc.Bytes(f)
		}
		e.encodeMeta(enc)
		quar(enc)
		enc.U32(0) // logs
		interp(enc)
		exec(enc)
		return enc.Buffer()
	}
	none := func(enc *snapshot.Encoder) { enc.U32(0) }
	noExec := func(enc *snapshot.Encoder) { enc.Bool(false) }
	frame := func(flags byte, tables func(*snapshot.Encoder)) []byte {
		enc := snapshot.NewAppender(nil)
		enc.String("Cuid")
		enc.U8(flags)
		if flags != 0 {
			key, _ := flow.FromFrame(mergedTrace(t)[0].Data)
			enc.Bytes(key.Wire())
		}
		tables(enc)
		return enc.Buffer()
	}

	cfg := Config{Parser: "standard", ScriptExec: "interp", Scripts: []string{HTTPScript}, Quiet: true}
	e := mustEngine(t, cfg)
	if _, err := RestoreEngine(cfg, bytes.NewReader(build(e, nil, none, none, noExec))); err != nil {
		t.Fatalf("the hand-built snapshot itself: %v", err)
	}
	for name, snap := range map[string][]byte{
		"tombstone": build(e, [][]byte{frame(1, none)}, none, none, noExec),
		"delete": build(e, [][]byte{frame(0, func(enc *snapshot.Encoder) {
			enc.U32(1)
			enc.String("http_pending")
			encodeStrings(enc, []string{KeyString([]Val{StringVal("Cuid")})})
			enc.U32(0)
		})}, none, none, noExec),
		"table without attributes": build(e, nil, none, func(enc *snapshot.Encoder) {
			enc.U32(1)
			enc.String("http_pending")
			enc.U8(modeTable)
			body := enc.Begin()
			enc.Bool(false)
			enc.U64(0)
			encodeEntries(enc, nil)
			enc.End(body)
		}, noExec),
		"quarantine entry absent": build(e, nil, func(enc *snapshot.Encoder) {
			enc.U32(1)
			enc.U64(7)
			enc.Bool(false)
			enc.U64(0)
		}, none, noExec),
	} {
		if _, err := RestoreEngine(cfg, bytes.NewReader(snap)); err == nil {
			t.Errorf("%s: restored", name)
		}
	}

	cfg.ScriptExec, cfg.Scripts = "hilti", []string{TrackScript}
	e = mustEngine(t, cfg)
	journal := build(e, nil, none, none, func(enc *snapshot.Encoder) {
		enc.Bool(true)
		enc.I64(0)
		enc.U32(1)
		enc.U32(0)
		enc.U8(2) // the retired container-journal mode
		enc.Bytes([]byte{0, 0, 0, 0})
	})
	if _, err := RestoreEngine(cfg, bytes.NewReader(journal)); err == nil {
		t.Error("container journal: restored")
	}
}
