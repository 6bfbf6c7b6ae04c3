package bro

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/wal"
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
// through one selection of the codec and returns the engines that carry it
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

// viewWAL: snapshot at a random base, one delta record per packet up to
// the cut, restore from the snapshot plus a random prefix of the records
// (through the segmented log). The restored state must also be
// byte-identical to a straight run over the same prefix.
func viewWAL(t *testing.T, cfg Config, pkts []pcap.Packet, cut int, rng *rand.Rand) ([]*Engine, int) {
	base := rng.Intn(cut + 1)
	e := referenceEngine(t, cfg, pkts, base)
	snap := checkpointBytes(t, e)
	if err := e.ResetDeltaBase(); err != nil {
		t.Fatal(err)
	}
	keep := rng.Intn(cut - base + 1)
	log := wal.NewLog(4096)
	for i := base; i < cut; i++ {
		feed(e, pkts[i:i+1])
		rec, err := e.AppendDelta()
		if err != nil {
			t.Fatalf("AppendDelta after packet %d: %v", i, err)
		}
		if i-base < keep {
			if err := log.Append(DeltaRecord, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	resumed, err := RestoreEngineWAL(cfg, snap, log.Segments())
	if err != nil {
		t.Fatalf("base=%d keep=%d: RestoreEngineWAL: %v", base, keep, err)
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
// the engine does not hold. A tombstone cut from a real delta record, a
// frame with no connection, and a frame for a flow already present are each
// refused with an error and leave the engine's state as it was.
func TestInjectFlowRefusesNonLiveFrames(t *testing.T) {
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}
	pkts := mergedTrace(t)
	src := mustEngine(t, cfg)
	if err := src.ResetDeltaBase(); err != nil {
		t.Fatal(err)
	}
	var tomb []byte
	at := 0
	for ; at < len(pkts) && tomb == nil; at++ {
		feed(src, pkts[at:at+1])
		rec, err := src.AppendDelta()
		if err != nil {
			t.Fatal(err)
		}
		for _, frame := range recordFrames(t, rec) {
			if _, flags, _ := frameHeader(snapshot.NewRawDecoder(frame)); flags == ffClosed {
				tomb = frame
				break
			}
		}
	}
	if tomb == nil {
		t.Fatal("no flow closed in the trace")
	}
	// Just before the closing packet the engine still holds the flow.
	holder := referenceEngine(t, cfg, pkts, at-1)
	_, _, closedKey := frameHeader(snapshot.NewRawDecoder(tomb))
	if !holder.HasFlow(closedKey) {
		t.Fatal("tombstoned flow not live before its closing packet")
	}
	// A live flow with script entries, as a frame without its connection
	// and as the whole frame.
	live := holder.MigratableFlows()[0]
	for _, key := range holder.MigratableFlows() {
		if ck, _ := key.Canonical(); labelledEntries(holder, holder.conns[ck].uid) > 0 {
			live = key
			break
		}
	}
	ck, _ := live.Canonical()
	var f flowFrame
	holder.liveFrame(&f, holder.conns[ck].uid, nil)
	enc := snapshot.NewAppender(nil)
	encodeFrame(enc, &f)
	connless := enc.Buffer()
	present, err := holder.ExtractFlow(live)
	if err != nil {
		t.Fatal(err)
	}

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
	refuse("tombstone, flow held", holder, tomb)
	refuse("tombstone, flow absent", mustEngine(t, cfg), tomb)
	refuse("no connection", mustEngine(t, cfg), connless)
	refuse("flow already present", holder, present)
	if !holder.HasFlow(closedKey) || !holder.HasFlow(live) {
		t.Error("a refused frame dropped a held flow")
	}
}

// TestStateViewsResumeIdentically is the codec's property test: a seeded
// HTTP+DNS run interrupted at a cut, serialized through each selection
// (full checkpoint, snapshot + WAL deltas, per-flow extract→inject), and
// continued, must produce the uninterrupted run's logs — line for line
// where one engine resumes, sorted where the state was split over two.
// BinPAC++ HTTP connections hold parser fibers for their whole life, which
// no selection can serialize (asserted below), so binpac rows run the DNS
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
	// connection is refused by every selection rather than half-serialized.
	cfg := Config{Parser: "binpac", ScriptExec: "interp", Scripts: []string{HTTPScript}, Quiet: true}
	hc := gen.DefaultHTTPConfig()
	hc.Sessions = 2
	e := mustEngine(t, cfg)
	if err := e.ResetDeltaBase(); err != nil {
		t.Fatal(err)
	}
	feed(e, gen.GenerateHTTP(hc)[:4])
	if err := e.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Error("Checkpoint accepted an in-flight binpac parse")
	}
	if _, err := e.AppendDelta(); err == nil {
		t.Error("AppendDelta accepted an in-flight binpac parse")
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
// and a snapshot + WAL replay (it used to restart from zero).
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
	replayed, err := RestoreEngineWAL(cfg, snap, log.Segments())
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
