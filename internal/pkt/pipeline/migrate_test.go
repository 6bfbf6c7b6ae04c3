package pipeline

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/snapshot"
)

// migHandler is the smallest MigratableHandler: a per-flow byte count,
// extractable as (key, count) blobs. Inject refuses keys it already holds
// — the double-ownership guard a real engine enforces.
type migHandler struct {
	worker int
	flows  map[flow.Key]uint64
}

func newMigHandler(i int) *migHandler {
	return &migHandler{worker: i, flows: map[flow.Key]uint64{}}
}

func (h *migHandler) ProcessPacket(_ int64, data []byte) {
	k, ok := flow.FromFrame(data)
	if !ok {
		return
	}
	ck, _ := k.Canonical()
	h.flows[ck] += uint64(len(data))
}

func (h *migHandler) Finish() {}

func (h *migHandler) MigratableFlows() []flow.Key {
	out := make([]flow.Key, 0, len(h.flows))
	for k := range h.flows {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Hash() < out[b].Hash() })
	return out
}

func encodeMigFlow(k flow.Key, count uint64) []byte {
	var buf bytes.Buffer
	enc := snapshot.NewRawEncoder(&buf)
	enc.Bytes(k.SrcIP[:])
	enc.Bytes(k.DstIP[:])
	enc.U16(k.SrcPort)
	enc.U16(k.DstPort)
	enc.U8(k.Proto)
	enc.U64(count)
	return buf.Bytes()
}

func (h *migHandler) ExtractFlow(key flow.Key) ([]byte, error) {
	count, ok := h.flows[key]
	if !ok {
		return nil, fmt.Errorf("no such flow")
	}
	return encodeMigFlow(key, count), nil
}

func (h *migHandler) InjectFlow(blob []byte) (flow.Key, error) {
	dec := snapshot.NewRawDecoder(blob)
	var k flow.Key
	copy(k.SrcIP[:], dec.Bytes())
	copy(k.DstIP[:], dec.Bytes())
	k.SrcPort = dec.U16()
	k.DstPort = dec.U16()
	k.Proto = dec.U8()
	count := dec.U64()
	if err := dec.Err(); err != nil {
		return flow.Key{}, err
	}
	if _, ok := h.flows[k]; ok {
		return flow.Key{}, fmt.Errorf("flow already present (double ownership)")
	}
	h.flows[k] = count
	return k, nil
}

func (h *migHandler) ForgetFlow(key flow.Key) bool {
	_, ok := h.flows[key]
	delete(h.flows, key)
	return ok
}

func (h *migHandler) HasFlow(key flow.Key) bool {
	_, ok := h.flows[key]
	return ok
}

func migCfg(workers int) Config {
	return Config{
		Workers: workers,
		NewHandler: func(i int) (Handler, error) {
			return newMigHandler(i), nil
		},
	}
}

// quiesce barriers every worker: all packet jobs fed so far have run when
// it returns (worker queues are FIFO).
func quiesce(t *testing.T, p *Pipeline) {
	t.Helper()
	if _, err := p.ExtractFlows(func(uint64) bool { return false }); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateExtractInjectForget: a slice extracted from one pipeline and
// injected into another moves every layer of state — handler flows,
// scheduling entries — and ForgetFlows releases the source without
// counter movement, leaving exactly one owner.
func TestMigrateExtractInjectForget(t *testing.T) {
	src, err := New(migCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(migCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	defer dst.Close()

	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	const flows = 8
	keys := make([]flow.Key, flows)
	vids := make([]uint64, flows)
	for f := 0; f < flows; f++ {
		keys[f], _ = flow.FromIPv4(a, b, uint16(3000+f), 53, 17).Canonical()
		vids[f] = keys[f].Hash()
		for i := 0; i < 4; i++ {
			if err := src.Feed(int64(i), frame(a, b, uint16(3000+f), 53, []byte{byte(f), byte(i)})); err != nil {
				t.Fatal(err)
			}
		}
	}
	quiesce(t, src)

	// Migrate the even-indexed flows.
	moving := map[uint64]bool{}
	for f := 0; f < flows; f += 2 {
		moving[vids[f]] = true
	}
	match := func(vid uint64) bool { return moving[vid] }
	slice, err := src.ExtractFlows(match)
	if err != nil {
		t.Fatal(err)
	}
	if got := slice.Flows(); got != flows/2 {
		t.Fatalf("extracted %d flows, want %d", got, flows/2)
	}
	// Extract is a peek: the source still owns everything.
	for f := 0; f < flows; f++ {
		if owned, err := src.OwnsFlow(keys[f], vids[f]); err != nil || !owned {
			t.Fatalf("flow %d not owned by source after peek (err %v)", f, err)
		}
	}

	preFlowsSeen := workerFlowsSeen(dst)
	if err := dst.InjectFlows(slice); err != nil {
		t.Fatal(err)
	}
	if err := src.ForgetFlows(slice); err != nil {
		t.Fatal(err)
	}
	// Counter neutrality: injection must not count migrated flows as seen.
	if got := workerFlowsSeen(dst); got != preFlowsSeen {
		t.Fatalf("inject moved flows-seen counter: %d -> %d", preFlowsSeen, got)
	}

	// Exactly one owner per flow, and it is the right one.
	for f := 0; f < flows; f++ {
		srcOwns, err := src.OwnsFlow(keys[f], vids[f])
		if err != nil {
			t.Fatal(err)
		}
		dstOwns, err := dst.OwnsFlow(keys[f], vids[f])
		if err != nil {
			t.Fatal(err)
		}
		if moving[vids[f]] && (srcOwns || !dstOwns) {
			t.Fatalf("migrated flow %d: src=%v dst=%v, want src=false dst=true", f, srcOwns, dstOwns)
		}
		if !moving[vids[f]] && (!srcOwns || dstOwns) {
			t.Fatalf("retained flow %d: src=%v dst=%v, want src=true dst=false", f, srcOwns, dstOwns)
		}
	}

	// The migrated state is live on the target: more packets accumulate
	// onto the shipped counts, not fresh ones.
	if err := dst.Feed(100, frame(a, b, 3000, 53, []byte{9})); err != nil {
		t.Fatal(err)
	}
	quiesce(t, dst)
	var total uint64
	for i := range dst.slots {
		h := dst.slots[i].Load().h.(*migHandler)
		total += h.flows[keys[0]]
	}
	one := uint64(len(frame(a, b, 3000, 53, []byte{9})))
	want := 4*uint64(len(frame(a, b, 3000, 53, []byte{0, 0}))) + one
	if total != want {
		t.Fatalf("migrated flow count = %d, want %d (shipped state + one new packet)", total, want)
	}
}

func workerFlowsSeen(p *Pipeline) uint64 {
	var n uint64
	for _, ws := range p.Stats() {
		n += ws.Flows
	}
	return n
}

// TestMigrateDoubleOwnershipRejected: injecting a slice the pipeline
// already holds must fail loudly — the single-ownership guard.
func TestMigrateDoubleOwnershipRejected(t *testing.T) {
	p, err := New(migCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 9}
	if err := p.Feed(0, frame(a, b, 4000, 53, []byte{1})); err != nil {
		t.Fatal(err)
	}
	quiesce(t, p)
	slice, err := p.ExtractFlows(func(uint64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if slice.Empty() {
		t.Fatal("extracted nothing")
	}
	if err := p.InjectFlows(slice); err == nil {
		t.Fatal("self-injection accepted: double ownership")
	}
}

// TestMigrateQuarantineTravels: a quarantine mark moves with the slice,
// so the target keeps refusing the flow the source deemed hostile.
func TestMigrateQuarantineTravels(t *testing.T) {
	panicCfg := Config{
		Workers: 1,
		NewHandler: func(i int) (Handler, error) {
			return &panicOnByteHandler{inner: newMigHandler(i)}, nil
		},
	}
	src, err := New(panicCfg)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(panicCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	defer dst.Close()
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 3}
	key, _ := flow.FromIPv4(a, b, 5000, 53, 17).Canonical()
	vid := key.Hash()
	if err := src.Feed(0, frame(a, b, 5000, 53, []byte{0xBD})); err != nil { // poison: quarantines the flow
		t.Fatal(err)
	}
	quiesce(t, src)
	slice, err := src.ExtractFlows(func(v uint64) bool { return v == vid })
	if err != nil {
		t.Fatal(err)
	}
	if len(slice.Quar) != 1 {
		t.Fatalf("quarantine mark missing from slice: %+v", slice)
	}
	if err := dst.InjectFlows(slice); err != nil {
		t.Fatal(err)
	}
	if err := src.ForgetFlows(slice); err != nil {
		t.Fatal(err)
	}
	if owned, _ := src.OwnsFlow(key, vid); owned {
		t.Fatal("source still owns the quarantined flow")
	}
	if owned, _ := dst.OwnsFlow(key, vid); !owned {
		t.Fatal("quarantine mark did not arrive at the target")
	}
	// The target drops the flow's packets without handler delivery.
	if err := dst.Feed(1, frame(a, b, 5000, 53, []byte{0x01})); err != nil {
		t.Fatal(err)
	}
	quiesce(t, dst)
	var dropped uint64
	for _, ws := range dst.Stats() {
		dropped += ws.QuarantineDropped
	}
	if dropped != 1 {
		t.Fatalf("quarantined flow's packet not dropped on target (dropped=%d)", dropped)
	}
}

// panicOnByteHandler wraps migHandler and panics on payload byte 0xBD
// (frames are UDP; payload starts at offset 42).
type panicOnByteHandler struct{ inner *migHandler }

func (h *panicOnByteHandler) ProcessPacket(ts int64, data []byte) {
	if len(data) > 42 && data[42] == 0xBD {
		panic("poison payload")
	}
	h.inner.ProcessPacket(ts, data)
}
func (h *panicOnByteHandler) Finish()                     {}
func (h *panicOnByteHandler) MigratableFlows() []flow.Key { return h.inner.MigratableFlows() }
func (h *panicOnByteHandler) ExtractFlow(k flow.Key) ([]byte, error) {
	return h.inner.ExtractFlow(k)
}
func (h *panicOnByteHandler) InjectFlow(b []byte) (flow.Key, error) { return h.inner.InjectFlow(b) }
func (h *panicOnByteHandler) ForgetFlow(k flow.Key) bool            { return h.inner.ForgetFlow(k) }
func (h *panicOnByteHandler) HasFlow(k flow.Key) bool               { return h.inner.HasFlow(k) }

// TestWorkerHealthSurfaced: the supervisor's quarantine/replacement state
// shows up in WorkerStats — flagged with a live cooldown while the slot
// serves a quarantine, cleared after reinstatement, with lifetime counts
// retained.
func TestWorkerHealthSurfaced(t *testing.T) {
	cfg := Config{
		Workers:            1,
		StallTimeout:       20 * time.Millisecond,
		StallMaxReplaces:   2,
		StallReplaceWindow: time.Second,
		StallQuarantine:    150 * time.Millisecond,
		CheckpointEvery:    1,
		NewHandler: func(i int) (Handler, error) {
			return &ckptHandler{worker: i, stallOn: 0xEE}, nil
		},
		RestoreHandler: restoreCkptHandler(0xEE),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	for i := 0; i < 10; i++ {
		p.Feed(int64(i), frame(a, b, uint16(7000+i), 80, []byte{0xEE})) //nolint:errcheck
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.StallQuarantines() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no quarantine")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := p.Stats()[0]
	if !st.StallQuarantined {
		t.Fatal("WorkerStats missing live quarantine flag")
	}
	if st.CooldownRemaining <= 0 {
		t.Fatalf("CooldownRemaining = %v during quarantine", st.CooldownRemaining)
	}
	if st.StallQuarantines < 1 || st.Replacements < 1 {
		t.Fatalf("lifetime counts not surfaced: %+v", st)
	}
	for p.QuarantinedWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("never reinstated")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st = p.Stats()[0]
	if st.StallQuarantined || st.CooldownRemaining != 0 {
		t.Fatalf("health flag not cleared after reinstatement: %+v", st)
	}
	if st.StallQuarantines < 1 {
		t.Fatal("lifetime quarantine count lost on reinstatement")
	}
}

// TestWorkerHealthMetricsContinuity: per-worker health series survive a
// kill/restore against the same registry — the keyed collector is
// replaced, not duplicated, so each worker keeps exactly one series.
func TestWorkerHealthMetricsContinuity(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := Config{
		Workers: 2,
		Metrics: reg,
		NewHandler: func(i int) (Handler, error) {
			return &ckptHandler{worker: i}, nil
		},
		RestoreHandler: restoreCkptHandler(0),
	}
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	for i := 0; i < 20; i++ {
		p1.Feed(int64(i), frame(a, b, uint16(8000+i%5), 53, []byte{byte(i)})) //nolint:errcheck
	}
	countSeries := func(base string) int {
		n := 0
		for _, s := range reg.Gather() {
			if strings.HasPrefix(s.Name, base+"{") {
				n++
			}
		}
		return n
	}
	for _, base := range []string{
		"pipeline_worker_stall_quarantined",
		"pipeline_worker_cooldown_remaining_ns",
		"pipeline_worker_replacements_total",
		"pipeline_worker_stall_quarantines_total",
	} {
		if got := countSeries(base); got != cfg.Workers {
			t.Fatalf("before restore: %d %s series, want %d", got, base, cfg.Workers)
		}
	}

	var ck bytes.Buffer
	if err := p1.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	p1.Kill()
	p2, err := Restore(cfg, &ck)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for _, base := range []string{
		"pipeline_worker_stall_quarantined",
		"pipeline_worker_replacements_total",
		"pipeline_shard_packets_total",
	} {
		if got := countSeries(base); got != cfg.Workers {
			t.Fatalf("after restore: %d %s series, want %d (keyed collector must replace, not stack)", got, base, cfg.Workers)
		}
	}
	// And the replacement collector reads the new pipeline, not the dead
	// one: feeding p2 moves the shard packet series.
	before := reg.Value(metrics.Name("pipeline_shard_packets_total", "worker", "0")) +
		reg.Value(metrics.Name("pipeline_shard_packets_total", "worker", "1"))
	for i := 0; i < 10; i++ {
		p2.Feed(int64(100+i), frame(a, b, uint16(8000+i%5), 53, []byte{byte(i)})) //nolint:errcheck
	}
	quiesce(t, p2)
	after := reg.Value(metrics.Name("pipeline_shard_packets_total", "worker", "0")) +
		reg.Value(metrics.Name("pipeline_shard_packets_total", "worker", "1"))
	if after != before+10 {
		t.Fatalf("collector still bound to the dead pipeline: %v -> %v", before, after)
	}
}
