// Tests for the overload-control wiring and its satellite hardening:
// admission shedding vs established-flow protection, MaxFlows config
// validation, admitFlow churn behavior, LRU survival across
// checkpoint/restore, checkpoint-failure backoff, and the stall
// supervisor's replacement-rate limit.

package pipeline

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/timer"
)

func TestMaxFlowsBelowWorkersRejected(t *testing.T) {
	_, err := New(Config{
		Workers:    4,
		MaxFlows:   2,
		NewHandler: func(int) (Handler, error) { return &recHandler{}, nil },
	})
	if err == nil {
		t.Fatal("MaxFlows 2 with Workers 4 accepted; the per-worker floor would silently raise the cap to 4")
	}
}

func TestEffectiveMaxFlowsSurfaced(t *testing.T) {
	p, _ := newRecPipeline(t, Config{Workers: 4, MaxFlows: 10})
	defer p.Close()
	if got := p.EffectiveMaxFlows(); got != 8 {
		t.Fatalf("EffectiveMaxFlows = %d, want 8 (10/4 floored to 2 per worker)", got)
	}
	for i, ws := range p.Stats() {
		if ws.FlowCap != 2 {
			t.Fatalf("worker %d FlowCap = %d, want 2", i, ws.FlowCap)
		}
	}
	// Unbounded stays unbounded.
	p2, _ := newRecPipeline(t, Config{Workers: 2})
	defer p2.Close()
	if got := p2.EffectiveMaxFlows(); got != 0 {
		t.Fatalf("unbounded EffectiveMaxFlows = %d, want 0", got)
	}
}

// TestChurnEvictionWithQuarantinedFlows: a quarantined flow must neither
// occupy flow-table capacity nor be resurrected by churn at the cap.
func TestChurnEvictionWithQuarantinedFlows(t *testing.T) {
	p, _ := newPanicPipeline(t, Config{Workers: 1, MaxFlows: 3})
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	// Flow on port 6666 panics the handler -> quarantined.
	p.Feed(0, frame(a, b, 6666, 80, []byte{panicByte}))
	// Fill the table with three clean flows, then churn two more.
	for i, sp := range []uint16{7001, 7002, 7003, 7004, 7005} {
		p.Feed(int64(i+1), frame(a, b, sp, 80, []byte{2}))
	}
	// The quarantined flow's later packets are dropped, not re-admitted.
	p.Feed(10, frame(a, b, 6666, 80, []byte{3}))
	p.Close()

	st := sumStats(p)
	if st.QuarantinedFlows != 1 || st.QuarantineDropped != 1 {
		t.Fatalf("quarantine ledger = %d flows/%d dropped, want 1/1", st.QuarantinedFlows, st.QuarantineDropped)
	}
	if st.LiveFlows != 3 {
		t.Fatalf("live flows = %d, want 3 (cap)", st.LiveFlows)
	}
	if st.FlowsEvicted != 2 {
		t.Fatalf("evicted %d, want 2 (one per churned flow)", st.FlowsEvicted)
	}
}

// TestIdleRefreshVsEviction: an idle-timer refresh both extends the
// deadline and re-fronts the LRU, so expiry takes the stale flow and
// eviction takes the least-recently-refreshed one — never the refreshed
// flow.
func TestIdleRefreshVsEviction(t *testing.T) {
	p, _ := newRecPipeline(t, Config{Workers: 1, MaxFlows: 2, FlowIdle: timer.Interval(100)})
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	fA := frame(a, b, 5001, 80, []byte{1})
	p.Feed(0, fA)                           // A: deadline 100
	p.Feed(10, frame(a, b, 5002, 80, nil))  // B: deadline 110
	p.Feed(50, fA)                          // refresh A: deadline 150, LRU front
	p.Feed(120, frame(a, b, 5003, 80, nil)) // B expired at 110; C admitted without eviction
	p.Feed(130, frame(a, b, 5004, 80, nil)) // D: cap hit -> evicts LRU back = A (refresh kept it to 150, but C is fresher)
	p.Feed(140, fA)                         // A again: new entry -> evicts C
	p.Close()

	st := sumStats(p)
	if st.Flows != 5 {
		t.Fatalf("flows created = %d, want 5 (A,B,C,D + re-created A)", st.Flows)
	}
	if st.FlowsExpired != 1 {
		t.Fatalf("flows expired = %d, want 1 (B)", st.FlowsExpired)
	}
	if st.FlowsEvicted != 2 {
		t.Fatalf("flows evicted = %d, want 2 (A then C)", st.FlowsEvicted)
	}
}

// TestLRUOrderSurvivesCheckpointRestore: eviction order after a restore
// must match the order before it — the shard codec encodes flows
// oldest-first precisely so the rebuilt LRU is equivalent.
func TestLRUOrderSurvivesCheckpointRestore(t *testing.T) {
	cfg := Config{
		Workers:  1,
		MaxFlows: 3,
		NewHandler: func(i int) (Handler, error) {
			return &ckptHandler{worker: i}, nil
		},
		RestoreHandler: restoreCkptHandler(0),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	fA := frame(a, b, 5001, 80, nil)
	fB := frame(a, b, 5002, 80, nil)
	fC := frame(a, b, 5003, 80, nil)
	p.Feed(0, fA)
	p.Feed(1, fB)
	p.Feed(2, fC)
	p.Feed(3, fA) // LRU now A > C > B
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	p.Kill()

	r, err := Restore(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	r.Feed(4, frame(a, b, 5004, 80, nil)) // cap: must evict B, the LRU back
	r.Feed(5, fC)                         // must still be established
	r.Feed(6, fA)                         // must still be established
	r.Close()

	st := sumStats(r)
	if st.Flows != 4 {
		t.Fatalf("flows created across restore = %d, want 4 (A,B,C,D; C and A refreshed, not re-created)", st.Flows)
	}
	if st.FlowsEvicted != 1 {
		t.Fatalf("evicted = %d, want 1 (B)", st.FlowsEvicted)
	}
}

// TestWedgingHandlerConvergesToQuarantine is the replacement-storm
// regression: a handler that wedges on every packet must cost a bounded
// number of worker replacements, then fall into slot quarantine, and be
// reinstated after the cooldown.
func TestWedgingHandlerConvergesToQuarantine(t *testing.T) {
	cfg := Config{
		Workers:            1,
		StallTimeout:       20 * time.Millisecond,
		StallMaxReplaces:   2,
		StallReplaceWindow: time.Second,
		StallQuarantine:    100 * time.Millisecond,
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
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	// Ten distinct flows, every packet wedges whichever handler gets it.
	for i := 0; i < 10; i++ {
		p.Feed(int64(i), frame(a, b, uint16(6000+i), 80, []byte{0xEE}))
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.StallQuarantines() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no quarantine after %d restarts", p.Restarts())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.Restarts(); got > uint64(cfg.StallMaxReplaces)+2 {
		t.Fatalf("restarts = %d for a persistent wedger, want <= %d (rate limit + quarantine entry)",
			got, cfg.StallMaxReplaces+2)
	}
	// The discard slot drains the queue; after the cooldown the shard is
	// reinstated and serves clean traffic again.
	for p.QuarantinedWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never reinstated after quarantine cooldown")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.Feed(100, frame(a, b, 7000, 80, []byte{0x01})); err != nil {
		t.Fatalf("feed after reinstatement: %v", err)
	}
	p.Close()
	if p.StallQuarantines() < 1 {
		t.Fatal("expected at least one stall quarantine")
	}
}

// failCkptHandler fails every Rebase call, counting attempts.
type failCkptHandler struct{ calls atomic.Uint64 }

func (h *failCkptHandler) ProcessPacket(int64, []byte) {}
func (h *failCkptHandler) Finish()                     {}
func (h *failCkptHandler) ReplayPacket(int64, []byte)  {}
func (h *failCkptHandler) Unreplayable() bool          { return false }
func (h *failCkptHandler) Rebase(*snapshot.Encoder, []byte) error {
	h.calls.Add(1)
	return fmt.Errorf("disk on fire")
}

// TestCheckpointFailureBackoff: a shard whose every re-base fails — the
// first one, in New, included — opens a gap instead of failing New, and
// the gap's re-base is retried with exponential backoff, not on every
// packet.
func TestCheckpointFailureBackoff(t *testing.T) {
	h := &failCkptHandler{}
	p, err := New(Config{
		Workers:        1,
		NewHandler:     func(int) (Handler, error) { return h, nil },
		RestoreHandler: func(int, []byte) (Handler, error) { return h, nil },
	})
	if err != nil {
		t.Fatalf("New with a failing first re-base: %v", err)
	}
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	const packets = 100
	for i := 0; i < packets; i++ {
		p.Feed(int64(i), frame(a, b, 5000, 80, []byte{byte(i)}))
	}
	p.Close()
	calls := h.calls.Load()
	// Without backoff this is one attempt in New plus one per packet; with
	// 2^n packet backoff it is O(log packets): New, then after 2, 4, 8, 16
	// and 32 skipped packets.
	if calls >= packets/10 {
		t.Fatalf("re-base attempted %d times over %d packets; backoff is not engaging", calls, packets)
	}
	if calls < 3 {
		t.Fatalf("re-base attempted only %d times; retries stopped entirely", calls)
	}
	if got := sumStats(p).CheckpointFailures; got != calls {
		t.Fatalf("CheckpointFailures = %d, want %d (every attempt failed)", got, calls)
	}
}

// TestAdmissionShedsNewProtectsEstablished drives the pipeline into
// Shedding via its admission controller: new normal-priority flows are
// refused, established flows and new high-priority flows see full
// service, and the accounting identity holds exactly after drain.
func TestAdmissionShedsNewProtectsEstablished(t *testing.T) {
	adm := admission.NewController(admission.Config{
		TargetRate:    1,    // any traffic is overload: escalate on the first window roll
		SamplingRatio: 1e18, // hold at tier 2: this test is about shedding, not sampling
	})
	p, hs := newRecPipeline(t, Config{
		Workers:   1,
		FlowIdle:  timer.Seconds(600),
		Admission: adm,
	})
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	fA := frame(a, b, 5001, 80, []byte{1})
	p.Feed(0, fA)                           // established before overload
	p.Feed(1e6, frame(a, b, 5002, 80, nil)) // second established flow
	const churn = 100
	dns := 0
	for i := 0; i < churn; i++ {
		ts := int64(200e6 + i*1e6)
		// New normal-priority flow: must be shed at tier 2.
		p.Feed(ts, frame(a, b, uint16(20000+i), 80, nil))
		// Established flow keeps full service.
		p.Feed(ts+3e5, fA)
		if i%10 == 0 {
			// New high-priority (DNS) flow: never shed.
			p.Feed(ts+6e5, frame(a, b, uint16(30000+i), 53, nil))
			dns++
		}
	}
	p.Close()

	if st := adm.State(); st != admission.Shedding {
		t.Fatalf("state %v, want shedding", st)
	}
	l := adm.LedgerSnapshot()
	if !l.Balanced() {
		t.Fatalf("ledger identity broken after drain: %+v", l)
	}
	if l.Shed != churn {
		t.Fatalf("shed = %d, want %d (every new normal flow during overload)", l.Shed, churn)
	}
	if l.EstOffered != churn || l.EstAdmitted != churn {
		t.Fatalf("established offered/admitted = %d/%d, want %d/%d (100%% survival)",
			l.EstOffered, l.EstAdmitted, churn, churn)
	}
	wantDelivered := 2 + churn + dns // two establishments + refreshes + DNS flows
	if got := len(hs[0].packets); got != wantDelivered {
		t.Fatalf("handler saw %d packets, want %d (shed packets must never reach it)", got, wantDelivered)
	}
	if st := sumStats(p); st.PacketsShed != churn {
		t.Fatalf("stats PacketsShed = %d, want %d", st.PacketsShed, churn)
	}
	if got := p.FlowTableSize(); got != 2+dns {
		t.Fatalf("flow table = %d, want %d (shed flows hold no state)", got, 2+dns)
	}
}

// TestPacketsShedSurvivesRestore: the shed count is shard state like every
// other packet-fate counter. It used to be missing from the shard snapshot,
// so a restore kept only the sheds replayed from records after the last
// re-base.
func TestPacketsShedSurvivesRestore(t *testing.T) {
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	shedding := func() *admission.Controller {
		return admission.NewController(admission.Config{TargetRate: 1, SamplingRatio: 1e18})
	}
	cfg := deltaCfg(1, 0, 0)
	cfg.CheckpointEvery, cfg.Admission = 8, shedding()
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1.Feed(0, frame(a, b, 5001, 80, []byte{1})) // established before overload
	const churn = 50                             // spans several re-bases
	for i := 0; i < churn; i++ {
		p1.Feed(int64(200e6+i*1e6), frame(a, b, uint16(20000+i), 80, []byte{2}))
	}
	var buf bytes.Buffer
	if err := p1.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	p1.Kill()
	if got := sumStats(p1).PacketsShed; got != churn {
		t.Fatalf("live PacketsShed = %d, want %d", got, churn)
	}
	cfg.Admission = shedding()
	p2, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	p2.Close()
	if got := sumStats(p2).PacketsShed; got != churn {
		t.Errorf("restored PacketsShed = %d, want %d", got, churn)
	}
}

// zapHandler records ZapFlow calls.
type zapHandler struct {
	mu     sync.Mutex
	zapped []flow.Key
}

func (h *zapHandler) ProcessPacket(int64, []byte) {}
func (h *zapHandler) Finish()                     {}
func (h *zapHandler) ZapFlow(k flow.Key) {
	h.mu.Lock()
	h.zapped = append(h.zapped, k)
	h.mu.Unlock()
}

// TestExpireFlowsZapsHandlerState: with Config.ExpireFlows, an idle
// expiry reaches the handler's ZapFlow so shrinking idle deadlines frees
// analysis state, not just the pipeline's scheduling entry.
func TestExpireFlowsZapsHandlerState(t *testing.T) {
	h := &zapHandler{}
	p, err := New(Config{
		Workers:     1,
		FlowIdle:    timer.Interval(100),
		ExpireFlows: true,
		NewHandler:  func(int) (Handler, error) { return h, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	fA := frame(a, b, 5001, 80, nil)
	p.Feed(0, fA)
	p.Feed(1000, frame(a, b, 5002, 80, nil)) // advances time past A's deadline
	p.Close()

	wantKey, _ := flow.FromFrame(fA)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.zapped) != 1 || h.zapped[0] != wantKey {
		t.Fatalf("zapped = %v, want exactly [%v]", h.zapped, wantKey)
	}
}

// TestHalfDeadlineAtTierShrink: a flow refreshed at TierShrink expires at
// ts + FlowIdle/2, one refreshed below it at ts + FlowIdle. Expiry runs in
// deadline order across both, a later tier-0 packet brings the full
// deadline back, and at the cap the flow with the earlier deadline goes,
// not the least recently active one; flows due at the same time go in the
// order they were refreshed. A checkpoint and restore of the shard
// before any packet changes none of it. The steps are the worker half of a
// packet: the clock's advance, then admitFlow.
func TestHalfDeadlineAtTierShrink(t *testing.T) {
	const shrink = admission.TierShrink
	steps := []struct {
		ts    int64
		flow  byte // the flow's source port
		tier  int
		queue string // flows after the packet, in the order expiry takes them
		zaps  string // flows expired so far, in order
	}{
		{0, 'A', 0, "A", ""},                // A: 100
		{10, 'B', shrink, "BA", ""},         // B: 60
		{20, 'C', shrink, "BCA", ""},        // C: 70
		{30, 'D', 0, "CAD", ""},             // D: 130; at the cap B (60) goes, not A
		{40, 'C', 0, "ADC", ""},             // C back at the full deadline: 140
		{45, 'E', shrink, "EDC", ""},        // E: 95; at the cap A (100) goes
		{94, 'D', shrink, "ECD", ""},        // D halved: 144
		{95, 'G', 0, "CDG", "E"},            // E expires at its deadline; G: 195
		{140, 'D', 0, "GD", "EC"},           // C expires; D back at the full deadline: 240
		{150, 'H', shrink, "GHD", "EC"},     // H: 200
		{199, 'X', 0, "HDX", "ECG"},         // G expires; X: 299
		{200, 'Y', 0, "DXY", "ECGH"},        // H expires at 150 + 100/2
		{200, 'X', 0, "DYX", "ECGH"},        // X: 300, after Y, refreshed before it
		{200, 'Y', 0, "DXY", "ECGH"},        // Y: still 300, but refreshed last
		{1000, 'Z', shrink, "Z", "ECGHDXY"}, // the rest expire in deadline order
	}
	key := func(port byte) flow.Key {
		return flow.FromIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, uint16(port), 80, layers.IPProtoUDP)
	}
	name := func(k flow.Key) string { return string(rune(k.SrcPort)) }
	for _, restore := range []bool{false, true} {
		zh := &zapHandler{}
		cfg := Config{Workers: 1, MaxFlows: 3, FlowIdle: 100, ExpireFlows: true}
		p, err := newPipeline(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		sl := &wslot{ws: p.newWstate(0), h: zh}
		sl.ws.owner = sl
		for i, st := range steps {
			if restore {
				blob, _, err := p.encodeShard(sl, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				ws := p.newWstate(0)
				if _, _, err := p.decodeShard(ws, blob); err != nil {
					t.Fatal(err)
				}
				sl.ws, ws.owner = ws, sl
			}
			k := key(st.flow)
			p.advanceWorkerTime(sl.ws, st.ts)
			p.admitFlow(sl.ws, k.Hash(), k, true, st.ts, st.tier, false)
			var queue, zaps string
			sl.ws.eachQueued(func(en *flowEntry) { queue += name(en.V.key) })
			for _, z := range zh.zapped {
				zaps += name(z)
			}
			if queue != st.queue || zaps != st.zaps {
				t.Fatalf("restore %v, step %d (%c at %d, tier %d): queue %q, expired %q; want %q, %q",
					restore, i, st.flow, st.ts, st.tier, queue, zaps, st.queue, st.zaps)
			}
		}
		if ws := sl.ws; ws.flowsEvicted.Load() != 2 || ws.flowsExpired.Load() != 7 || ws.liveFlows.Load() != 1 {
			t.Errorf("restore %v: %d evicted, %d expired, %d live; want 2, 7, 1",
				restore, ws.flowsEvicted.Load(), ws.flowsExpired.Load(), ws.liveFlows.Load())
		}
	}
}
