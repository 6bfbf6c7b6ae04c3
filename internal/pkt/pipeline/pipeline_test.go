package pipeline

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/timer"
)

// frame builds a minimal Ethernet/IPv4/UDP frame for a 5-tuple.
func frame(src, dst [4]byte, sp, dp uint16, payload []byte) []byte {
	udp := layers.EncodeUDP(src, dst, sp, dp, payload)
	ip := layers.EncodeIPv4(src, dst, layers.IPProtoUDP, 64, 1, udp)
	return layers.EncodeEthernet([6]byte{1}, [6]byte{2}, layers.EtherTypeIPv4, ip)
}

type recHandler struct {
	mu      sync.Mutex
	worker  int
	packets [][]byte
	times   []int64
	finish  int
	block   chan struct{} // when non-nil, Packet blocks until closed
}

func (h *recHandler) ProcessPacket(ts int64, data []byte) {
	if h.block != nil {
		<-h.block
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := append([]byte(nil), data...)
	h.packets = append(h.packets, cp)
	h.times = append(h.times, ts)
}

func (h *recHandler) Finish() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.finish++
}

func newRecPipeline(t *testing.T, cfg Config) (*Pipeline, []*recHandler) {
	t.Helper()
	var hs []*recHandler
	cfg.NewHandler = func(i int) (Handler, error) {
		h := &recHandler{worker: i}
		hs = append(hs, h)
		return h, nil
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, hs
}

// TestFlowAffinity: every packet of a flow (both directions) lands on the
// worker its canonical hash selects, and on no other.
func TestFlowAffinity(t *testing.T) {
	const workers = 4
	p, hs := newRecPipeline(t, Config{Workers: workers})
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	type fl struct{ sp, dp uint16 }
	flows := []fl{{1000, 53}, {1001, 53}, {1002, 53}, {1003, 53}, {1004, 53}}
	for round := 0; round < 10; round++ {
		for _, f := range flows {
			// Alternate directions: both must shard identically.
			if round%2 == 0 {
				p.Feed(int64(round), frame(a, b, f.sp, f.dp, []byte{byte(f.sp)}))
			} else {
				p.Feed(int64(round), frame(b, a, f.dp, f.sp, []byte{byte(f.sp)}))
			}
		}
	}
	p.Close()
	for _, f := range flows {
		key := flow.FromIPv4(a, b, f.sp, f.dp, layers.IPProtoUDP)
		want := int(key.Hash() % workers)
		for wi, h := range hs {
			n := 0
			for _, pkt := range h.packets {
				k, ok := flow.FromFrame(pkt)
				if !ok {
					t.Fatal("recorded packet lost its flow key")
				}
				ck, _ := k.Canonical()
				wk, _ := key.Canonical()
				if ck == wk {
					n++
				}
			}
			if wi == want && n != 10 {
				t.Fatalf("flow %d: worker %d saw %d of 10 packets", f.sp, wi, n)
			}
			if wi != want && n != 0 {
				t.Fatalf("flow %d leaked onto worker %d", f.sp, wi)
			}
		}
	}
}

// TestPerFlowOrder: packets of one flow arrive at the handler in feed
// order even under load across many flows.
func TestPerFlowOrder(t *testing.T) {
	p, hs := newRecPipeline(t, Config{Workers: 3, Ingress: 64})
	a := [4]byte{192, 168, 0, 1}
	const flows, per = 20, 50
	for seq := 0; seq < per; seq++ {
		for f := 0; f < flows; f++ {
			b := [4]byte{192, 168, 1, byte(f)}
			p.Feed(int64(seq), frame(a, b, uint16(2000+f), 80, []byte{byte(seq)}))
		}
	}
	p.Close()
	seen := map[uint16][]byte{} // flow src port -> payload sequence
	for _, h := range hs {
		for _, pkt := range h.packets {
			k, _ := flow.FromFrame(pkt)
			seen[k.SrcPort] = append(seen[k.SrcPort], pkt[len(pkt)-1])
		}
	}
	if len(seen) != flows {
		t.Fatalf("saw %d flows, want %d", len(seen), flows)
	}
	for port, seqs := range seen {
		if len(seqs) != per {
			t.Fatalf("flow %d: %d packets, want %d", port, len(seqs), per)
		}
		for i, s := range seqs {
			if int(s) != i {
				t.Fatalf("flow %d: packet %d out of order (seq %d)", port, i, s)
			}
		}
	}
}

// TestDeepCopyIsolation: the caller may clobber its buffer immediately
// after Feed; workers must have their own copy.
func TestDeepCopyIsolation(t *testing.T) {
	p, hs := newRecPipeline(t, Config{Workers: 2})
	buf := frame([4]byte{1, 2, 3, 4}, [4]byte{5, 6, 7, 8}, 1234, 53, []byte("payload"))
	p.Feed(1, buf)
	for i := range buf {
		buf[i] = 0xFF // clobber
	}
	p.Close()
	total := 0
	for _, h := range hs {
		for _, pkt := range h.packets {
			total++
			if k, ok := flow.FromFrame(pkt); !ok || k.SrcPort != 1234 {
				t.Fatal("worker observed the caller's buffer mutation")
			}
		}
	}
	if total != 1 {
		t.Fatalf("delivered %d packets, want 1", total)
	}
}

// TestBackpressure: Feed must block once Ingress packets are in flight and
// resume when the worker drains.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var hs []*recHandler
	p, err := New(Config{Workers: 1, Ingress: 2, NewHandler: func(i int) (Handler, error) {
		h := &recHandler{worker: i, block: gate}
		hs = append(hs, h)
		return h, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	f := frame([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 1, 2, nil)
	fed := make(chan int, 4)
	go func() {
		for i := 0; i < 3; i++ {
			p.Feed(int64(i), f)
			fed <- i
		}
	}()
	// Two packets fit in flight; the third Feed must block on the bound.
	deadline := time.After(5 * time.Second)
	for got := 0; got < 2; {
		select {
		case <-fed:
			got++
		case <-deadline:
			t.Fatal("first two Feeds should not block")
		}
	}
	select {
	case <-fed:
		t.Fatal("third Feed completed despite full ingress window")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate) // drain
	select {
	case <-fed:
	case <-time.After(5 * time.Second):
		t.Fatal("Feed never unblocked after drain")
	}
	p.Close()
	if n := len(hs[0].packets); n != 3 {
		t.Fatalf("worker processed %d packets, want 3", n)
	}
}

// TestCloseOrdering: Finish runs exactly once per worker, strictly after
// that worker's last packet.
func TestCloseOrdering(t *testing.T) {
	var order []string
	var mu sync.Mutex
	p, err := New(Config{Workers: 2, NewHandler: func(i int) (Handler, error) {
		return &ordHandler{i: i, mu: &mu, order: &order}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		b := [4]byte{10, 0, byte(i), 1}
		p.Feed(int64(i), frame(b, [4]byte{10, 9, 9, 9}, uint16(3000+i), 53, nil))
	}
	p.Close()
	mu.Lock()
	defer mu.Unlock()
	finishes := 0
	for i, ev := range order {
		if ev == "finish" {
			finishes++
			continue
		}
		if finishes > 0 && ev == "packet" {
			_ = i
			t.Fatal("packet processed after a Finish") // per-worker FIFO violated
		}
	}
	if finishes != 2 {
		t.Fatalf("finish ran %d times, want 2", finishes)
	}
}

type ordHandler struct {
	i     int
	mu    *sync.Mutex
	order *[]string
}

func (o *ordHandler) ProcessPacket(ts int64, data []byte) {
	o.mu.Lock()
	*o.order = append(*o.order, "packet")
	o.mu.Unlock()
}

func (o *ordHandler) Finish() {
	o.mu.Lock()
	*o.order = append(*o.order, "finish")
	o.mu.Unlock()
}

// TestStatsAndFlowExpiry: counters add up and idle flows expire as packet
// time advances past the FlowIdle horizon; the metrics export the expiries.
func TestStatsAndFlowExpiry(t *testing.T) {
	reg := metrics.NewRegistry()
	p, _ := newRecPipeline(t, Config{Workers: 2, FlowIdle: timer.Seconds(1), Metrics: reg})
	a := [4]byte{172, 16, 0, 1}
	sec := int64(1e9)
	var bytesFed uint64
	// Two bursts 10 trace-seconds apart: burst-one flows are idle-expired
	// as burst two's timestamps advance the worker clocks.
	for burst := 0; burst < 2; burst++ {
		for f := 0; f < 8; f++ {
			b := [4]byte{172, 16, 1, byte(f)}
			fr := frame(a, b, uint16(4000+f), 53, []byte("x"))
			bytesFed += uint64(len(fr))
			p.Feed(int64(burst)*10*sec, fr)
		}
	}
	p.Close()
	st := p.Stats()
	var packets, copied, flows, expired, jobs uint64
	for _, w := range st {
		packets += w.Packets
		copied += w.CopiedBytes
		flows += w.Flows
		expired += w.FlowsExpired
		jobs += w.Jobs
	}
	if packets != 16 {
		t.Fatalf("packets = %d, want 16", packets)
	}
	if copied != bytesFed {
		t.Fatalf("copied bytes = %d, want %d", copied, bytesFed)
	}
	// All 8 burst-one flows expired, then were re-created by burst two.
	if expired != 8 {
		t.Fatalf("flows expired = %d, want 8", expired)
	}
	if got := reg.Value("pipeline_flows_expired_total"); got != 8 {
		t.Fatalf("pipeline_flows_expired_total = %v, want 8", got)
	}
	if flows != 16 {
		t.Fatalf("flow-state creations = %d, want 16", flows)
	}
	if jobs < packets {
		t.Fatalf("jobs = %d < packets = %d", jobs, packets)
	}
}

// TestFeedAfterCloseErrors guards the lifecycle contract.
func TestFeedAfterCloseErrors(t *testing.T) {
	p, _ := newRecPipeline(t, Config{Workers: 1})
	p.Close()
	if err := p.Feed(0, frame([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 1, 2, nil)); err == nil {
		t.Fatal("Feed after Close should error")
	}
	p.Close() // idempotent
}

// TestClosedPipelineReturnsErrClosed: every call refused on a closed
// pipeline says so with the one sentinel.
func TestClosedPipelineReturnsErrClosed(t *testing.T) {
	p, _ := newRecPipeline(t, Config{Workers: 2})
	p.Close()
	if err := p.Feed(0, frame([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 1, 2, nil)); !errors.Is(err, ErrClosed) {
		t.Errorf("Feed after Close: %v, want ErrClosed", err)
	}
	if err := p.Checkpoint(io.Discard); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after Close: %v, want ErrClosed", err)
	}
	if _, err := p.ExtractFlows(func(uint64) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Errorf("ExtractFlows after Close: %v, want ErrClosed", err)
	}
}

// TestUnkeyableFramesDeterministic: non-IP frames all land on vthread 0's
// worker rather than being dropped.
func TestUnkeyableFramesDeterministic(t *testing.T) {
	p, hs := newRecPipeline(t, Config{Workers: 4})
	junk := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x08, 0x06, 0xDE, 0xAD} // ARP-ish
	for i := 0; i < 5; i++ {
		p.Feed(int64(i), junk)
	}
	p.Close()
	for wi, h := range hs {
		if wi == 0 && len(h.packets) != 5 {
			t.Fatalf("worker 0 saw %d unkeyable frames, want 5", len(h.packets))
		}
		if wi != 0 && len(h.packets) != 0 {
			t.Fatalf("worker %d saw unkeyable frames", wi)
		}
	}
}

// TestParallelThroughputSmoke exercises the pipeline under -race with many
// concurrent flows and a tight ingress window.
func TestParallelThroughputSmoke(t *testing.T) {
	var processed atomic.Uint64
	p, err := New(Config{Workers: 4, Ingress: 32, NewHandler: func(i int) (Handler, error) {
		return countHandler{&processed}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	a := [4]byte{10, 1, 0, 0}
	const n = 5000
	for i := 0; i < n; i++ {
		b := [4]byte{10, 2, byte(i % 251), byte(i % 13)}
		p.Feed(int64(i), frame(a, b, uint16(i%4096+1024), 80, []byte{byte(i)}))
	}
	p.Close()
	if processed.Load() != n {
		t.Fatalf("processed %d of %d", processed.Load(), n)
	}
}

type countHandler struct{ n *atomic.Uint64 }

func (c countHandler) ProcessPacket(int64, []byte) { c.n.Add(1) }
func (c countHandler) Finish()                     {}
