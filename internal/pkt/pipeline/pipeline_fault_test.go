package pipeline

import (
	"sync"
	"testing"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/rt/timer"
)

// panicByte marks a payload that makes panicHandler blow up.
const panicByte = 0xEE

// panicHandler records delivered packets and panics on payloads ending in
// panicByte — a stand-in for a buggy analyzer.
type panicHandler struct {
	mu      sync.Mutex
	packets [][]byte
	zapped  []flow.Key
	finish  int
}

func (h *panicHandler) ProcessPacket(ts int64, data []byte) {
	if len(data) > 0 && data[len(data)-1] == panicByte {
		panic("injected analyzer bug")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.packets = append(h.packets, append([]byte(nil), data...))
}

func (h *panicHandler) Finish() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.finish++
}

func (h *panicHandler) ZapFlow(key flow.Key) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.zapped = append(h.zapped, key)
}

func newPanicPipeline(t *testing.T, cfg Config) (*Pipeline, []*panicHandler) {
	t.Helper()
	var hs []*panicHandler
	cfg.NewHandler = func(i int) (Handler, error) {
		h := &panicHandler{}
		hs = append(hs, h)
		return h, nil
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, hs
}

func sumStats(p *Pipeline) WorkerStats {
	var s WorkerStats
	for _, w := range p.Stats() {
		s.Packets += w.Packets
		s.Flows += w.Flows
		s.LiveFlows += w.LiveFlows
		s.FlowsExpired += w.FlowsExpired
		s.Faults += w.Faults
		s.QuarantinedFlows += w.QuarantinedFlows
		s.QuarantineDropped += w.QuarantineDropped
		s.FlowsEvicted += w.FlowsEvicted
		s.PacketsRejected += w.PacketsRejected
		s.PacketsShed += w.PacketsShed
		s.TimersDropped += w.TimersDropped
		s.CheckpointFailures += w.CheckpointFailures
	}
	return s
}

// TestQuarantineAccounting: a panic quarantines only the offending flow;
// its later packets are counted and dropped while other flows, and the
// pipeline itself, keep processing.
func TestQuarantineAccounting(t *testing.T) {
	p, hs := newPanicPipeline(t, Config{Workers: 2})
	a := [4]byte{10, 0, 0, 1}
	mk := func(f int, last byte) []byte {
		return frame(a, [4]byte{10, 0, 1, byte(f)}, uint16(5000+f), 80, []byte{0, last})
	}
	// Flow 0: clean. Flow 1: 2 clean, 1 panic, 3 more (dropped). Flow 2: clean.
	for i := 0; i < 5; i++ {
		p.Feed(int64(i), mk(0, 1))
	}
	p.Feed(0, mk(1, 1))
	p.Feed(1, mk(1, 1))
	p.Feed(2, mk(1, panicByte))
	p.Feed(3, mk(1, 1))
	p.Feed(4, mk(1, 1))
	p.Feed(5, mk(1, 1))
	for i := 0; i < 5; i++ {
		p.Feed(int64(i), mk(2, 1))
	}
	p.Close()

	s := sumStats(p)
	if s.Faults != 1 || s.QuarantinedFlows != 1 {
		t.Fatalf("faults=%d quarantined=%d, want 1/1", s.Faults, s.QuarantinedFlows)
	}
	if s.QuarantineDropped != 3 {
		t.Fatalf("quarantine-dropped = %d, want 3", s.QuarantineDropped)
	}
	if s.Packets != 12 { // 5 + 2 + 5 delivered cleanly
		t.Fatalf("packets = %d, want 12", s.Packets)
	}
	fs := p.Faults()
	if len(fs) != 1 || fs[0].Op != "packet" || len(fs[0].Stack) == 0 {
		t.Fatalf("fault record malformed: %+v", fs)
	}
	wantVID := flow.FromIPv4(a, [4]byte{10, 0, 1, 1}, 5001, 80, layers.IPProtoUDP).Hash()
	if fs[0].VID != wantVID {
		t.Fatalf("fault VID = %#x, want %#x", fs[0].VID, wantVID)
	}
	// The quarantined flow's state was zapped exactly once, and Finish
	// still ran on every worker.
	var zaps, finishes int
	for _, h := range hs {
		zaps += len(h.zapped)
		finishes += h.finish
	}
	if zaps != 1 {
		t.Fatalf("ZapFlow ran %d times, want 1", zaps)
	}
	if finishes != 2 {
		t.Fatalf("Finish ran %d times, want 2", finishes)
	}
}

// TestFinishPanicContained: a Finish panic is recorded and does not stop
// Close or the other workers' flushes.
func TestFinishPanicContained(t *testing.T) {
	var finishes int
	var mu sync.Mutex
	p, err := New(Config{Workers: 2, NewHandler: func(i int) (Handler, error) {
		return &finishBomb{i: i, mu: &mu, finishes: &finishes}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	s := sumStats(p)
	if s.Faults != 1 {
		t.Fatalf("faults = %d, want 1", s.Faults)
	}
	if fs := p.Faults(); len(fs) != 1 || fs[0].Op != "finish" {
		t.Fatalf("fault = %+v", fs)
	}
	mu.Lock()
	defer mu.Unlock()
	if finishes != 1 { // worker 1's Finish still ran
		t.Fatalf("clean finishes = %d, want 1", finishes)
	}
}

type finishBomb struct {
	i        int
	mu       *sync.Mutex
	finishes *int
}

func (f *finishBomb) ProcessPacket(int64, []byte) {}
func (f *finishBomb) Finish() {
	if f.i == 0 {
		panic("finish bomb")
	}
	f.mu.Lock()
	*f.finishes++
	f.mu.Unlock()
}

// TestEvictOldestLRUOrdering: at the cap the least-recently-ACTIVE flow is
// shed, not the first-inserted one, and no packets are lost.
func TestEvictOldestLRUOrdering(t *testing.T) {
	p, hs := newPanicPipeline(t, Config{Workers: 1, MaxFlows: 3})
	a := [4]byte{10, 0, 0, 1}
	mk := func(f int) []byte {
		return frame(a, [4]byte{10, 0, 1, byte(f)}, uint16(6000+f), 80, []byte{byte(f)})
	}
	p.Feed(0, mk(0)) // table: 0
	p.Feed(1, mk(1)) // table: 0 1
	p.Feed(2, mk(2)) // table: 0 1 2
	p.Feed(3, mk(0)) // touch 0 -> LRU back is now 1
	p.Feed(4, mk(3)) // at cap: evict 1 (LRU), NOT 0 (oldest-inserted)
	p.Feed(5, mk(0)) // 0 must still be live: no new flow-state creation
	p.Feed(6, mk(1)) // 1 was evicted: re-created, evicting 2
	p.Close()

	s := sumStats(p)
	// Creations: 0,1,2,3, then 1 again = 5. A FIFO policy would have
	// evicted flow 0 at the cap and re-created it, giving 6.
	if s.Flows != 5 {
		t.Fatalf("flow creations = %d, want 5 (LRU ordering violated)", s.Flows)
	}
	if s.FlowsEvicted != 2 {
		t.Fatalf("evictions = %d, want 2", s.FlowsEvicted)
	}
	if s.LiveFlows != 3 {
		t.Fatalf("live flows = %d, want 3", s.LiveFlows)
	}
	// Eviction sheds scheduling state only; every packet was delivered.
	if got := len(hs[0].packets); got != 7 {
		t.Fatalf("delivered %d packets, want 7", got)
	}
}

// TestFlowCapNeverExceededUnderChurn: the acceptance-criterion invariant —
// under heavy flow churn the table never exceeds the configured cap, and
// the bound holds while processing is in flight.
func TestFlowCapNeverExceededUnderChurn(t *testing.T) {
	const cap = 64
	p, _ := newPanicPipeline(t, Config{Workers: 4, MaxFlows: cap, FlowIdle: timer.Seconds(1)})
	stop := make(chan struct{})
	var exceeded chan int = make(chan int, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := p.FlowTableSize(); n > cap {
				select {
				case exceeded <- n:
				default:
				}
				return
			}
		}
	}()
	a := [4]byte{10, 3, 0, 0}
	for i := 0; i < 4000; i++ {
		b := [4]byte{10, 4, byte(i % 251), byte(i % 241)}
		p.Feed(int64(i)*1e6, frame(a, b, uint16(i%8192+1024), 80, []byte{byte(i % 100)}))
	}
	p.Close()
	close(stop)
	select {
	case n := <-exceeded:
		t.Fatalf("flow table reached %d entries, cap is %d", n, cap)
	default:
	}
	s := sumStats(p)
	if s.LiveFlows > cap {
		t.Fatalf("final flow table %d > cap %d", s.LiveFlows, cap)
	}
	if s.FlowsEvicted == 0 {
		t.Fatal("churn at the cap should have evicted flows")
	}
	if s.Packets != 4000 {
		t.Fatalf("delivered %d of 4000 packets", s.Packets)
	}
}

// TestTimersDroppedAtClose: idle timers still outstanding at Close are
// counted, not silently discarded.
func TestTimersDroppedAtClose(t *testing.T) {
	p, _ := newPanicPipeline(t, Config{Workers: 2, FlowIdle: timer.Seconds(3600)})
	a := [4]byte{10, 0, 0, 1}
	for f := 0; f < 5; f++ {
		p.Feed(int64(f), frame(a, [4]byte{10, 0, 2, byte(f)}, uint16(8000+f), 80, nil))
	}
	p.Close()
	s := sumStats(p)
	if s.TimersDropped != 5 {
		t.Fatalf("timers dropped = %d, want 5", s.TimersDropped)
	}
	if s.FlowsExpired != 0 {
		t.Fatalf("flows expired = %d, want 0", s.FlowsExpired)
	}
}

// TestConcurrentFaultingFlowsStress: many flows faulting concurrently
// across workers; the pipeline survives, quarantines each exactly once,
// and delivers every clean-flow packet. Run under -race in CI.
func TestConcurrentFaultingFlowsStress(t *testing.T) {
	const flows, per = 100, 20
	p, hs := newPanicPipeline(t, Config{Workers: 4, Ingress: 64})
	a := [4]byte{10, 5, 0, 1}
	for seq := 0; seq < per; seq++ {
		for f := 0; f < flows; f++ {
			last := byte(1)
			// Every 4th flow panics on its 3rd packet.
			if f%4 == 0 && seq == 2 {
				last = panicByte
			}
			b := [4]byte{10, 5, 1, byte(f)}
			p.Feed(int64(seq), frame(a, b, uint16(9000+f), 80, []byte{byte(f), last}))
		}
	}
	p.Close()
	s := sumStats(p)
	const faulty = flows / 4
	if s.Faults != faulty || s.QuarantinedFlows != faulty {
		t.Fatalf("faults=%d quarantined=%d, want %d/%d", s.Faults, s.QuarantinedFlows, faulty, faulty)
	}
	// Each faulty flow: 2 clean packets delivered, 1 panicking, 17 dropped.
	if want := uint64(faulty * (per - 3)); s.QuarantineDropped != want {
		t.Fatalf("quarantine-dropped = %d, want %d", s.QuarantineDropped, want)
	}
	var delivered int
	for _, h := range hs {
		delivered += len(h.packets)
	}
	if want := (flows-faulty)*per + faulty*2; delivered != want {
		t.Fatalf("delivered %d packets, want %d", delivered, want)
	}
}
