package bro

import (
	"fmt"
	"strings"
	"testing"

	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/layers"
	"hilti/internal/pkt/pipeline"
	"hilti/internal/rt/admission"
)

// tcpDataFrame builds an Ethernet/IPv4/TCP frame carrying payload.
func tcpDataFrame(src, dst [4]byte, sp, dp uint16, seq uint32, payload []byte) []byte {
	tcp := layers.EncodeTCP(src, dst, sp, dp, seq, 0, layers.TCPAck, 65535, payload)
	ip := layers.EncodeIPv4(src, dst, layers.IPProtoTCP, 64, 1, tcp)
	return layers.EncodeEthernet([6]byte{1}, [6]byte{2}, layers.EtherTypeIPv4, ip)
}

// TestPanicPortQuarantinesFlow: an analyzer panic on the single-threaded
// path quarantines only that flow, records the fault with a stack, and
// leaves other flows processing normally.
func TestPanicPortQuarantinesFlow(t *testing.T) {
	e, err := NewEngine(Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript}, Quiet: true, PanicPort: 31337})
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	// Three packets of a faulting flow: first panics, the rest are dropped.
	for i := 0; i < 3; i++ {
		e.SafeProcessPacket(int64(i), tcpDataFrame(a, b, 40000, 31337, uint32(100+8*i), []byte("CRASHME!")))
	}
	// An unrelated flow keeps working.
	e.SafeProcessPacket(10, tcpDataFrame(a, b, 40001, 9999, 500, []byte("fine")))
	// The faulted flow's connection state was zapped; the clean flow's is live.
	if e.flows.len() != 1 {
		t.Fatalf("conns = %d, want 1 (only the clean flow)", e.flows.len())
	}
	e.Finish()

	st := e.StatsSnapshot()
	if st.Faults < 1 || st.Quarantined != 1 {
		t.Fatalf("faults=%d quarantined=%d, want >=1/1", st.Faults, st.Quarantined)
	}
	if st.QuarantineDropped != 2 {
		t.Fatalf("quarantine-dropped = %d, want 2", st.QuarantineDropped)
	}
	fs := e.Faults()
	if len(fs) == 0 || fs[0].Op != "packet" || !strings.Contains(string(fs[0].Stack), "goroutine") {
		t.Fatalf("fault record malformed: %+v", fs)
	}
}

// TestLoopPortBudgetBlown: the injected busy-loop analyzer is terminated
// by its instruction budget; the engine counts it and keeps going.
func TestLoopPortBudgetBlown(t *testing.T) {
	e, err := NewEngine(Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript}, Quiet: true, LoopPort: 31007})
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	for i := 0; i < 3; i++ {
		e.SafeProcessPacket(int64(i), tcpDataFrame(a, b, 41000, 31007, uint32(100+4*i), []byte("spin")))
	}
	e.Finish()
	st := e.StatsSnapshot()
	if st.BudgetBlown != 3 {
		t.Fatalf("budget-blown = %d, want 3", st.BudgetBlown)
	}
	if st.Faults != 0 || st.Quarantined != 0 {
		t.Fatalf("exhaustion must not fault/quarantine: %+v", st)
	}
}

// TestParallelFaultContainment: the clean trace with hostile traffic
// injected after every 40th packet — an analyzer that panics, one that
// spins, one that recurses without bound, and malformed frames — through a
// 4-worker pipeline with a capped flow table and a shared reassembly
// budget. Each fault must be contained and its flow quarantined, the
// table must evict at its cap, the spinning analyzer must exhaust its
// budget, every packet must land in one fate, and the clean flows' logs
// must equal the single engine's.
func TestParallelFaultContainment(t *testing.T) {
	pkts := gateTrace()
	cfg := stdConfig("interp")
	single := mustEngine(t, cfg)
	single.ProcessTrace(pkts)

	const panicPort, loopPort, maxFlows = 31337, 31007, 256
	hostile := cfg
	hostile.PanicPort, hostile.LoopPort, hostile.ReassemblyBudget = panicPort, loopPort, 256<<10
	// The fault ring keeps every fault, so the kinds can be told apart below.
	par, err := NewParallelWith(hostile, pipeline.Config{Workers: 4, MaxFlows: maxFlows, FaultRing: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 66, 0, 1}, [4]byte{10, 66, 0, 2}
	malformed := [][]byte{
		{0xDE, 0xAD},     // runt frame
		make([]byte, 14), // ethertype 0
		append(append([]byte{1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 0x08, 0x00}, 0x4F), make([]byte, 10)...), // bad IHL, truncated
		append([]byte{1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 0x08, 0x00}, 0xFF, 0xFF, 0xFF),                  // garbage IP header
	}
	injected, recursive := 0, map[uint16]bool{}
	for i := range pkts {
		ts := pkts[i].Time.UnixNano()
		par.Feed(ts, pkts[i].Data) //nolint:errcheck
		if i%40 != 0 {
			continue
		}
		// Eight recurring flows per kind, so quarantined flows see
		// follow-up packets.
		sp, seq, frame := uint16((i/160)%8), uint32(100+i), malformed[(i/160)%len(malformed)]
		switch (i / 40) % 4 {
		case 0:
			frame = tcpDataFrame(a, b, 40000+sp, panicPort, seq, []byte("CRASHME!"))
		case 1:
			frame = tcpDataFrame(a, b, 40000+sp, loopPort, seq, []byte("SPINNING"))
		case 3:
			frame = tcpDataFrame(a, b, 41000+sp, loopPort, seq, []byte("RECURSE"))
			recursive[sp] = true
		}
		par.Feed(ts, frame) //nolint:errcheck
		injected++
	}
	par.Close()

	ledger := par.Ledger()
	ledgerBalanced(t, "hostile run", ledger, len(pkts)+injected)
	var faults, quarantined, evicted uint64
	for i, ws := range par.Stats() {
		faults, quarantined, evicted = faults+ws.Faults, quarantined+ws.QuarantinedFlows, evicted+ws.FlowsEvicted
		if ws.LiveFlows > maxFlows {
			t.Errorf("worker %d: %d live flows, over the cap of %d", i, ws.LiveFlows, maxFlows)
		}
	}
	budgetBlown, pool := 0, par.Engines[0].cfg.SharedReassembly
	for _, e := range par.Engines {
		budgetBlown += e.StatsSnapshot().BudgetBlown
		if e.cfg.SharedReassembly != pool || pool == nil {
			t.Fatal("the workers' engines do not share one reassembly budget")
		}
	}
	if used := pool.Used(); used != 0 {
		t.Errorf("%d bytes still charged to the shared reassembly budget after close", used)
	}
	stackExhausted := 0
	for _, f := range par.Faults() {
		if strings.Contains(fmt.Sprint(f.Value), vm.ExcStackExhausted) {
			stackExhausted++
		}
	}
	t.Logf("%d injected packets: %d faults, %d flows quarantined, %d evicted, %d budgets blown, %d stack exhaustions; fates %v",
		injected, faults, quarantined, evicted, budgetBlown, stackExhausted, ledger.Fates)
	if faults == 0 || quarantined == 0 || ledger.Fates[admission.FateQuarantineDrop] == 0 {
		t.Error("want contained faults, quarantined flows, and packets dropped in quarantine")
	}
	if evicted == 0 {
		t.Error("no flow-table evictions at the cap")
	}
	if budgetBlown == 0 {
		t.Error("the spinning analyzer never exhausted its budget")
	}
	// One fault per recursing flow: its later packets die in quarantine.
	if stackExhausted == 0 || stackExhausted > len(recursive) {
		t.Errorf("%d StackExhausted faults for %d recursing flows, want 1 to %d", stackExhausted, len(recursive), len(recursive))
	}
	sameLogs(t, "clean flows", sortedLogs(single), par.MergedLines)
}

// TestReassemblyBudgetWiring: a configured cross-flow budget reaches the
// connection streams and forces early gap abandonment under aggregate
// out-of-order buffering.
func TestReassemblyBudgetWiring(t *testing.T) {
	e, err := NewEngine(Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript}, Quiet: true, ReassemblyBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	a, b := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	// Each flow establishes its stream origin, then jumps past a hole so
	// 512 bytes buffer out of order; together the flows exceed the 1 KiB
	// budget and the later inserts must force early gaps.
	payload := make([]byte, 512)
	for f := 0; f < 4; f++ {
		sp := uint16(43000 + f)
		e.SafeProcessPacket(int64(f), tcpDataFrame(a, b, sp, 9999, 100, []byte("go")))
		e.SafeProcessPacket(int64(f), tcpDataFrame(a, b, sp, 9999, 10_000, payload))
	}
	e.Finish()
	if e.Reassembly() == nil {
		t.Fatal("budget not created")
	}
	if e.Reassembly().Forced() == 0 {
		t.Fatal("aggregate buffering over budget should force gaps")
	}
	if used := e.Reassembly().Used(); used != 0 {
		t.Fatalf("budget not credited back at teardown: %d bytes leaked", used)
	}
}
