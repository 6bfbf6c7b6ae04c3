package bro

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/pipeline"
	"hilti/internal/pkt/reassembly"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/metrics"
)

// genTrace is sessions HTTP sessions and txns DNS transactions as one
// capture, in time order.
func genTrace(sessions, txns int) []pcap.Packet {
	hc := gen.DefaultHTTPConfig()
	hc.Sessions = sessions
	dc := gen.DefaultDNSConfig()
	dc.Transactions = txns
	pkts := append(gen.GenerateHTTP(hc), gen.GenerateDNS(dc)...)
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time.Before(pkts[j].Time) })
	return pkts
}

// mergedTrace is the small HTTP+DNS trace most tests run.
func mergedTrace(t testing.TB) []pcap.Packet { return genTrace(60, 400) }

// gateTrace is the trace the pipeline, fault, recovery and migration
// invariants hold at: 200 HTTP sessions and 2,000 DNS transactions (6,715
// packets).
func gateTrace() []pcap.Packet { return genTrace(200, 2000) }

// stdConfig is standard parsers and the three standard scripts on the given
// script backend: the configuration the log oracles run.
func stdConfig(scriptExec string) Config {
	return Config{Parser: "standard", ScriptExec: scriptExec,
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}
}

// sameLogs is the log oracle: on every stream, got must equal want line for
// line, and want must hold a line. A divergence is one error naming label
// and the stream, listing the lines missing from got and the lines got has
// extra, each in input order.
func sameLogs(t testing.TB, label string, want, got func(stream string) []string) {
	t.Helper()
	lines := 0
	for _, s := range logStreams {
		w, g := want(s), got(s)
		if lines += len(w); slices.Equal(w, g) {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s: %s.log diverged (%d lines, want %d)", label, s, len(g), len(w))
		extra := map[string]int{}
		for _, l := range g {
			extra[l]++
		}
		for _, l := range w {
			if extra[l] > 0 {
				extra[l]--
			} else {
				fmt.Fprintf(&b, "\n  missing: %q", l)
			}
		}
		for _, l := range g {
			if extra[l] > 0 {
				extra[l]--
				fmt.Fprintf(&b, "\n  extra:   %q", l)
			}
		}
		t.Error(b.String())
	}
	if lines == 0 {
		t.Errorf("%s: no log lines to compare", label)
	}
}

// sortedLogs is e's logs in the order Parallel.MergedLines gives.
func sortedLogs(e *Engine) func(string) []string {
	return func(s string) []string { return SortedLines(e, s) }
}

// ledgerBalanced holds the packet-fate identity after a drain: each of the
// fed packets is in exactly one fate and none is left in flight.
func ledgerBalanced(t testing.TB, label string, l pipeline.Ledger, fed int) {
	t.Helper()
	if !l.Balanced() || l.InFlight != 0 || l.Offered != uint64(fed) {
		t.Errorf("%s: packet-fate ledger: fed %d, offered %d, in flight %d, fates %v (sum %d)",
			label, fed, l.Offered, l.InFlight, l.Fates, l.Fates.Sum())
	}
}

// TestParallelMatchesSingleThreaded: the flow-sharded pipeline must
// produce byte-identical logs and event counts to one engine processing
// the same trace serially, and account for every packet, at every worker
// count.
func TestParallelMatchesSingleThreaded(t *testing.T) {
	pkts := gateTrace()
	cfg := stdConfig("interp")
	single := mustEngine(t, cfg)
	st := single.ProcessTrace(pkts)

	for _, workers := range []int{1, 2, 4, 8} {
		par, err := NewParallel(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		par.ProcessTrace(pkts)
		label := fmt.Sprintf("%d workers", workers)
		if got, want := par.Events(), st.Events; got != want {
			t.Errorf("%s: %d events, single-threaded %d", label, got, want)
		}
		ledgerBalanced(t, label, par.Ledger(), len(pkts))
		sameLogs(t, label, sortedLogs(single), par.MergedLines)
		var pktSum uint64
		for _, ws := range par.Stats() {
			pktSum += ws.Packets
		}
		if pktSum != uint64(len(pkts)) {
			t.Errorf("%d workers: stats count %d packets, fed %d", workers, pktSum, len(pkts))
		}
	}
}

// TestParallelBinpacMatches runs the equivalence check with the BinPAC++
// parser path too (exercises the shared-grammar initialization under
// concurrent engine construction).
func TestParallelBinpacMatches(t *testing.T) {
	dc := gen.DefaultDNSConfig()
	dc.Transactions = 200
	pkts := gen.GenerateDNS(dc)
	cfg := Config{Parser: "binpac", ScriptExec: "interp",
		Scripts: []string{DNSScript}, Quiet: true}

	single := mustEngine(t, cfg)
	single.ProcessTrace(pkts)

	par, err := NewParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	par.ProcessTrace(pkts)
	sameLogs(t, "4 workers", sortedLogs(single), par.MergedLines)
}

// TestShrinkTierHalvesReassemblyBudget: the admission ladder's tier-2
// lever — halving the shared reassembly budget — must be wired on a fresh
// host and on one restored from a checkpoint alike (the restore path used
// to spell the wiring out separately and omit the hook).
func TestShrinkTierHalvesReassemblyBudget(t *testing.T) {
	pkts := mergedTrace(t)
	const base = 1 << 20
	build := func(restoreFrom []byte) (*Parallel, *reassembly.Budget) {
		budget := reassembly.NewBudget(base)
		cfg := Config{Parser: "standard", ScriptExec: "interp", Scripts: []string{DNSScript},
			Quiet: true, SharedReassembly: budget}
		pcfg := pipeline.Config{Workers: 2, Admission: admission.NewController(admission.Config{
			TargetRate:    1,    // any traffic is overload
			SamplingRatio: 1e18, // hold at the shrink tier
		})}
		var par *Parallel
		var err error
		if restoreFrom == nil {
			par, err = NewParallelWith(cfg, pcfg)
		} else {
			par, err = RestoreParallelWith(cfg, pcfg, bytes.NewReader(restoreFrom))
		}
		if err != nil {
			t.Fatal(err)
		}
		return par, budget
	}
	fresh, freshBudget := build(nil)
	var ckpt bytes.Buffer
	if err := fresh.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	restored, restoredBudget := build(ckpt.Bytes())
	for _, c := range []struct {
		name   string
		host   *Parallel
		budget *reassembly.Budget
	}{{"fresh", fresh, freshBudget}, {"restored", restored, restoredBudget}} {
		c.host.ProcessTrace(pkts)
		if got := c.budget.Max(); got != base/2 {
			t.Errorf("%s host: reassembly budget %d under sustained overload, want %d (halved at the shrink tier)",
				c.name, got, base/2)
		}
	}
}

// TestParallelWALRebaseRestore: a pipeline that re-bases every 32
// packets — each shard's snapshot patched out of its previous one, with a
// full encode every 16th time — is killed and restored from a checkpoint
// (patched snapshot + the packets logged since, which restore runs again)
// at three cuts that do not fall on a re-base, under both script
// backends. At each cut every restored engine must checkpoint to the same
// bytes as the live engine it replaces, and the run must end with the
// single engine's logs. The first cut falls in the trace's TCP part, with
// closed flows lingering. There the compiled backend's snapshots hold a
// frame only for an open connection — at most one per engine, which every
// re-base touches — so it has no frame to copy until the second cut.
func TestParallelWALRebaseRestore(t *testing.T) {
	pkts := gateTrace()
	for _, backend := range []string{"interp", "hilti"} {
		t.Run(backend, func(t *testing.T) {
			cfg := stdConfig(backend)
			single := mustEngine(t, cfg)
			single.ProcessTrace(pkts)
			reg := metrics.NewRegistry()
			cfg.Metrics = reg
			pcfg := pipeline.Config{Workers: 2, CheckpointEvery: 32}
			par, err := NewParallelWith(cfg, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			for _, cut := range []int{len(pkts) / 5, len(pkts) / 2, len(pkts)*4/5 + 7} {
				for ; next < cut; next++ {
					if err := par.Feed(pkts[next].Time.UnixNano(), pkts[next].Data); err != nil {
						t.Fatal(err)
					}
				}
				var ckpt bytes.Buffer
				if err := par.Checkpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
				// (A process-local series: the restored engines start it over.)
				if reg.Value("bro_rebase_frames_reused_total") == 0 && !(backend == "hilti" && cut == len(pkts)/5 && fewFrames(par, 1)) {
					t.Errorf("by packet %d no re-base has copied a frame: the patching path did not run", cut)
				}
				lingers := 0
				for _, e := range par.Engines {
					lingers += e.flows.closed.Len()
				}
				if cut == len(pkts)/5 && lingers == 0 {
					t.Errorf("at packet %d no closed flow lingers: the cut does not test the linger section", cut)
				}
				par.Kill()
				live := engineCheckpoints(t, par)
				replays := reg.Value("pipeline_wal_replay_ns_count")
				if par, err = RestoreParallelWith(cfg, pcfg, &ckpt); err != nil {
					t.Fatalf("restore at packet %d: %v", cut, err)
				}
				if reg.Value("pipeline_wal_replay_ns_count") == replays {
					t.Errorf("restore at packet %d replayed no logged packet", cut)
				}
				for i, got := range engineCheckpoints(t, par) {
					if !bytes.Equal(got, live[i]) {
						t.Errorf("packet %d, worker %d: the restored engine's checkpoint differs from the live one's (%d vs %d bytes)",
							cut, i, len(got), len(live[i]))
					}
				}
			}
			par.ProcessTrace(pkts[next:])
			sameLogs(t, "restored pipeline", sortedLogs(single), par.MergedLines)
		})
	}
}

// fewFrames reports whether no engine's last re-base wrote more than n
// flow frames.
func fewFrames(par *Parallel, n int) bool {
	for _, e := range par.Engines {
		if e.track != nil && e.track.base != nil && e.track.base.frames() > n {
			return false
		}
	}
	return true
}

// engineCheckpoints checkpoints each of a quiescent host's engines.
func engineCheckpoints(t *testing.T, par *Parallel) [][]byte {
	t.Helper()
	var out [][]byte
	for _, e := range par.Engines {
		var b bytes.Buffer
		if err := e.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b.Bytes())
	}
	return out
}

// walCutsMatchLive feeds pkts through a 2-worker WAL-mode host built from
// cfg and, at each cut, checkpoints, kills and restores it: every restored
// engine must checkpoint to the bytes of the live engine it replaces.
// check sees both hosts at each cut.
func walCutsMatchLive(t *testing.T, cfg Config, pkts []pcap.Packet, cuts []int, check func(live, restored *Parallel)) {
	t.Helper()
	pcfg := pipeline.Config{Workers: 2, CheckpointEvery: 32}
	par, err := NewParallelWith(cfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, cut := range cuts {
		for ; next < cut; next++ {
			if err := par.Feed(pkts[next].Time.UnixNano(), pkts[next].Data); err != nil {
				t.Fatal(err)
			}
		}
		var ckpt bytes.Buffer
		if err := par.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		par.Kill()
		live := par
		if par, err = RestoreParallelWith(cfg, pcfg, &ckpt); err != nil {
			t.Fatalf("restore at packet %d: %v", cut, err)
		}
		want := engineCheckpoints(t, live)
		for i, got := range engineCheckpoints(t, par) {
			if !bytes.Equal(got, want[i]) {
				t.Errorf("packet %d, worker %d: the restored engine's checkpoint differs from the live one's", cut, i)
			}
		}
		check(live, par)
	}
	par.Kill()
}

// withEvery returns pkts with extra(i) inserted after every n-th packet,
// and where the inserted packets are.
func withEvery(pkts []pcap.Packet, n int, extra func(i int) []byte) (out []pcap.Packet, at []int) {
	for i, p := range pkts {
		if out = append(out, p); i%n == n/2 {
			at = append(at, len(out))
			out = append(out, pcap.Packet{Time: p.Time, Data: extra(i)})
		}
	}
	return out, at
}

// TestParallelWALSkipsDeadlineTrips: a packet whose analyzer ran into a
// wall-clock Limits.Deadline is not logged, so restore never runs it
// again — it would run without the deadline, here into the instruction
// limit the deadline beat live — and still lands on the live engine's
// state.
func TestParallelWALSkipsDeadlineTrips(t *testing.T) {
	const loopPort = 31998
	cfg := Config{Parser: "standard", ScriptExec: "interp", Scripts: []string{HTTPScript, DNSScript},
		Quiet: true, LoopPort: loopPort, Limits: vm.Limits{Deadline: time.Millisecond, Instructions: 50_000_000}}
	a, b := [4]byte{10, 77, 0, 1}, [4]byte{10, 77, 0, 2}
	pkts, at := withEvery(mergedTrace(t), 97, func(i int) []byte {
		return tcpDataFrame(a, b, uint16(20000+i), loopPort, 100, []byte("spin"))
	})
	// Cut just after a spinning packet, so a log would still hold it.
	cuts := []int{at[2] + 3, at[len(at)/2] + 1, at[len(at)-2] + 4}
	tripped := false
	walCutsMatchLive(t, cfg, pkts, cuts, func(live, restored *Parallel) {
		for i := range live.Engines {
			if ex := live.Engines[i].loopExec; ex != nil && ex.DeadlineTrips() > 0 {
				tripped = true
			}
			if ex := restored.Engines[i].loopExec; ex != nil && ex.Steps() > 0 {
				t.Errorf("worker %d: restore replayed a packet that tripped its deadline", i)
			}
		}
	})
	if !tripped {
		t.Fatal("no packet tripped the deadline")
	}
}

// TestParallelWALSkipsSharedBudgetRefusals: a segment the shared
// reassembly budget refused — a refusal the other workers' buffering can
// cause — is not logged, and a replayed packet gets every byte it was
// granted live, so restore lands on the live engine's state.
func TestParallelWALSkipsSharedBudgetRefusals(t *testing.T) {
	pool := reassembly.NewBudget(4 * 512)
	cfg := Config{Parser: "standard", ScriptExec: "interp", Scripts: []string{HTTPScript, DNSScript},
		Quiet: true, SharedReassembly: pool}
	a, b := [4]byte{10, 78, 0, 1}, [4]byte{10, 78, 0, 2}
	// Each extra flow opens in order, then buffers 512 bytes behind a hole:
	// the pool grants four, and refuses the rest.
	pkts, at := withEvery(mergedTrace(t), 23, func(i int) []byte {
		sp := uint16(30000 + i/46)
		if i%46 < 23 {
			return tcpDataFrame(a, b, sp, 9999, 100, []byte("go"))
		}
		return tcpDataFrame(a, b, sp, 9999, 10_000, make([]byte, 512))
	})
	// The first cut follows the fourth grant. The killed host keeps its
	// charges, so the pool is over while the restore replays that grant.
	cuts := []int{at[7] + 3, len(pkts) / 2, len(pkts)*2/3 + 5}
	walCutsMatchLive(t, cfg, pkts, cuts, func(*Parallel, *Parallel) {})
	if pool.Forced() == 0 {
		t.Fatal("the shared budget refused no segment")
	}
}

// stallTimeout is the stall tests' supervisor timeout: far above a clean
// packet's work, and short, since a test waits it out.
const stallTimeout = 50 * time.Millisecond

// TestStallRecoveryQuarantinesWedgedFlow: one flow's analyzer blocks
// mid-trace (StallPort), wedging its worker. The supervisor must replace
// the worker exactly once, restoring its shard from the log — a full
// snapshot only every 256 packets — and quarantine the flow, so a second
// packet on it does not wedge again. Every packet must land in one fate,
// and every other flow's logs must equal the single engine's: recovery
// lost no clean packet.
func TestStallRecoveryQuarantinesWedgedFlow(t *testing.T) {
	const stallPort = 31999
	pkts := gateTrace()
	cfg := stdConfig("interp")
	single := mustEngine(t, cfg)
	single.ProcessTrace(pkts)
	cfg.StallPort = stallPort
	// Two workers: with four on two CPUs under -race, a clean packet's job
	// was at times descheduled past the timeout, and the supervisor
	// replaced a healthy worker too.
	par, err := NewParallelWith(cfg, pipeline.Config{Workers: 2, StallTimeout: stallTimeout, CheckpointEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release) // lets the abandoned job return
	for _, e := range par.Engines {
		e.stallRelease = release
	}
	a, b := [4]byte{10, 99, 0, 1}, [4]byte{10, 99, 0, 2}
	half := len(pkts) / 2
	for i := range pkts[:half] {
		par.Feed(pkts[i].Time.UnixNano(), pkts[i].Data) //nolint:errcheck
	}
	ts := pkts[half].Time.UnixNano()
	par.Feed(ts, tcpDataFrame(a, b, 44001, stallPort, 100, []byte("HANGME!!"))) //nolint:errcheck
	deadline := time.Now().Add(10 * time.Second)
	for par.Restarts() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if par.Restarts() == 0 {
		t.Fatal("the supervisor never replaced the wedged worker")
	}
	par.Feed(ts+1, tcpDataFrame(a, b, 44001, stallPort, 108, []byte("HANGME!!"))) //nolint:errcheck
	par.ProcessTrace(pkts[half:])
	stalls := 0
	for _, f := range par.Faults() {
		if f.Op == "stall" {
			stalls++
		}
	}
	if par.Restarts() != 1 || stalls == 0 {
		t.Errorf("%d restarts and %d stall faults, want 1 restart (quarantine must stop re-wedging) and a stall fault",
			par.Restarts(), stalls)
	}
	ledgerBalanced(t, "after hang recovery", par.Ledger(), len(pkts)+2)
	sameLogs(t, "after hang recovery", sortedLogs(single), par.MergedLines)
}

// TestStallRecoveryReleasesSharedBudget: a worker wedged while its engine
// buffers out-of-order bytes under a SharedReassembly pool is replaced;
// when its job at last returns, the abandoned engine's share goes back to
// the pool. The pool then holds exactly what the live engines hold, so a
// recovery does not shrink the budget the live workers get.
func TestStallRecoveryReleasesSharedBudget(t *testing.T) {
	const stallPort = 31999
	pool := reassembly.NewBudget(1 << 20)
	cfg := Config{Parser: "standard", ScriptExec: "interp", Scripts: []string{HTTPScript},
		Quiet: true, SharedReassembly: pool, StallPort: stallPort}
	par, err := NewParallelWith(cfg, pipeline.Config{Workers: 2, StallTimeout: stallTimeout, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	release := make(chan struct{})
	old := append([]*Engine(nil), par.Engines...)
	for _, e := range old {
		e.stallRelease = release
	}
	a, b := [4]byte{10, 77, 0, 1}, [4]byte{10, 77, 0, 2}
	ts := int64(1e18)
	send := func(sp, dp uint16, seq uint32, payload []byte) {
		ts += 1e6
		if err := par.Feed(ts, tcpDataFrame(a, b, sp, dp, seq, payload)); err != nil {
			t.Fatal(err)
		}
	}
	// Flows on both workers open in order, then buffer 300 bytes behind a
	// hole; the stall flow buffers 200 the same way and then wedges on
	// in-order data.
	for sp := uint16(40000); sp < 40008; sp++ {
		send(sp, 9999, 100, []byte("go"))
		send(sp, 9999, 10_000, make([]byte, 300))
	}
	send(44001, stallPort, 5_000, make([]byte, 200))
	send(44001, stallPort, 100, []byte("HANGME!!"))
	deadline := time.Now().Add(10 * time.Second)
	for par.Restarts() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if par.Restarts() != 1 {
		t.Fatalf("%d restarts, want 1", par.Restarts())
	}
	var wedged *Engine
	for i, e := range old {
		if par.Engines[i] != e {
			wedged = e
		}
	}
	if wedged == nil || wedged.Reassembly().Used() == 0 {
		t.Fatal("the wedged worker's engine held no out-of-order bytes")
	}
	close(release)
	live := func() (n int64) {
		for _, e := range par.Engines {
			n += e.Reassembly().Used()
		}
		return n
	}
	for wedged.Reassembly().Used() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got, want := pool.Used(), live(); got != want || want == 0 {
		t.Errorf("after the abandoned job returned: pool holds %d bytes, the live engines %d (the wedged one still %d)",
			got, want, wedged.Reassembly().Used())
	}
}
