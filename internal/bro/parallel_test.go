package bro

import (
	"bytes"
	"sort"
	"testing"

	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/pipeline"
	"hilti/internal/pkt/reassembly"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/metrics"
)

func mergedTrace(t testing.TB) []pcap.Packet {
	t.Helper()
	hc := gen.DefaultHTTPConfig()
	hc.Sessions = 60
	dc := gen.DefaultDNSConfig()
	dc.Transactions = 400
	pkts := append(gen.GenerateHTTP(hc), gen.GenerateDNS(dc)...)
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time.Before(pkts[j].Time) })
	return pkts
}

// TestParallelMatchesSingleThreaded: the flow-sharded pipeline must
// produce byte-identical logs and event counts to one engine processing
// the same trace serially, at every worker count.
func TestParallelMatchesSingleThreaded(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}

	single, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := single.ProcessTrace(pkts)

	for _, workers := range []int{1, 2, 4, 8} {
		par, err := NewParallel(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		par.ProcessTrace(pkts)
		if got, want := par.Events(), st.Events; got != want {
			t.Errorf("%d workers: %d events, single-threaded %d", workers, got, want)
		}
		for _, stream := range []string{"http", "files", "dns"} {
			want := SortedLines(single, stream)
			got := par.MergedLines(stream)
			if len(got) != len(want) {
				t.Errorf("%d workers, %s.log: %d lines, want %d", workers, stream, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%d workers, %s.log line %d differs:\n  got  %q\n  want %q",
						workers, stream, i, got[i], want[i])
					break
				}
			}
		}
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

	single, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single.ProcessTrace(pkts)

	par, err := NewParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	par.ProcessTrace(pkts)
	want := SortedLines(single, "dns")
	got := par.MergedLines("dns")
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("dns.log: %d lines, want %d (nonzero)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dns.log line %d differs:\n  got  %q\n  want %q", i, got[i], want[i])
		}
	}
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

// TestParallelWALRebaseRestore: a WAL-mode pipeline that re-bases every 32
// packets — each shard's snapshot patched out of its previous one, with a
// full encode every 16th time — is killed and restored from a checkpoint
// (patched snapshot + the records since) at three cuts, and must end with
// the single engine's logs.
func TestParallelWALRebaseRestore(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true, Metrics: metrics.NewRegistry()}
	pcfg := pipeline.Config{Workers: 2, WAL: true, CheckpointEvery: 32}
	single, err := NewEngine(Config{Parser: cfg.Parser, ScriptExec: cfg.ScriptExec, Scripts: cfg.Scripts, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	single.ProcessTrace(pkts)

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
		if cfg.Metrics.Value("bro_rebase_frames_reused_total") == 0 {
			t.Errorf("by packet %d no re-base has copied a frame: the patching path did not run", cut)
		}
		par.Kill()
		if par, err = RestoreParallelWith(cfg, pcfg, &ckpt); err != nil {
			t.Fatalf("restore at packet %d: %v", cut, err)
		}
	}
	par.ProcessTrace(pkts[next:])
	for _, stream := range []string{"http", "files", "dns"} {
		got, want := par.MergedLines(stream), SortedLines(single, stream)
		if len(got) != len(want) {
			t.Errorf("%s.log: %d lines, want %d", stream, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s.log line %d differs:\n  got  %q\n  want %q", stream, i, got[i], want[i])
				break
			}
		}
	}
}
