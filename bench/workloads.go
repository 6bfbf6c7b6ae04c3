// The seven workloads. Each one is a set-up function that goes from
// nothing to a system ready for its first packet (timed as setup_s), and
// the system it returns: packets go in one at a time from the single
// feeding goroutine, Finish flushes, and what comes back is compared with
// an oracle (oracle.go). Only public entry points of the repository are
// called; see README.md for why each workload exists.

package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"hilti/internal/bpf"
	"hilti/internal/bro"
	"hilti/internal/firewall"
	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/pipeline"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/classifier"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/values"
)

// inputs is everything generated from the seed for one workload.
type inputs struct {
	seed  int64
	scale scale
	pkts  []pcap.Packet
	info  traceInfo
	cls   *classifier.Classifier // the seeded rule table, for the workloads that host a rule plane
}

// runOpts varies a set-up between the kinds of pass the harness makes.
type runOpts struct {
	// verify keeps what the oracle needs: log lines for the engines,
	// per-packet reference verdicts for vm-packet, the midpoint checkpoint
	// for pipeline-full. Timed passes run with it off (logs are computed
	// and discarded, as in the paper's performance runs).
	verify bool
	// metrics is set only in traced runs, to read the VM's counters.
	metrics *metrics.Registry
}

// system is one set-up instance of a workload.
type system interface {
	// Offer hands the system one packet.
	Offer(tsNs int64, frame []byte)
	// Settle returns once everything offered so far has been handled (the
	// memory pass measures the heap between packets).
	Settle()
	// Finish flushes end-of-trace state and stops every goroutine the
	// system started.
	Finish() outcome
}

// outcome is what one pass produced.
type outcome struct {
	Offered  uint64
	Handled  uint64 // packets fully processed
	Events   uint64 // script events raised (engines), or accept verdicts (vm-packet)
	LogLines uint64 // log records written, kept or not (engines), or allow decisions (vm-packet)
	// Logs holds the sorted log streams when runOpts.verify was set.
	Logs map[string][]string
	// Problems lists violated invariants the system can see itself
	// (unbalanced ledgers, call errors, reference-verdict mismatches).
	Problems []string
	// Checkpoint is pipeline-full's midpoint checkpoint (verify only).
	Checkpoint []byte
}

func (o *outcome) problemf(format string, args ...any) {
	if len(o.Problems) < 8 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// workload describes one entry of BENCHMARK.json's workload list.
type workload struct {
	Name  string
	Why   string
	Trace traceKind
	// Replays is how many times a pass plays the trace (timestamps shifted
	// forward by the trace's length each time). Only ingress-bare needs
	// more than one: its per-packet cost is so small that one play is over
	// before the clock's resolution stops mattering.
	Replays int
	// Shrink divides the trace's sessions and transactions, for a workload
	// whose pass would otherwise not fit a run (README.md says which and why).
	Shrink int
	// NeedsRules makes the harness generate the seeded classifier table.
	NeedsRules bool
	// Layers names the layers on the workload's path, which the traced run
	// times alone (layers.go).
	Layers []string
	Setup  func(in *inputs, o runOpts) (system, error)
	// Engine is set for the four single-engine workloads; the traced run
	// uses it to reach the engine's own component profilers.
	Engine *engineConfig
}

var (
	stdScripts  = []string{bro.HTTPScript, bro.FilesScript, bro.DNSScript}
	httpScripts = []string{bro.HTTPScript, bro.FilesScript}

	mixedStdInterp = &engineConfig{Parser: "standard", ScriptExec: "interp", Scripts: stdScripts}
	httpPacInterp  = &engineConfig{Parser: "binpac", ScriptExec: "interp", Scripts: httpScripts}
	dnsPacInterp   = &engineConfig{Parser: "binpac", ScriptExec: "interp", Scripts: []string{bro.DNSScript}}
	httpStdHilti   = &engineConfig{Parser: "standard", ScriptExec: "hilti", Scripts: httpScripts}
)

var workloads = []workload{
	{
		Name:  "mixed-std-interp",
		Why:   "native reference path (hand-written parsers, interpreter, no VM): every VM/BinPAC++/glue change must show no change here",
		Trace: traceMerged, Replays: 1, Shrink: 1,
		Engine: mixedStdInterp, Setup: mixedStdInterp.setup,
		Layers: []string{"pcap", "decode", "flowkey", "reassembly", "std-http", "std-dns"},
	},
	{
		Name:  "http-pac-interp",
		Why:   "Fig. 9 HTTP: BinPAC++ parser in the VM as an incremental byte-stream parser (iterators, regexp, fiber suspend per TCP segment)",
		Trace: traceHTTP, Replays: 1, Shrink: 1,
		Engine: httpPacInterp, Setup: httpPacInterp.setup,
		Layers: []string{"pcap", "decode", "flowkey", "reassembly", "std-http", "pac-http", "fiber"},
	},
	{
		Name:  "dns-pac-interp",
		Why:   "Fig. 9 DNS: same VM used per message (struct instantiation, one fiber per datagram, new flow every two packets); largest gap to the paper",
		Trace: traceDNS, Replays: 1, Shrink: 2,
		Engine: dnsPacInterp, Setup: dnsPacInterp.setup,
		Layers: []string{"pcap", "decode", "flowkey", "std-dns", "pac-dns", "fiber"},
	},
	{
		Name:  "http-std-hilti",
		Why:   "Fig. 10: scripts compiled to HILTI plus Val<->HILTI glue with parsing held native; glue-only changes land here and nowhere else",
		Trace: traceHTTP, Replays: 1, Shrink: 1,
		Engine: httpStdHilti, Setup: httpStdHilti.setup,
		Layers: []string{"pcap", "decode", "flowkey", "reassembly", "std-http"},
	},
	{
		Name:  "vm-packet",
		Why:   "bare per-packet VM cost with no engine: HILTI filter through the host stub, then HILTI firewall, runtime tiering on; no fibers, no parsing",
		Trace: traceMerged, Replays: 1, Shrink: 1,
		Setup:  setupVMPacket,
		Layers: []string{"pcap", "vm-stub"},
	},
	{
		Name:  "pipeline-full",
		Why:   "operator's production shape: 2-worker pipeline with rule plane, admission, WAL and a midpoint checkpoint all on the path",
		Trace: traceMerged, Replays: 1, Shrink: 10, NeedsRules: true,
		Setup:  setupPipelineFull,
		Layers: []string{"pcap", "decode", "flowkey", "ingress", "reassembly", "std-http", "std-dns", "wal"},
	},
	{
		Name:  "ingress-bare",
		Why:   "bare forwarding through pipeline.Feed with a no-op handler: the per-packet ingress cost that pipeline-full dilutes is the whole result",
		Trace: traceMerged, Replays: 4, Shrink: 1, NeedsRules: true,
		Setup:  setupIngressBare,
		Layers: []string{"pcap", "flowkey", "ingress"},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- workloads 1-4: one bro.Engine ------------------------------------------

type engineConfig struct {
	Parser, ScriptExec string
	Scripts            []string
}

func (c *engineConfig) broConfig(o runOpts) bro.Config {
	return bro.Config{
		Parser: c.Parser, ScriptExec: c.ScriptExec, Scripts: c.Scripts,
		Quiet: true, DiscardLogs: !o.verify, Metrics: o.metrics,
	}
}

func (c *engineConfig) setup(_ *inputs, o runOpts) (system, error) {
	e, err := bro.NewEngine(c.broConfig(o))
	if err != nil {
		return nil, err
	}
	return &engineSystem{e: e, keep: o.verify}, nil
}

// engineSystem feeds a single engine the way bro-mini does
// (Engine.ProcessTrace): every packet through SafeProcessPacket.
type engineSystem struct {
	e       *bro.Engine
	keep    bool
	offered uint64
}

func (s *engineSystem) Offer(tsNs int64, frame []byte) {
	s.offered++
	s.e.SafeProcessPacket(tsNs, frame)
}

func (s *engineSystem) Settle() {}

func (s *engineSystem) Finish() outcome {
	s.e.Finish()
	st := s.e.StatsSnapshot()
	// Quarantine drops never reach the packet counter; a faulted packet
	// did but was not fully processed.
	out := outcome{
		Offered:  s.offered,
		Handled:  uint64(st.Packets - st.Faults),
		Events:   uint64(st.Events),
		LogLines: s.e.Logs.Written(),
	}
	if st.BudgetBlown > 0 {
		out.problemf("%d events hit an execution budget", st.BudgetBlown)
	}
	if s.keep {
		out.Logs = map[string][]string{}
		for _, stream := range logStreams {
			out.Logs[stream] = bro.SortedLines(s.e, stream)
		}
	}
	return out
}

var logStreams = []string{"http", "files", "dns"}

// --- workload 5: vm-packet ----------------------------------------------------

const (
	// The §6.2 filter of the repository's other benchmarks.
	packetFilter = "host 10.1.9.77 or src net 10.1.3.0/24"
	// The §6.3 rule set: clients in 10.1/16 may reach the resolvers, which
	// opens the reverse direction dynamically; 10.2/16 may not.
	firewallRules = `
10.1.0.0/16   172.20.0.0/16 allow
10.2.0.0/16   172.20.0.0/16 deny
*             172.20.0.5/32 allow
`
	firewallInactivity = 5 * time.Minute
)

type vmPacketSystem struct {
	ex  *vm.Exec
	fw  *firewall.Firewall
	out outcome

	// Reference implementations, consulted per packet when verifying.
	refFilter bpf.Program
	refFW     *firewall.Baseline
}

func setupVMPacket(_ *inputs, o runOpts) (system, error) {
	expr, err := bpf.ParseFilter(packetFilter)
	if err != nil {
		return nil, err
	}
	mod, err := bpf.CompileHILTI(expr)
	if err != nil {
		return nil, err
	}
	prog, err := vm.Link(mod)
	if err != nil {
		return nil, err
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		return nil, err
	}
	ex.EnableOpcodeProfile()
	ex.EnableTiering(0)
	if o.metrics != nil {
		ex.PublishTo(o.metrics, "filter", "exec", "filter")
	}
	rules, err := firewall.ParseRules(strings.NewReader(firewallRules))
	if err != nil {
		return nil, err
	}
	fw, err := firewall.New(rules, firewallInactivity)
	if err != nil {
		return nil, err
	}
	fw.EnableTiering(0)
	s := &vmPacketSystem{ex: ex, fw: fw}
	if o.verify {
		if s.refFilter, err = bpf.CompileBPF(expr); err != nil {
			return nil, err
		}
		s.refFW = firewall.NewBaseline(rules, firewallInactivity)
	}
	return s, nil
}

func (s *vmPacketSystem) Offer(tsNs int64, frame []byte) {
	s.out.Offered++
	v, err := s.ex.Call("Filter::filter", values.BytesFrom(frame))
	if err != nil {
		s.out.problemf("filter: %v", err)
		return
	}
	accept := v.AsBool()
	src, dst, ok := ipv4Addrs(frame)
	if !ok {
		s.out.problemf("packet %d: not IPv4", s.out.Offered)
		return
	}
	allow, err := s.fw.Match(tsNs, src, dst)
	if err != nil {
		s.out.problemf("firewall: %v", err)
		return
	}
	if s.refFW != nil {
		if want := s.refFilter.Run(frame) != 0; want != accept {
			s.out.problemf("packet %d: HILTI filter says %v, BPF says %v", s.out.Offered, accept, want)
			return
		}
		if want := s.refFW.Match(tsNs, src, dst); want != allow {
			s.out.problemf("packet %d: HILTI firewall says %v, baseline says %v", s.out.Offered, allow, want)
			return
		}
	}
	if accept {
		s.out.Events++
	}
	if allow {
		s.out.LogLines++
	}
	s.out.Handled++
}

func (s *vmPacketSystem) Settle() {}

func (s *vmPacketSystem) Finish() outcome { return s.out }

// --- workloads 6 and 7: the pipeline ingress ----------------------------------------

// gateFilter is hosted as a gating program but accepts all generated
// traffic, so it is evaluated for every packet and never drops one.
const gateFilter = "not (src net 192.168.0.0/16 and tcp) and not (udp and dst port 99)"

var classifierRoles = []ruleplane.FieldRole{ruleplane.RoleSrcAddr, ruleplane.RoleDstAddr, ruleplane.RoleDstPort}

// planePrograms lowers the three rule sources onto the rule plane.
func planePrograms(cls *classifier.Classifier) ([]ruleplane.Program, error) {
	clsProg, err := ruleplane.FromClassifier(cls, classifierRoles, "classifier")
	if err != nil {
		return nil, err
	}
	expr, err := bpf.ParseFilter(gateFilter)
	if err != nil {
		return nil, err
	}
	gate, err := bpf.FilterProgram("filter", expr)
	if err != nil {
		return nil, err
	}
	gate.Gate = true
	rules, err := firewall.ParseRules(strings.NewReader(firewallRules))
	if err != nil {
		return nil, err
	}
	return []ruleplane.Program{clsProg, gate, firewall.RulePlaneProgram("firewall", rules)}, nil
}

// newIngress compiles the plane and builds an admission controller whose
// target rate is far above any trace-time rate the generators produce, so
// the health machine runs for every packet and never leaves healthy.
func newIngress(in *inputs) (*ruleplane.Plane, *admission.Controller, error) {
	progs, err := planePrograms(in.cls)
	if err != nil {
		return nil, nil, err
	}
	plane, err := ruleplane.New(progs)
	if err != nil {
		return nil, nil, err
	}
	return plane, admission.NewController(admission.Config{TargetRate: 1e7}), nil
}

// ingressLedger checks the plane's and the controller's books after a
// drain: every offered packet was evaluated, none gated, all admitted.
func ingressLedger(out *outcome, pl *pipeline.Pipeline, adm *admission.Controller) {
	if d := pl.PlaneDropped(); d != 0 {
		out.problemf("rule plane gated %d packets; the gate must accept all generated traffic", d)
	}
	l := adm.LedgerSnapshot()
	if !l.Balanced() {
		out.problemf("admission ledger unbalanced: %+v", l)
	}
	if l.Offered != out.Offered || l.Admitted != out.Handled {
		out.problemf("admission ledger offered %d admitted %d, harness offered %d handled %d",
			l.Offered, l.Admitted, out.Offered, out.Handled)
	}
	if adm.State() != admission.Healthy {
		out.problemf("admission controller left healthy: %v", adm.State())
	}
	if pl.Fed() != out.Offered {
		out.problemf("pipeline fed %d of %d offered", pl.Fed(), out.Offered)
	}
}

// settle waits until the workers have disposed of every packet fed.
func settle(pl *pipeline.Pipeline) {
	for {
		var done uint64
		for _, ws := range pl.Stats() {
			done += ws.Packets + ws.Faults + ws.QuarantineDropped + ws.PacketsRejected + ws.PacketsShed
		}
		if done >= pl.Fed() {
			return
		}
		runtime.Gosched()
	}
}

type pipelineFullSystem struct {
	par      *bro.Parallel
	adm      *admission.Controller
	keep     bool
	midpoint uint64
	out      outcome
}

const pipelineFullWorkers = 2

func pipelineFullConfigs(plane *ruleplane.Plane, adm *admission.Controller, o runOpts) (bro.Config, pipeline.Config) {
	cfg := mixedStdInterp.broConfig(o)
	cfg.RulePlane = plane
	return cfg, pipeline.Config{Workers: pipelineFullWorkers, Admission: adm, WAL: true}
}

func setupPipelineFull(in *inputs, o runOpts) (system, error) {
	plane, adm, err := newIngress(in)
	if err != nil {
		return nil, err
	}
	cfg, pcfg := pipelineFullConfigs(plane, adm, o)
	par, err := bro.NewParallelWith(cfg, pcfg)
	if err != nil {
		return nil, err
	}
	return &pipelineFullSystem{par: par, adm: adm, keep: o.verify, midpoint: uint64(len(in.pkts) / 2)}, nil
}

func (s *pipelineFullSystem) Offer(tsNs int64, frame []byte) {
	if s.out.Offered == s.midpoint {
		var buf bytes.Buffer
		if err := s.par.Checkpoint(&buf); err != nil {
			s.out.problemf("midpoint checkpoint: %v", err)
		}
		if s.keep {
			s.out.Checkpoint = buf.Bytes()
		}
	}
	s.out.Offered++
	if err := s.par.Feed(tsNs, frame); err != nil {
		s.out.problemf("feed: %v", err)
	}
}

func (s *pipelineFullSystem) Settle() { settle(s.par.Pipeline) }

func (s *pipelineFullSystem) Finish() outcome {
	s.par.Close()
	out := s.out
	for _, ws := range s.par.Stats() {
		out.Handled += ws.Packets
	}
	out.Events = uint64(s.par.Events())
	for _, e := range s.par.Engines {
		out.LogLines += e.Logs.Written()
	}
	ingressLedger(&out, s.par.Pipeline, s.adm)
	if r := s.par.Restarts(); r != 0 {
		out.problemf("%d worker restarts", r)
	}
	if s.keep {
		out.Logs = map[string][]string{}
		for _, stream := range logStreams {
			out.Logs[stream] = s.par.MergedLines(stream)
		}
	}
	return out
}

// countingHandler is ingress-bare's application: it counts and returns.
type countingHandler struct{ packets, bytes uint64 }

func (h *countingHandler) ProcessPacket(_ int64, frame []byte) {
	h.packets++
	h.bytes += uint64(len(frame))
}

func (h *countingHandler) Finish() {}

type ingressBareSystem struct {
	pl  *pipeline.Pipeline
	adm *admission.Controller
	h   *countingHandler
	out outcome
}

func setupIngressBare(in *inputs, _ runOpts) (system, error) {
	plane, adm, err := newIngress(in)
	if err != nil {
		return nil, err
	}
	h := &countingHandler{}
	pl, err := pipeline.New(pipeline.Config{
		Workers: 1, Admission: adm, RulePlane: plane,
		NewHandler: func(int) (pipeline.Handler, error) { return h, nil },
	})
	if err != nil {
		return nil, err
	}
	return &ingressBareSystem{pl: pl, adm: adm, h: h}, nil
}

func (s *ingressBareSystem) Offer(tsNs int64, frame []byte) {
	s.out.Offered++
	if err := s.pl.Feed(tsNs, frame); err != nil {
		s.out.problemf("feed: %v", err)
	}
}

func (s *ingressBareSystem) Settle() { settle(s.pl) }

func (s *ingressBareSystem) Finish() outcome {
	s.pl.Close()
	out := s.out
	// Close has joined the worker, so the handler's counters are settled.
	out.Handled = s.h.packets
	out.LogLines = s.h.bytes
	ingressLedger(&out, s.pl, s.adm)
	return out
}
