// The engine: trace-driven connection management and analyzer dispatch —
// the part of Bro that feeds parsers and routes their events into script
// execution. It supports the full 2x2 of the paper's evaluation:
//
//	parsers: "standard" (hand-written, internal/analyzers)
//	         "binpac"   (BinPAC++ grammars compiled to HILTI)
//	scripts: "interp"   (tree-walking interpreter)
//	         "hilti"    (scripts compiled to HILTI)
//
// Per-component timing (protocol parsing, script execution, HILTI-to-Bro
// glue, other) reproduces Figure 9/10's instrumentation on the engine's
// component clock (clock.go); "other" is the remainder of total time.

package bro

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"hilti/internal/analyzers"
	"hilti/internal/binpac/grammars"
	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/reassembly"
	"hilti/internal/rt/container"
	"hilti/internal/rt/fault"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

// Config selects the engine's parser and script backends.
type Config struct {
	Parser      string // "standard" or "binpac"
	ScriptExec  string // "interp" or "hilti"
	Scripts     []string
	DiscardLogs bool
	Quiet       bool // suppress script print output

	// Limits bounds each top-level invocation of the engine's HILTI
	// program (zero = unlimited): a compiled handler the engine dispatches,
	// or a BinPAC++ parse across all of its resumes. A handler that a
	// parser callback dispatches runs nested in the parse and counts
	// against the parse's budget.
	Limits vm.Limits
	// ReassemblyBudget caps out-of-order reassembly bytes across all of
	// this engine's flows (0 = per-direction bound only).
	ReassemblyBudget int64
	// SharedReassembly, when set, overrides ReassemblyBudget with a budget
	// shared across engines (the parallel pipeline sets this so the cap is
	// global, not per-worker).
	SharedReassembly *reassembly.Budget

	// Fault injection (testing/experiments). Flows touching PanicPort get
	// an analyzer that panics on delivery; flows touching LoopPort get a
	// HILTI analyzer that busy-loops until its instruction budget raises
	// ResourceExhausted; flows touching StallPort get an analyzer that
	// blocks its goroutine forever — the hang the pipeline's supervisor
	// (pipeline.Config.StallTimeout) must detect and recover from.
	PanicPort uint16
	LoopPort  uint16
	StallPort uint16

	// RulePlane, when set, gates packets through the shared match-action
	// automaton (rt/ruleplane) inside ProcessPacket: after the L3/L4
	// decode, before any flow or analyzer state is touched, a packet any
	// gate program rejects is dropped and counted (PlaneDropped). This is
	// the single-engine hosting; the parallel pipeline hoists the plane to
	// its ingress instead (one evaluation per packet, not per worker) and
	// leaves the per-engine field nil.
	RulePlane *ruleplane.Plane

	// Metrics, when set, publishes the engine's counters (flows
	// opened/closed, packets, events, parse errors, faults, log lines),
	// its component clock, any HILTI-program profilers
	// (profiler.start/stop/update), and its VM's execution counters to the
	// registry. Several engines may share one registry; their series sum.
	Metrics *metrics.Registry
	// MetricsKey distinguishes this engine's collector registration (and
	// its "worker" label) when several engines share a registry; the
	// parallel host sets it to the worker index. A restored engine
	// re-registering under the same key replaces its predecessor, which is
	// what keeps counters continuous across crash-only restarts. Default
	// "0".
	MetricsKey string
}

// Stats reports per-component processing time (the Figure 9/10 split) and
// the fault-containment ledger.
type Stats struct {
	Parsing  time.Duration
	Script   time.Duration
	Glue     time.Duration
	Total    time.Duration
	Other    time.Duration
	Packets  int
	Events   int
	ParseErr int

	ClockReads        uint64 // what taking the split cost, in monotonic-clock reads
	Faults            int    // panics contained at engine boundaries
	BudgetBlown       int    // ResourceExhausted raised by budgeted VM work
	Quarantined       int    // flows quarantined by the single-threaded path
	QuarantineDropped int    // packets dropped because their flow was quarantined
}

// Engine processes packets through parsers, events, and scripts.
type Engine struct {
	cfg    Config
	Logs   *LogSet
	interp *Interp
	// ex runs the engine's one linked HILTI program: the BinPAC++ grammars
	// and the compiled scripts (nil when the engine has neither).
	ex       *vm.Exec
	compiled bool // scripts run compiled on ex, not in interp
	glue     *Glue

	clock compClock
	total time.Duration
	// Argument scratch for dispatchNamed; a dispatch from inside a handler
	// nests, appending above the outer event's arguments.
	hargs []values.Value
	vargs []Val
	hooks [numEvents][]*vm.CompiledFunc // compiled backend: each event's handlers

	now   int64
	flows connTable // open connections and lingering closed flows (conns.go)

	// Event/flow counters are atomic (metrics.Counter) so a metrics scrape
	// can read them from another goroutine while the engine runs; the
	// engine itself is still single-threaded. All of them are checkpointed,
	// so counts continue monotonically across a crash-only restore.
	packets     metrics.Counter
	events      metrics.Counter
	parseErrs   metrics.Counter
	flowsOpened metrics.Counter // connections created (TCP + UDP)
	flowsClosed metrics.Counter // connections closed or zapped
	afterClose  metrics.Counter // TCP packets a linger dropped

	faults      *fault.Recorder
	budgetBlown metrics.Counter
	quarantined map[uint64]uint64 // faulted flow hash -> packets dropped since
	quarDropped metrics.Counter
	reasm       *reassembly.Budget
	// stallRelease ends the StallPort analyzer's hang when it closes (nil:
	// the hang never ends).
	stallRelease chan struct{}
	loopExec     *vm.Exec // lazily built LoopPort injection analyzer

	// structs are the linked program's struct definitions by name: what
	// converted and restored values carry (linkedStruct), so that the
	// program's field accesses find them by index.
	structs                                    map[string]*values.StructDef
	httpReqStruct, httpRepStruct, dnsMsgStruct *values.StructDef
	httpReqFn, httpRepFn, dnsParseFn           *vm.CompiledFunc
	httpReqElemFn, httpRepElemFn               *vm.CompiledFunc // one message's parse, recycled
	dnsIx                                      dnsIndex
	// The DNS parse's datagram rope and Message, and the glue's answer and
	// TTL lists: reused for every datagram (binpacDNSPacket).
	dnsRope    *hbytes.Bytes
	dnsSelf    *values.Struct
	dnsAnswers []string
	dnsTTLs    []int64

	// track, when non-nil, is what a patching Rebase needs besides the dirty
	// marks (see state.go). Nil until the engine first re-bases: the tables
	// mark nothing until then, so an engine that never re-bases pays nothing.
	track *tracker
	// outsideSeen is outsideReads as of the last Unreplayable or re-base.
	outsideSeen uint64
	// Flow frames Rebase copied from the previous snapshot, encoded again,
	// and the uids it was told had changed (encoded <= touched); likewise
	// process-local.
	rebaseReused, rebaseEncoded, rebaseTouched metrics.Counter
	globalNames                                []string      // interpGlobalNames' cache
	oneKey                                     []byte        // entriesLabelled's scratch:
	ents                                       []*tableEntry // a label's key string, its entries

	planeVerdicts []int64         // scratch for cfg.RulePlane evaluation
	planeDropped  metrics.Counter // packets a gate program dropped
}

type conn struct {
	en  *connEntry // the entry the connection is the payload of
	key flow.Key   // its first packet's, not the canonical one
	uid string
	// The connection's record, built at its first event in the running
	// backend's form (connRecord, connStruct); recorded says whether it
	// was, start is its start_time. A restore carries only those two.
	rec   *RecordVal
	hrec  *values.Struct
	start int64
	ctx   int64
	// The flags sit together: conn and its table entry fit in 416 bytes.
	recorded               bool
	isTCP                  bool
	started                bool
	closed                 bool
	origSYN                bool
	respSYN                bool
	origDead, respDead     bool // a direction's binpac parse stopped
	origStream, respStream reassembly.Stream

	std *analyzers.HTTPParser

	// binpac per-direction parse state, from the connection's first byte:
	// both ropes at once, and a direction's parse at its own first byte.
	origRope, respRope *hbytes.Bytes
	origRun, respRun   *vm.Resumable
	methods            []string // outstanding request methods (HEAD logic)
}

// NewEngine builds an engine for the configuration.
func NewEngine(cfg Config) (*Engine, error) {
	e := &Engine{
		cfg:         cfg,
		Logs:        NewLogSet(),
		flows:       makeConnTable(),
		faults:      fault.NewRecorder(0),
		quarantined: map[uint64]uint64{},
	}
	if cfg.SharedReassembly != nil {
		// The engine's own share: its refusals are told apart (Unreplayable).
		e.reasm = cfg.SharedReassembly.Share()
	} else if cfg.ReassemblyBudget > 0 {
		e.reasm = reassembly.NewBudget(cfg.ReassemblyBudget)
	}
	if cfg.RulePlane != nil {
		e.planeVerdicts = make([]int64, cfg.RulePlane.NumPrograms())
	}
	e.Logs.Discard = cfg.DiscardLogs
	e.clock.base = time.Now()
	e.glue = NewGlue()

	var parsed []*Script
	for _, src := range cfg.Scripts {
		s, err := ParseScript(src)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, s)
	}

	e.interp = NewInterp()
	e.interp.Now = func() int64 { return e.now }
	e.interp.LogWrite = e.Logs.Write
	if cfg.Quiet {
		e.interp.Out = io.Discard
	}
	// Grammars and compiled scripts link into one program (the paper's
	// linker, §3.4); the interpreter loads the scripts only when it runs them.
	var httpMods, dnsMods, mods []*ast.Module
	if cfg.Parser == "binpac" {
		var err error
		if httpMods, err = grammars.HTTPModules(); err != nil {
			return nil, err
		}
		if dnsMods, err = grammars.DNSModules(); err != nil {
			return nil, err
		}
		mods = append(append(mods, httpMods...), dnsMods...)
	}
	e.compiled = cfg.ScriptExec == "hilti"
	if e.compiled {
		mod, err := CompileScripts(parsed...)
		if err != nil {
			return nil, err
		}
		mods = append(mods, mod)
	} else {
		for _, s := range parsed {
			if err := e.interp.Load(s); err != nil {
				return nil, err
			}
		}
	}

	if len(mods) > 0 {
		prog, err := vm.Link(mods...)
		if err != nil {
			return nil, err
		}
		if e.ex, err = vm.NewExec(prog); err != nil {
			return nil, err
		}
		if cfg.Quiet {
			e.ex.Out = io.Discard
		}
		e.structs = map[string]*values.StructDef{}
		for _, m := range mods {
			for _, t := range m.Types {
				if d := t.StructDef; d != nil && e.structs[d.Name] == nil {
					e.structs[d.Name] = d.Runtime()
				}
			}
		}
		if httpMods != nil {
			e.initBinpac(httpMods, dnsMods)
		}
		if e.compiled {
			RegisterHostFns(e.ex, func() int64 { return e.now }, e.Logs)
			for i, name := range eventNames {
				e.hooks[i] = prog.HookBodies[name]
			}
			if _, err := e.ex.Call("BroScripts::__init_globals"); err != nil {
				return nil, err
			}
		}
		// Every host function is registered: the DNS parse and an HTTP
		// message's may now be decided recycling. A refusal costs
		// allocations, not behaviour.
		for _, fn := range []*vm.CompiledFunc{e.dnsParseFn, e.httpReqElemFn, e.httpRepElemFn} {
			if fn != nil {
				_ = e.ex.Recycle(fn)
			}
		}
		// Budget invocations only; globals init above runs unbounded.
		e.ex.Limits = cfg.Limits
	}
	e.registerMetrics()
	return e, nil
}

func (e *Engine) initBinpac(httpMods, dnsMods []*ast.Module) {
	e.httpReqStruct = findStruct(httpMods, "Requests")
	e.httpRepStruct = findStruct(httpMods, "Replies")
	e.dnsMsgStruct = findStruct(dnsMods, "Message")
	e.dnsIx = newDNSIndex(e.dnsMsgStruct, findStruct(dnsMods, "Question"), findStruct(dnsMods, "RR"))
	e.httpReqFn = e.ex.Prog.Fn("HTTP::parse_Requests")
	e.httpRepFn = e.ex.Prog.Fn("HTTP::parse_Replies")
	e.httpReqElemFn = e.ex.Prog.Fn("HTTP::parse_Requests_elem")
	e.httpRepElemFn = e.ex.Prog.Fn("HTTP::parse_Replies_elem")
	e.dnsParseFn = e.ex.Prog.Fn("DNS::parse_Message")
	e.dnsRope, e.dnsSelf = hbytes.New(), values.NewStruct(e.dnsMsgStruct)
	e.registerBinpacHost()
}

// linkedStruct resolves a restored struct to the linked program's
// definition of its type, or nil when the program has none with its fields.
func (e *Engine) linkedStruct(name string, fields []string) *values.StructDef {
	if d := e.structs[name]; sameFields(d, fields) {
		return d
	}
	return nil
}

func findStruct(mods []*ast.Module, name string) *values.StructDef {
	for _, m := range mods {
		if t, ok := m.Types[name]; ok && t.StructDef != nil {
			return t.StructDef.Runtime()
		}
	}
	return nil
}

// The events the engine raises. Every one but bro_done carries the
// connection's record as its first argument.
type eventID uint8

const (
	evConnectionEstablished eventID = iota
	evHTTPRequest
	evHTTPReply
	evHTTPHeader
	evHTTPBody
	evHTTPMessageDone
	evDNSRequest
	evDNSResponse
	evBroDone
	numEvents
)

var eventNames = [numEvents]string{"connection_established", "http_request", "http_reply",
	"http_header", "http_body", "http_message_done", "dns_request", "dns_response", "bro_done"}

func (e *Engine) dispatch(id eventID, c *conn, args ...values.Value) {
	e.dispatchNamed(eventNames[id], e.hooks[id], c, args)
}

// dispatchNamed routes an event into the configured script backend (bodies:
// its compiled handlers). Compiled handlers take the arguments as they
// are; the interpreter's get each as the Val its handler declares. It is a
// containment boundary: a panic in glue or a handler becomes a recorded
// fault and aborts only this event.
func (e *Engine) dispatchNamed(name string, bodies []*vm.CompiledFunc, c *conn, args []values.Value) {
	e.events.Inc()
	defer e.containEvent(name, len(e.clock.stack), len(e.hargs), len(e.vargs))
	if c != nil && !c.recorded {
		c.recorded, c.start = true, e.now
	}
	if !e.compiled {
		base := len(e.vargs)
		if c != nil {
			e.vargs = append(e.vargs, e.connRecord(c))
		}
		handlers := e.interp.Events[name]
		if len(handlers) > 0 {
			params := handlers[0].Params
			e.vargs = slices.Grow(e.vargs, len(args))
			for _, a := range args {
				var t *TypeExpr
				if i := len(e.vargs) - base; i < len(params) {
					t = params[i].Type
				}
				e.vargs = append(e.vargs, e.glue.scriptVal(a, t))
			}
		}
		e.clock.enter(compScript)
		e.interp.dispatch(name, handlers, e.vargs[base:]) //nolint:errcheck
		e.clock.leave()
		e.vargs = e.vargs[:base]
		return
	}
	base := len(e.hargs)
	if c != nil {
		e.hargs = append(e.hargs, e.connStruct(c))
	}
	e.hargs = append(e.hargs, args...)
	e.clock.enter(compScript)
	for _, body := range bodies {
		// Script errors abort the handler only; a blown execution budget
		// is additionally counted.
		if _, err := e.ex.CallFn(body, e.hargs[base:]...); err != nil {
			if isExhausted(err) {
				e.budgetBlown.Inc()
			}
			break
		}
	}
	e.clock.leave()
	e.hargs = e.hargs[:base]
}

// containEvent is dispatchNamed's deferred recover (no closure, no label
// per event): it puts the clock and the scratch back where the event began.
func (e *Engine) containEvent(name string, depth, hn, vn int) {
	r := recover()
	if r == nil {
		return
	}
	e.clock.truncate(depth)
	e.hargs, e.vargs = e.hargs[:hn], e.vargs[:vn]
	f := fault.FromPanic("event:"+name, r)
	f.TsNs = e.now
	e.faults.Record(f)
}

// isExhausted reports whether err is a ResourceExhausted HILTI exception.
func isExhausted(err error) bool {
	if err == nil {
		return false // before exc is declared: errors.As makes it escape
	}
	var exc *values.Exception
	return errors.As(err, &exc) && exc.Name == vm.ExcResourceExhausted
}

// ProcessTrace runs all packets of a trace through the engine and
// finalizes state.
func (e *Engine) ProcessTrace(pkts []pcap.Packet) *Stats {
	start := time.Now()
	for i := range pkts {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
	}
	e.Finish()
	e.total = time.Since(start)
	return e.StatsSnapshot()
}

// SafeProcessPacket is ProcessPacket behind a containment boundary: a
// panic quarantines the packet's flow (later packets are counted and
// dropped) and discards the flow's state, mirroring what the parallel
// pipeline's per-worker boundary does. ProcessPacket itself stays panicky
// so pipeline-hosted engines are contained exactly once, at the worker.
func (e *Engine) SafeProcessPacket(tsNs int64, frame []byte) {
	key, keyed := flow.FromFrame(frame)
	var vid uint64
	if keyed {
		vid = key.Hash()
	}
	if n, bad := e.quarantined[vid]; bad {
		e.quarantined[vid] = n + 1
		e.quarDropped.Inc()
		return
	}
	f := fault.Catch("packet", func() { e.ProcessPacket(tsNs, frame) })
	if f == nil {
		return
	}
	f.VID, f.TsNs = vid, tsNs
	e.faults.Record(f)
	e.quarantined[vid] = 0
	if keyed {
		if zf := fault.Catch("zap", func() { e.ZapFlow(key) }); zf != nil {
			zf.VID = vid
			e.faults.Record(zf)
		}
	}
}

// ZapFlow hard-drops a flow's connection state without running analyzer
// finalization or raising events — the cleanup path for quarantined flows,
// where normal teardown might re-trip the fault that got them quarantined.
// Satisfies pipeline.FlowZapper.
func (e *Engine) ZapFlow(key flow.Key) {
	c := e.flows.find(key)
	if c == nil {
		return
	}
	c.closed = true
	e.flows.drop(c)
	e.flowsClosed.Inc()
}

// Faults returns the engine's retained fault records, oldest first.
func (e *Engine) Faults() []*fault.Fault { return e.faults.Faults() }

// Reassembly returns the engine's cross-flow reassembly budget, or nil
// when unbounded.
func (e *Engine) Reassembly() *reassembly.Budget { return e.reasm }

// Retire gives back what the engine holds of state shared with other
// engines — the bytes its streams buffer under a SharedReassembly budget —
// for an engine the pipeline has replaced and will not call again
// (pipeline.Retirer). It runs on the engine's own goroutine.
func (e *Engine) Retire() {
	if e.cfg.SharedReassembly != nil {
		e.reasm.Release()
	}
}

// StatsSnapshot returns the component split.
func (e *Engine) StatsSnapshot() *Stats {
	s := &Stats{
		Parsing:  time.Duration(e.clock.ns[compParse]),
		Script:   time.Duration(e.clock.ns[compScript]),
		Glue:     time.Duration(e.clock.ns[compGlue]),
		Total:    e.total,
		Packets:  int(e.packets.Load()),
		Events:   int(e.events.Load()),
		ParseErr: int(e.parseErrs.Load()),

		ClockReads:        e.clock.reads,
		Faults:            int(e.faults.Count()),
		BudgetBlown:       int(e.budgetBlown.Load()),
		Quarantined:       len(e.quarantined),
		QuarantineDropped: int(e.quarDropped.Load()),
	}
	s.Other = s.Total - s.Parsing - s.Script - s.Glue // exclusive components: never negative
	return s
}

// ProcessPacket handles one link-layer frame.
func (e *Engine) ProcessPacket(tsNs int64, frame []byte) {
	e.packets.Inc()
	e.clock.truncate(0)
	e.expire(tsNs)
	e.now = tsNs
	// Expire HILTI-side container state by network time.
	if e.ex != nil {
		e.ex.GlobalTM.Advance(timer.Time(tsNs))
	}
	eth, err := layers.DecodeEthernet(frame)
	if err != nil || eth.EtherType != layers.EtherTypeIPv4 {
		return
	}
	ip, err := layers.DecodeIPv4(eth.Payload)
	if err != nil {
		return
	}
	switch ip.Protocol {
	case layers.IPProtoTCP:
		tcp, err := layers.DecodeTCP(ip.Payload)
		if err != nil {
			return
		}
		if e.planeDrop(ip, tcp.SrcPort, tcp.DstPort) {
			return
		}
		e.tcpPacket(ip, tcp)
	case layers.IPProtoUDP:
		udp, err := layers.DecodeUDP(ip.Payload)
		if err != nil {
			return
		}
		if e.planeDrop(ip, udp.SrcPort, udp.DstPort) {
			return
		}
		e.udpPacket(ip, udp)
	}
}

// planeDrop consults the engine-hosted rule plane (nil-safe): true means
// a gate program rejected the packet, which is dropped before any flow
// state exists for it.
func (e *Engine) planeDrop(ip layers.IPv4, srcPort, dstPort uint16) bool {
	rp := e.cfg.RulePlane
	if rp == nil {
		return false
	}
	h := ruleplane.HeaderFromV4(ip.Src, ip.Dst, ip.Protocol, srcPort, dstPort)
	if _, drop := rp.Eval(&h, e.planeVerdicts); drop {
		e.planeDropped.Inc()
		return true
	}
	return false
}

// PlaneDropped reports how many packets the engine-hosted rule plane
// dropped.
func (e *Engine) PlaneDropped() uint64 { return e.planeDropped.Load() }

// expire closes, stalest first, every connection idle for its protocol's
// timeout at now, a packet's time, before network time moves to it: as
// Finish would have closed them after the packet before. Then it ends the
// lingers past tcpCloseDelay. A fault in an idle connection's teardown is
// that flow's, not the packet's: it is recorded and the connection zapped.
func (e *Engine) expire(now int64) {
	for c := e.flows.idle(now); c != nil; c = e.flows.idle(now) {
		if f := fault.Catch("expire", func() { e.closeConn(c) }); f != nil {
			f.VID, f.TsNs = c.key.Hash(), e.now
			e.faults.Record(f)
		}
		e.ZapFlow(c.key) // still open if its close faulted, now or before
	}
	e.flows.forget(now)
}

// getConn returns the connection of the flow a packet of key belongs to,
// opening one if the flow has none, and whether the packet travels in the
// originator's direction (the connection's key is its first packet's, not
// the canonical one). A bare packet — no payload, no SYN — of a TCP flow
// that has no connection and lingers (conns.go) opens none: getConn
// counts it and returns nil.
func (e *Engine) getConn(key flow.Key, isTCP, bare bool) (*conn, bool) {
	ck, _ := key.Canonical()
	if c := e.flows.find(ck); c != nil {
		e.flows.touch(c, e.now)
		return c, key == c.key
	}
	if bare && e.flows.lingers(ck) {
		e.afterClose.Inc()
		return nil, false
	}
	en := &connEntry{LastUse: timer.Time(e.now), V: conn{key: key, isTCP: isTCP, uid: flow.UID(ck, e.now)}}
	if isTCP && e.reasm != nil {
		en.V.origStream.Budget = e.reasm
		en.V.respStream.Budget = e.reasm
	}
	e.flows.open(en, false)
	e.flowsOpened.Inc()
	return &en.V, true
}

// connRecord returns the connection's record for interpreted handlers.
func (e *Engine) connRecord(c *conn) *RecordVal {
	if c.rec == nil {
		c.rec = e.interp.MakeConn(c.uid, c.key, c.start)
	}
	return c.rec
}

// connStruct returns the connection's record for compiled handlers, built
// once per connection, not per event. Compiled handlers thereby get the
// interpreter's aliasing: all events of a connection see one record, and a
// field one handler stores is there for the next (CompileScripts emits
// struct.set through record parameters, so it cannot promise otherwise).
// Building it is the one conversion a compiled event can pay, charged to
// glue.
func (e *Engine) connStruct(c *conn) values.Value {
	if c.hrec == nil {
		e.clock.enter(compGlue)
		c.hrec = newConnStruct(e.structs, c.uid, c.key, c.start)
		e.clock.leave()
	}
	return values.StructVal(c.hrec)
}

// newConnStruct builds the `connection` struct of the flow uid, whose
// originator's direction is k, of the definitions in structs (the linked
// program's); fields are in CompileScripts' declaration order.
func newConnStruct(structs map[string]*values.StructDef, uid string, k flow.Key, start int64) *values.Struct {
	id := values.NewStruct(structs["conn_id"])
	id.Set(0, k.SrcAddr())
	id.Set(1, values.PortVal(k.SrcPort, k.Proto))
	id.Set(2, k.DstAddr())
	id.Set(3, values.PortVal(k.DstPort, k.Proto))
	c := values.NewStruct(structs["connection"])
	c.Set(0, values.StructVal(id))
	c.Set(1, values.String(uid))
	c.Set(2, values.TimeVal(start))
	return c
}

func (e *Engine) tcpPacket(ip layers.IPv4, tcp layers.TCP) {
	key := flow.FromIPv4(ip.Src, ip.Dst, tcp.SrcPort, tcp.DstPort, layers.IPProtoTCP)
	c, isOrig := e.getConn(key, true, len(tcp.Payload) == 0 && tcp.Flags&layers.TCPSyn == 0)
	if c == nil || c.closed {
		return
	}
	// Handshake tracking: connection_established after SYN / SYN-ACK / ACK.
	if tcp.Flags&layers.TCPSyn != 0 {
		if isOrig {
			c.origSYN = true
			c.origStream.Init(tcp.Seq)
		} else {
			c.respSYN = true
			c.respStream.Init(tcp.Seq)
		}
	}
	if !c.started && c.origSYN && c.respSYN && tcp.Flags&layers.TCPAck != 0 && isOrig {
		c.started = true
		e.dispatch(evConnectionEstablished, c)
	}

	if c.origStream.Deliver == nil {
		e.attachTCPAnalyzer(c)
	}

	stream := &c.respStream
	if isOrig {
		stream = &c.origStream
	}
	e.clock.enter(compParse)
	stream.Segment(tcp.Seq, tcp.Payload, tcp.Flags&layers.TCPFin != 0)
	e.clock.leave()

	if tcp.Flags&layers.TCPRst != 0 || (c.origStream.Closed() && c.respStream.Closed()) {
		e.closeConn(c)
	}
}

func portMatch(key flow.Key, port uint16) bool {
	return port != 0 && (key.DstPort == port || key.SrcPort == port)
}

func (e *Engine) attachTCPAnalyzer(c *conn) {
	isHTTP := c.key.DstPort == 80 || c.key.SrcPort == 80
	// Fault-injection analyzers (experiments only; off when ports are 0).
	// They never shadow a real protocol analyzer: a clean client whose
	// ephemeral source port happens to equal an injection port must still
	// get its HTTP analyzer, or clean-flow logs would diverge.
	if !isHTTP {
		var inject func([]byte)
		switch {
		case portMatch(c.key, e.cfg.PanicPort):
			inject = func([]byte) { panic("injected: analyzer fault (PanicPort)") }
		case portMatch(c.key, e.cfg.LoopPort):
			inject = e.runLoopAnalyzer
		case portMatch(c.key, e.cfg.StallPort):
			// A hang no budget can catch: blocks the worker goroutine
			// until stallRelease closes — never, outside tests. Only the
			// supervisor's wall-clock watchdog helps.
			inject = func([]byte) { <-e.stallRelease }
		}
		if inject != nil {
			c.origStream.Deliver, c.respStream.Deliver = inject, inject
			return
		}
	}
	if e.cfg.Parser == "binpac" && isHTTP {
		e.attachBinpacHTTP(c)
	} else if isHTTP {
		c.std = analyzers.NewHTTPParser(&stdHTTPAdapter{e: e, c: c})
		c.origStream.Deliver = func(d []byte) { c.std.Deliver(true, d) }
		c.respStream.Deliver = func(d []byte) { c.std.Deliver(false, d) }
	} else {
		// No analyzer for this port: sink the data.
		c.origStream.Deliver = func([]byte) {}
		c.respStream.Deliver = func([]byte) {}
	}
}

func (e *Engine) closeConn(c *conn) {
	if c.closed {
		return
	}
	c.closed = true
	c.origStream.Flush()
	c.respStream.Flush()
	e.clock.enter(compParse)
	if c.std != nil {
		c.std.EndOfData(true)
		c.std.EndOfData(false)
	}
	if c.origRope != nil {
		e.finishBinpacDir(c, true)
		e.finishBinpacDir(c, false)
	}
	e.clock.leave()
	e.flows.drop(c)
	if c.isTCP {
		e.flows.linger(c.en.Key(), e.now, false)
	}
	e.flowsClosed.Inc()
}

func (e *Engine) udpPacket(ip layers.IPv4, udp layers.UDP) {
	if udp.SrcPort != 53 && udp.DstPort != 53 {
		return
	}
	key := flow.FromIPv4(ip.Src, ip.Dst, udp.SrcPort, udp.DstPort, layers.IPProtoUDP)
	c, _ := e.getConn(key, false, false)
	c.started = true
	if e.cfg.Parser == "binpac" {
		e.binpacDNSPacket(c, udp.Payload)
		return
	}
	e.clock.enter(compParse)
	msg, err := analyzers.ParseDNS(udp.Payload)
	e.clock.leave()
	if err != nil {
		e.parseErrs.Inc()
		return
	}
	e.dnsEvents(c, msg.Response, int(msg.ID), msg.Query, msg.QType, msg.Rcode, msg.Answers, msg.TTLs)
}

// dnsEvents raises dns_request/dns_response.
func (e *Engine) dnsEvents(c *conn, isResp bool, id int, query string, qtype, rcode int, answers []string, ttls []int64) {
	if !isResp {
		e.dispatch(evDNSRequest, c, values.Int(int64(id)), values.String(query), values.Int(int64(qtype)))
		return
	}
	av, tv := e.dnsLists(answers, ttls)
	e.dispatch(evDNSResponse, c, values.Int(int64(id)), values.Int(int64(rcode)), av, tv)
}

// dnsLists builds dns_response's answer and TTL lists in the running
// backend's form: HILTI vectors for compiled handlers, VectorVals carried
// as Any for interpreted ones. No other argument needs the engine to pick.
func (e *Engine) dnsLists(answers []string, ttls []int64) (av, tv values.Value) {
	if e.compiled {
		a := container.NewVectorSized(values.Nil, len(answers))
		for _, s := range answers {
			a.PushBack(values.String(s))
		}
		t := container.NewVectorSized(values.Nil, len(ttls))
		for _, ttl := range ttls {
			t.PushBack(values.IntervalVal(ttl * 1e9))
		}
		return values.Ref(values.KindVector, a), values.Ref(values.KindVector, t)
	}
	a := &VectorVal{}
	for _, s := range answers {
		a.Elems = append(a.Elems, StringVal(s))
	}
	t := &VectorVal{}
	for _, ttl := range ttls {
		t.Elems = append(t.Elems, IntervalVal(ttl*1e9))
	}
	return values.Any(a), values.Any(t)
}

// Finish closes the open connections, in open order, and raises bro_done.
func (e *Engine) Finish() {
	e.clock.truncate(0)
	e.flows.each(e.closeConn)
	e.dispatch(evBroDone, nil)
	e.clock.publish()
}

// --- standard-parser event adapter ---------------------------------------------

// stdHTTPAdapter converts analyzer callbacks into engine events, as Bro's
// native parsers raise them: no glue. A string argument is a HILTI string
// over the parser's bytes, so it reaches a compiled handler without a copy
// or a box; an interpreted handler's Val boxes it.
type stdHTTPAdapter struct {
	e *Engine
	c *conn
}

func (a *stdHTTPAdapter) Request(method, uri, version string) {
	a.e.dispatch(evHTTPRequest, a.c, values.String(method), values.String(uri), values.String(version))
}

func (a *stdHTTPAdapter) Reply(version string, code int, reason string) {
	a.e.dispatch(evHTTPReply, a.c, values.String(version), values.Int(int64(code)), values.String(reason))
}

func (a *stdHTTPAdapter) Header(isOrig bool, name, value string) {
	a.e.dispatch(evHTTPHeader, a.c, values.Bool(isOrig), values.String(name), values.String(value))
}

func (a *stdHTTPAdapter) Body(isOrig bool, ctype, sum string, n int) {
	a.e.dispatch(evHTTPBody, a.c, values.Bool(isOrig), values.String(ctype), values.String(sum), values.Int(int64(n)))
}

func (a *stdHTTPAdapter) MessageDone(isOrig bool) {
	a.e.dispatch(evHTTPMessageDone, a.c, values.Bool(isOrig))
}

func (a *stdHTTPAdapter) ParseError(isOrig bool, msg string) {
	a.e.parseErrs.Inc()
}

// --- fault-injection loop analyzer ---------------------------------------------

// runLoopAnalyzer models a runaway analyzer on its own execution context:
// a HILTI busy-loop whose instruction budget converts non-termination into
// a counted ResourceExhausted — the governance story end to end — or, for a
// payload starting "RECURSE", unbounded HILTI recursion, which the VM's call
// depth cap converts into Hilti::StackExhausted. The analyzer has no
// handler for that: it faults, and the flow is quarantined like any other
// whose analyzer died.
func (e *Engine) runLoopAnalyzer(d []byte) {
	if e.loopExec == nil && e.initLoopExec() != nil {
		return
	}
	fn := "Faulty::spin"
	if bytes.HasPrefix(d, []byte("RECURSE")) {
		fn = "Faulty::down"
	}
	if _, err := e.loopExec.Call(fn); isExhausted(err) {
		e.budgetBlown.Inc()
	} else if err != nil {
		panic(fmt.Sprintf("injected: analyzer fault (LoopPort): %v", err))
	}
}

func (e *Engine) initLoopExec() error {
	b := ast.NewBuilder("Faulty")
	fb := b.Function("spin", types.VoidT)
	x := fb.Local("x", types.Int64T)
	fb.Jump("loop")
	fb.Block("loop")
	fb.Assign(x, "int.add", x, ast.IntOp(1))
	fb.Jump("loop")
	fd := b.Function("down", types.VoidT)
	fd.Call("down")
	fd.ReturnVoid()
	prog, err := vm.Link(b.M)
	if err != nil {
		return err
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		return err
	}
	lim := e.cfg.Limits
	if lim.Instructions == 0 && lim.Deadline == 0 {
		lim = vm.Limits{Instructions: 100_000}
	}
	ex.Limits = lim
	e.loopExec = ex
	return nil
}

// Packets returns the total number of packets processed (checkpointed, so
// a restored engine reports the count as of its resume point — which is
// how WAL restore tests locate the equivalent trace prefix).
func (e *Engine) Packets() uint64 { return e.packets.Load() }
