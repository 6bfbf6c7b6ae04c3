// The traced run: the same workload with a clock around every packet, then
// each layer on the workload's path timed alone, through its public calls,
// on inputs captured from the workload's own trace. A layer that is not on
// a workload's path reports 0 there. README.md has the table of which
// layer metric should move which end-to-end metric on which workload.

package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"hilti/internal/analyzers"
	"hilti/internal/binpac/grammars"
	"hilti/internal/bpf"
	"hilti/internal/bro"
	"hilti/internal/firewall"
	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/reassembly"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/fiber"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/values"
)

// perLayer lists every per-layer metric, in BENCHMARK.json's order.
var perLayer = []metricDef{
	{"bench.untraced_pkts_per_s", "packets/s"},
	{"bench.traced_pkts_per_s", "packets/s"},
	{"bench.trace_overhead_share", "fraction"},
	{"bench.accounted_share", "fraction"},
	{"pcap.read_ns_per_pkt", "ns/packet"},
	{"layers.decode_ns_per_pkt", "ns/packet"},
	{"layers.decode_allocs_per_pkt", "allocs/packet"},
	{"flow.key_ns_per_pkt", "ns/packet"},
	{"flow.key_allocs_per_pkt", "allocs/packet"},
	{"ruleplane.eval_ns_per_pkt", "ns/packet"},
	{"ruleplane.compile_ms", "ms"},
	{"admission.offer_ns_per_pkt", "ns/packet"},
	{"pipeline.feed_ns_per_pkt", "ns/packet"},
	{"pipeline.feed_allocs_per_pkt", "allocs/packet"},
	{"pipeline.feed_p99_us", "us"},
	{"pipeline.copied_bytes_per_pkt", "B/packet"},
	{"pipeline.queue_highwater", "count"},
	{"pipeline.feed_share_of_e2e", "fraction"},
	{"pipeline.ingress_share_of_e2e", "fraction"},
	{"reassembly.ns_per_segment", "ns/segment"},
	{"reassembly.allocs_per_segment", "allocs/segment"},
	{"analyzers.http_ns_per_byte", "ns/B"},
	{"analyzers.http_allocs_per_chunk", "allocs/chunk"},
	{"analyzers.dns_ns_per_msg", "ns/msg"},
	{"analyzers.dns_allocs_per_msg", "allocs/msg"},
	{"binpac.http_ns_per_byte", "ns/B"},
	{"binpac.http_allocs_per_chunk", "allocs/chunk"},
	{"binpac.dns_ns_per_msg", "ns/msg"},
	{"binpac.dns_allocs_per_msg", "allocs/msg"},
	{"binpac.over_std_http", "ratio"},
	{"binpac.over_std_dns", "ratio"},
	{"binpac.share_of_e2e", "fraction"},
	{"vm.instrs_per_pkt", "instrs/packet"},
	{"vm.ns_per_instr", "ns/instr"},
	{"vm.stub_allocs_per_call", "allocs/call"},
	{"fiber.switch_ns", "ns"},
	{"fiber.suspends_per_msg", "count/msg"},
	{"bro.parse_share", "fraction"},
	{"bro.script_share", "fraction"},
	{"bro.glue_share", "fraction"},
	{"bro.other_share", "fraction"},
	{"bro.ns_per_event", "ns/event"},
	{"bro.pkt_p99_us", "us"},
	{"bro.log_mismatch_share", "fraction"},
	{"bro.checkpoint_ms", "ms"},
	{"bro.checkpoint_bytes", "B"},
	{"bro.restore_ms", "ms"},
	{"bro.wal_bytes_per_pkt", "B/packet"},
	{"bro.wal_append_ns_per_pkt", "ns/packet"},
}

// sink keeps the compiler from discarding calls timed for their cost only.
var sink uint64

// meter accumulates the time and allocations between start and stop, so a
// layer can leave its own preparation out of what it is charged.
type meter struct {
	ns      int64
	mallocs uint64
	t0      time.Time
	m0      uint64
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (m *meter) start() { m.m0, m.t0 = mallocs(), time.Now() }

func (m *meter) stop() {
	m.ns += time.Since(m.t0).Nanoseconds()
	m.mallocs += mallocs() - m.m0
}

// cost is a layer's price per unit of its work.
type cost struct{ ns, allocs float64 }

// traced is the state of one traced run.
type traced struct {
	r     *run
	tr    *tracer
	root  int
	slice time.Duration // how long each layer is timed alone
	cap   *capture
	m     map[string]float64
}

// timeLayer runs body once to warm up and then until the slice is used,
// one span per iteration, and returns the cost per unit.
func (t *traced) timeLayer(name string, units int64, body func(m *meter)) cost {
	body(&meter{})
	var m meter
	iters := int64(0)
	for start := time.Now(); iters == 0 || time.Since(start) < t.slice; iters++ {
		id := t.tr.start("layer:"+name, t.root)
		body(&m)
		t.tr.end(id, units)
	}
	n := float64(iters * units)
	return cost{ns: float64(m.ns) / n, allocs: float64(m.mallocs) / n}
}

// --- inputs captured from the workload's trace ----------------------------------------

type tcpSegment struct {
	conn     int
	orig     bool
	seq      uint32
	payload  []byte
	syn, fin bool
}

type streamChunk struct {
	conn int
	orig bool
	data []byte
}

// capture is what each layer is fed: the frames as they are, and what the
// layers before it make of them.
type capture struct {
	frames     [][]byte
	tsNs       []int64
	keys       []flow.Key
	headers    []ruleplane.Header
	segments   []tcpSegment // every TCP packet, in trace order
	conns      int
	chunks     []streamChunk // in-order stream data, as reassembly delivers it
	chunkBytes int64
	dns        [][]byte // UDP port-53 payloads
	messages   int      // HTTP requests and replies plus DNS messages on the wire
}

func captureInputs(r *run) *capture {
	c := &capture{tsNs: r.tsNs}
	connOf := map[flow.Key]int{}
	origOf := []flow.Key{}
	type dir struct{ orig, resp reassembly.Stream }
	var streams []*dir
	for _, p := range r.in.pkts {
		c.frames = append(c.frames, p.Data)
		key, ok := flow.FromFrame(p.Data)
		if !ok {
			continue
		}
		c.keys = append(c.keys, key)
		c.headers = append(c.headers, ruleplane.HeaderFrom16(key.SrcIP, key.DstIP, key.Proto, key.SrcPort, key.DstPort))
		eth, err := layers.DecodeEthernet(p.Data)
		if err != nil {
			continue
		}
		ip, err := layers.DecodeIPv4(eth.Payload)
		if err != nil {
			continue
		}
		switch ip.Protocol {
		case layers.IPProtoUDP:
			if udp, err := layers.DecodeUDP(ip.Payload); err == nil && (udp.SrcPort == 53 || udp.DstPort == 53) {
				c.dns = append(c.dns, udp.Payload)
			}
		case layers.IPProtoTCP:
			tcp, err := layers.DecodeTCP(ip.Payload)
			if err != nil {
				continue
			}
			ck, _ := key.Canonical()
			id, seen := connOf[ck]
			if !seen {
				id = len(origOf)
				connOf[ck] = id
				origOf = append(origOf, key)
				d := &dir{}
				d.orig.Deliver = func(b []byte) {
					c.chunks = append(c.chunks, streamChunk{id, true, append([]byte(nil), b...)})
				}
				d.resp.Deliver = func(b []byte) {
					c.chunks = append(c.chunks, streamChunk{id, false, append([]byte(nil), b...)})
				}
				streams = append(streams, d)
			}
			seg := tcpSegment{conn: id, orig: key == origOf[id], seq: tcp.Seq, payload: tcp.Payload,
				syn: tcp.Flags&layers.TCPSyn != 0, fin: tcp.Flags&layers.TCPFin != 0}
			c.segments = append(c.segments, seg)
			s := &streams[id].resp
			if seg.orig {
				s = &streams[id].orig
			}
			if seg.syn {
				s.Init(seg.seq)
			}
			s.Segment(seg.seq, seg.payload, seg.fin)
		}
	}
	for _, d := range streams {
		d.orig.Flush()
		d.resp.Flush()
	}
	c.conns = len(streams)
	for _, ch := range c.chunks {
		c.chunkBytes += int64(len(ch.data))
	}
	c.messages = r.in.info.HTTPRequests + r.in.info.HTTPReplies + len(c.dns)
	return c
}

// --- the layers, each alone --------------------------------------------------------

func (t *traced) layerPcap() error {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 1)
	if err != nil {
		return err
	}
	for _, p := range t.r.in.pkts {
		if err := w.Write(p.Time, p.Data); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var readErr error
	c := t.timeLayer("pcap.read", int64(len(t.cap.frames)), func(m *meter) {
		m.start()
		rd, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
		for err == nil {
			var p pcap.Packet
			if p, err = rd.Next(); err == nil {
				sink += uint64(len(p.Data))
			}
		}
		m.stop()
		if err != io.EOF {
			readErr = err
		}
	})
	t.m["pcap.read_ns_per_pkt"] = c.ns
	return readErr
}

func (t *traced) layerDecode() cost {
	c := t.timeLayer("layers.decode", int64(len(t.cap.frames)), func(m *meter) {
		m.start()
		for _, f := range t.cap.frames {
			eth, err := layers.DecodeEthernet(f)
			if err != nil {
				continue
			}
			ip, err := layers.DecodeIPv4(eth.Payload)
			if err != nil {
				continue
			}
			switch ip.Protocol {
			case layers.IPProtoTCP:
				if tcp, err := layers.DecodeTCP(ip.Payload); err == nil {
					sink += uint64(tcp.Seq)
				}
			case layers.IPProtoUDP:
				if udp, err := layers.DecodeUDP(ip.Payload); err == nil {
					sink += uint64(udp.SrcPort)
				}
			}
		}
		m.stop()
	})
	t.m["layers.decode_ns_per_pkt"], t.m["layers.decode_allocs_per_pkt"] = c.ns, c.allocs
	return c
}

func (t *traced) layerFlowKey() cost {
	c := t.timeLayer("flow.key", int64(len(t.cap.frames)), func(m *meter) {
		m.start()
		for _, f := range t.cap.frames {
			if k, ok := flow.FromFrame(f); ok {
				sink += k.Hash()
			}
		}
		m.stop()
	})
	t.m["flow.key_ns_per_pkt"], t.m["flow.key_allocs_per_pkt"] = c.ns, c.allocs
	return c
}

func (t *traced) layerRulePlane() (cost, error) {
	progs, err := planePrograms(t.r.in.cls)
	if err != nil {
		return cost{}, err
	}
	var compiles []float64
	var plane *ruleplane.Plane
	for i := 0; i < 5; i++ {
		start := time.Now()
		if plane, err = ruleplane.New(progs); err != nil {
			return cost{}, err
		}
		compiles = append(compiles, float64(time.Since(start).Nanoseconds())/1e6)
	}
	t.m["ruleplane.compile_ms"] = median(compiles)
	verdicts := make([]int64, plane.NumPrograms())
	c := t.timeLayer("ruleplane.eval", int64(len(t.cap.headers)), func(m *meter) {
		m.start()
		for i := range t.cap.headers {
			seq, _ := plane.Eval(&t.cap.headers[i], verdicts)
			sink += seq
		}
		m.stop()
	})
	t.m["ruleplane.eval_ns_per_pkt"] = c.ns
	return c, nil
}

func (t *traced) layerAdmission() cost {
	c := t.timeLayer("admission.offer", int64(len(t.cap.keys)), func(m *meter) {
		// A controller per iteration: its clock is trace time, which must
		// not run backwards.
		adm := admission.NewController(admission.Config{TargetRate: 1e7})
		m.start()
		for i, k := range t.cap.keys {
			if adm.Offer(t.cap.tsNs[i], k, true).Drop {
				sink++
			}
		}
		m.stop()
	})
	t.m["admission.offer_ns_per_pkt"] = c.ns
	return c
}

// layerFeed times pipeline.Feed with the plane, the controller and a no-op
// handler behind it, and charges Feed what is left after the flow key, the
// plane and the controller have been paid for at their own prices. It
// returns the whole call's cost.
func (t *traced) layerFeed(key, plane, adm cost) (cost, error) {
	var lat []int64
	var copied, handled uint64
	var highwater int
	var setupErr error
	feedAll := func(m *meter, each bool) {
		sys, err := setupIngressBare(t.r.in, runOpts{})
		if err != nil {
			setupErr = err
			return
		}
		s := sys.(*ingressBareSystem)
		m.start()
		for i, f := range t.cap.frames {
			if each {
				t0 := time.Now()
				s.Offer(t.cap.tsNs[i], f)
				lat = append(lat, time.Since(t0).Nanoseconds())
			} else {
				s.Offer(t.cap.tsNs[i], f)
			}
		}
		m.stop()
		s.Finish()
		for _, ws := range s.pl.Stats() {
			copied += ws.CopiedBytes
			handled += ws.Packets
			highwater = max(highwater, ws.HighWater)
		}
	}
	lat = make([]int64, 0, len(t.cap.frames))
	feedAll(&meter{}, true)
	c := t.timeLayer("pipeline.feed", int64(len(t.cap.frames)), func(m *meter) { feedAll(m, false) })
	t.m["pipeline.feed_ns_per_pkt"] = max(0, c.ns-key.ns-plane.ns-adm.ns)
	t.m["pipeline.feed_allocs_per_pkt"] = c.allocs
	t.m["pipeline.feed_p99_us"] = float64(percentile(lat, 0.99)) / 1e3
	if handled > 0 {
		t.m["pipeline.copied_bytes_per_pkt"] = float64(copied) / float64(handled)
	}
	t.m["pipeline.queue_highwater"] = float64(highwater)
	return c, setupErr
}

func (t *traced) layerReassembly() cost {
	c := t.timeLayer("reassembly.segment", int64(len(t.cap.segments)), func(m *meter) {
		streams := make([][2]reassembly.Stream, t.cap.conns)
		for i := range streams {
			streams[i][0].Deliver = func(b []byte) { sink += uint64(len(b)) }
			streams[i][1].Deliver = streams[i][0].Deliver
		}
		m.start()
		for i := range t.cap.segments {
			seg := &t.cap.segments[i]
			s := &streams[seg.conn][1]
			if seg.orig {
				s = &streams[seg.conn][0]
			}
			if seg.syn {
				s.Init(seg.seq)
			}
			s.Segment(seg.seq, seg.payload, seg.fin)
		}
		m.stop()
	})
	t.m["reassembly.ns_per_segment"], t.m["reassembly.allocs_per_segment"] = c.ns, c.allocs
	return c
}

// discardHTTP receives the hand-written HTTP parser's events and drops them.
type discardHTTP struct{}

func (discardHTTP) Request(method, uri, version string)            {}
func (discardHTTP) Reply(version string, code int, reason string)  {}
func (discardHTTP) Header(isOrig bool, name, value string)         {}
func (discardHTTP) Body(isOrig bool, ctype, sha1hex string, n int) {}
func (discardHTTP) MessageDone(isOrig bool)                        {}
func (discardHTTP) ParseError(isOrig bool, msg string)             {}

// layerStdHTTP returns ns per byte and allocations per chunk.
func (t *traced) layerStdHTTP() cost {
	if len(t.cap.chunks) == 0 {
		return cost{}
	}
	c := t.timeLayer("analyzers.http", t.cap.chunkBytes, func(m *meter) {
		m.start()
		parsers := make([]*analyzers.HTTPParser, t.cap.conns)
		for _, ch := range t.cap.chunks {
			if parsers[ch.conn] == nil {
				parsers[ch.conn] = analyzers.NewHTTPParser(discardHTTP{})
			}
			parsers[ch.conn].Deliver(ch.orig, ch.data)
		}
		for _, p := range parsers {
			if p != nil {
				p.EndOfData(true)
				p.EndOfData(false)
			}
		}
		m.stop()
	})
	c.allocs *= float64(t.cap.chunkBytes) / float64(len(t.cap.chunks))
	t.m["analyzers.http_ns_per_byte"], t.m["analyzers.http_allocs_per_chunk"] = c.ns, c.allocs
	return c
}

func (t *traced) layerStdDNS() cost {
	if len(t.cap.dns) == 0 {
		return cost{}
	}
	c := t.timeLayer("analyzers.dns", int64(len(t.cap.dns)), func(m *meter) {
		m.start()
		for _, payload := range t.cap.dns {
			if msg, err := analyzers.ParseDNS(payload); err == nil {
				sink += uint64(msg.ID)
			}
		}
		m.stop()
	})
	t.m["analyzers.dns_ns_per_msg"], t.m["analyzers.dns_allocs_per_msg"] = c.ns, c.allocs
	return c
}

func runtimeStruct(mods []*ast.Module, name string) *values.StructDef {
	for _, m := range mods {
		if ty, ok := m.Types[name]; ok && ty.StructDef != nil {
			return ty.StructDef.Runtime()
		}
	}
	return nil
}

// pacExec links both grammars the way the engine does and registers host
// hooks that drop every event. bro_http_pick_body is the one hook with a
// job: a reply parser cannot know that it answers a HEAD request, so the
// host remembers the methods per connection, as the engine does.
func pacExec() (ex *vm.Exec, httpMods, dnsMods []*ast.Module, err error) {
	if httpMods, err = grammars.HTTPModules(); err != nil {
		return
	}
	if dnsMods, err = grammars.DNSModules(); err != nil {
		return
	}
	prog, err := vm.Link(append(append([]*ast.Module(nil), httpMods...), dnsMods...)...)
	if err != nil {
		return
	}
	if ex, err = vm.NewExec(prog); err != nil {
		return
	}
	methods := map[int64][]string{}
	drop := func(_ *vm.Exec, _ []values.Value) (values.Value, error) { return values.Nil, nil }
	for _, name := range []string{"bro_http_reply", "bro_http_header", "bro_http_body", "bro_http_message_done", "bro_dns_message"} {
		ex.RegisterHost(name, drop)
	}
	ex.RegisterHost("bro_http_request", func(_ *vm.Exec, args []values.Value) (values.Value, error) {
		if b := args[1].AsBytes(); b != nil {
			methods[args[0].AsInt()] = append(methods[args[0].AsInt()], b.String())
		}
		return values.Nil, nil
	})
	ex.RegisterHost("bro_http_pick_body", func(_ *vm.Exec, args []values.Value) (values.Value, error) {
		ctx, status, kind := args[0].AsInt(), args[1].AsInt(), args[2].AsInt()
		isHead := false
		if q := methods[ctx]; len(q) > 0 {
			isHead = q[0] == "HEAD"
			methods[ctx] = q[1:]
		}
		if isHead || status == 304 || status == 204 || (status >= 100 && status < 200) {
			return values.Int(grammars.BodyNone), nil
		}
		return values.Int(kind), nil
	})
	return
}

// layerPacHTTP drives the generated HTTP parser over the same chunks:
// one rope and one fiber per direction, resumed per chunk.
func (t *traced) layerPacHTTP() (cost, error) {
	if len(t.cap.chunks) == 0 {
		return cost{}, nil
	}
	type side struct {
		rope *hbytes.Bytes
		run  *vm.Resumable
		dead bool
	}
	var linkErr error
	c := t.timeLayer("binpac.http", t.cap.chunkBytes, func(m *meter) {
		ex, httpMods, _, err := pacExec()
		if err != nil {
			linkErr = err
			return
		}
		reqDef, repDef := runtimeStruct(httpMods, "Requests"), runtimeStruct(httpMods, "Replies")
		reqFn, repFn := ex.Prog.Fn("HTTP::parse_Requests"), ex.Prog.Fn("HTTP::parse_Replies")
		m.start()
		conns := make([]*[2]side, t.cap.conns)
		for _, ch := range t.cap.chunks {
			if conns[ch.conn] == nil {
				ctx := values.Int(int64(ch.conn))
				pair := &[2]side{{rope: hbytes.New()}, {rope: hbytes.New()}}
				pair[0].run = ex.FiberCall(reqFn, values.StructVal(values.NewStruct(reqDef)), values.IterBytes(pair[0].rope.Begin()), ctx)
				pair[1].run = ex.FiberCall(repFn, values.StructVal(values.NewStruct(repDef)), values.IterBytes(pair[1].rope.Begin()), ctx)
				conns[ch.conn] = pair
			}
			s := &conns[ch.conn][1]
			if ch.orig {
				s = &conns[ch.conn][0]
			}
			if s.dead {
				continue
			}
			s.rope.Append(ch.data)
			if _, done, _ := s.run.Resume(); done {
				s.dead = true
			}
		}
		for _, pair := range conns {
			if pair == nil {
				continue
			}
			for i := range pair {
				if s := &pair[i]; !s.dead {
					s.rope.Freeze()
					if _, done, _ := s.run.Resume(); !done {
						s.run.Abort()
					}
				}
			}
		}
		m.stop()
	})
	c.allocs *= float64(t.cap.chunkBytes) / float64(len(t.cap.chunks))
	t.m["binpac.http_ns_per_byte"], t.m["binpac.http_allocs_per_chunk"] = c.ns, c.allocs
	return c, linkErr
}

// layerPacDNS drives the generated DNS parser the way the engine does: a
// rope, a struct and a fiber per datagram.
func (t *traced) layerPacDNS() (cost, error) {
	if len(t.cap.dns) == 0 {
		return cost{}, nil
	}
	var linkErr error
	c := t.timeLayer("binpac.dns", int64(len(t.cap.dns)), func(m *meter) {
		ex, _, dnsMods, err := pacExec()
		if err != nil {
			linkErr = err
			return
		}
		def := runtimeStruct(dnsMods, "Message")
		fn := ex.Prog.Fn("DNS::parse_Message")
		m.start()
		for i, payload := range t.cap.dns {
			rope := hbytes.New()
			rope.AppendOwned(payload)
			rope.Freeze()
			run := ex.FiberCall(fn, values.StructVal(values.NewStruct(def)), values.IterBytes(rope.Begin()), values.Int(int64(i)))
			for done := false; !done; {
				_, done, _ = run.Resume()
			}
		}
		m.stop()
	})
	t.m["binpac.dns_ns_per_msg"], t.m["binpac.dns_allocs_per_msg"] = c.ns, c.allocs
	return c, linkErr
}

func (t *traced) layerFiberSwitch() {
	const switches = 100_000
	f := fiber.New(func(f *fiber.Fiber, _ any) (any, error) {
		for {
			f.Yield(nil)
		}
	})
	f.Resume(nil) //nolint:errcheck // parks at the first Yield
	c := t.timeLayer("fiber.switch", switches, func(m *meter) {
		m.start()
		for i := 0; i < switches; i++ {
			f.Resume(nil) //nolint:errcheck
		}
		m.stop()
	})
	f.Abort()
	t.m["fiber.switch_ns"] = c.ns
}

// layerStub prices the host stub: the allocations Exec.Call with a boxed
// frame makes beyond a direct CallFn on a reused rope.
func (t *traced) layerStub() error {
	expr, err := bpf.ParseFilter(packetFilter)
	if err != nil {
		return err
	}
	mod, err := bpf.CompileHILTI(expr)
	if err != nil {
		return err
	}
	prog, err := vm.Link(mod)
	if err != nil {
		return err
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		return err
	}
	n := int64(len(t.cap.frames))
	stub := t.timeLayer("vm.call_stub", n, func(m *meter) {
		m.start()
		for _, f := range t.cap.frames {
			if v, err := ex.Call("Filter::filter", values.BytesFrom(f)); err == nil && v.AsBool() {
				sink++
			}
		}
		m.stop()
	})
	fn, rope := prog.Fn("Filter::filter"), hbytes.New()
	direct := t.timeLayer("vm.call_direct", n, func(m *meter) {
		m.start()
		for _, f := range t.cap.frames {
			rope.Reset(f)
			if v, err := ex.CallFn(fn, values.BytesVal(rope)); err == nil && v.AsBool() {
				sink++
			}
		}
		m.stop()
	})
	t.m["vm.stub_allocs_per_call"] = stub.allocs - direct.allocs
	return nil
}

// firewallInstrs counts the instructions the firewall executes per packet
// on a twin built from firewall.Compile: firewall.New keeps its Exec to
// itself, and instruction counts do not depend on which of the two runs.
func (t *traced) firewallInstrs() (uint64, error) {
	rules, err := firewall.ParseRules(strings.NewReader(firewallRules))
	if err != nil {
		return 0, err
	}
	mod, err := firewall.Compile(rules, firewallInactivity)
	if err != nil {
		return 0, err
	}
	prog, err := vm.Link(mod)
	if err != nil {
		return 0, err
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		return 0, err
	}
	met := ex.AttachMetrics()
	ex.EnableOpcodeProfile()
	ex.EnableTiering(0)
	if _, err := ex.Call("Firewall::init_classifier"); err != nil {
		return 0, err
	}
	met.Sync()
	before := met.Instructions.Load()
	fn := prog.Fn("Firewall::match_packet")
	for i, f := range t.cap.frames {
		if src, dst, ok := ipv4Addrs(f); ok {
			ex.CallFn(fn, values.TimeVal(t.cap.tsNs[i]), src, dst) //nolint:errcheck // counted, not checked: vm-packet's oracle checks decisions
		}
	}
	met.Sync()
	return met.Instructions.Load() - before, nil
}

// layerWAL prices the engine's three serialisations on the native path: a
// delta after every packet (re-based every 256, the pipeline's default), a
// full checkpoint at the midpoint, and a restore from it.
func (t *traced) layerWAL() error {
	e, err := bro.NewEngine(mixedStdInterp.broConfig(runOpts{}))
	if err != nil {
		return err
	}
	if err := e.ResetDeltaBase(); err != nil {
		return err
	}
	id := t.tr.start("layer:bro.wal", t.root)
	var wal meter
	var walBytes int
	n := len(t.cap.frames)
	for i, f := range t.cap.frames {
		e.ProcessPacket(t.cap.tsNs[i], f)
		t0 := time.Now()
		delta, err := e.AppendDelta()
		wal.ns += time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		walBytes += len(delta)
		if (i+1)%256 == 0 {
			if err := e.ResetDeltaBase(); err != nil {
				return err
			}
		}
		if i+1 == n/2 {
			var buf bytes.Buffer
			t0 := time.Now()
			if err := e.Checkpoint(&buf); err != nil {
				return err
			}
			d := time.Since(t0)
			t.tr.add("layer:bro.checkpoint", id, t0, d)
			t.m["bro.checkpoint_ms"] = float64(d.Nanoseconds()) / 1e6
			t.m["bro.checkpoint_bytes"] = float64(buf.Len())
			t0 = time.Now()
			if _, err := bro.RestoreEngine(mixedStdInterp.broConfig(runOpts{}), bytes.NewReader(buf.Bytes())); err != nil {
				return err
			}
			d = time.Since(t0)
			t.tr.add("layer:bro.restore", id, t0, d)
			t.m["bro.restore_ms"] = float64(d.Nanoseconds()) / 1e6
		}
	}
	e.Finish()
	t.tr.end(id, int64(n))
	t.m["bro.wal_bytes_per_pkt"] = float64(walBytes) / float64(n)
	t.m["bro.wal_append_ns_per_pkt"] = float64(wal.ns) / float64(n)
	return nil
}

func percentile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

// --- the traced run -----------------------------------------------------------------

// tracedPass is timedPass with a clock around every packet and, for the
// first pass, a span for one packet in packetSampling.
func (t *traced) tracedPass(reg *metrics.Registry, keepSpans bool) (wall time.Duration, lat []int64, sys system, out outcome, err error) {
	setupID := t.tr.start("setup", t.root)
	sys, err = t.r.setup(runOpts{metrics: reg})
	t.tr.end(setupID, 1)
	if err != nil {
		return
	}
	lat = make([]int64, 0, t.r.packetsPerPass())
	passID := t.tr.start("pass", t.root)
	start := time.Now()
	t.r.play(func(n int, tsNs int64, frame []byte) {
		t0 := time.Now()
		sys.Offer(tsNs, frame)
		d := time.Since(t0)
		lat = append(lat, d.Nanoseconds())
		if keepSpans && n%packetSampling == 0 {
			t.tr.add("packet", passID, t0, d)
		}
	})
	finishID := t.tr.start("finish", passID)
	out = sys.Finish()
	t.tr.end(finishID, 1)
	wall = time.Since(start)
	t.tr.end(passID, int64(out.Offered))
	return
}

func sumPrefix(snap map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range snap {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// runTraced produces every per-layer metric for one workload.
func runTraced(w *workload, opt options) (*result, error) {
	r, err := newRun(w, opt.seed, opt.scale)
	if err != nil {
		return nil, err
	}
	res := r.newResult(opt, true)
	verified, v, err := r.verifiedPass(res)
	if err != nil {
		return nil, err
	}
	t := &traced{r: r, tr: newTracer(), m: map[string]float64{}}
	t.root = t.tr.start("run:"+w.Name, -1)
	t.m["bro.log_mismatch_share"] = v.MismatchShare

	// Half the time goes to passes, untraced and traced in turn so that the
	// machine's mood falls on both alike; the other half to the layers alone.
	budget := time.Duration(opt.seconds * float64(time.Second))
	var untraced, rates []float64
	var lat []int64
	var wall time.Duration
	var sys system
	var reg *metrics.Registry
	for start := time.Now(); len(rates) == 0 || time.Since(start) < budget/2; {
		ps, out, err := r.timedPass(runOpts{})
		if err != nil {
			return nil, err
		}
		r.account(res, verified, out)
		untraced = append(untraced, float64(out.Offered)/ps.Wall.Seconds())

		reg = metrics.NewRegistry()
		if wall, lat, sys, out, err = t.tracedPass(reg, len(rates) == 0); err != nil {
			return nil, err
		}
		r.account(res, verified, out)
		rates = append(rates, float64(out.Offered)/wall.Seconds())
	}
	res.Passes = len(rates)
	res.RawPktsPerSQuartiles = quartiles(rates)
	t.m["bench.untraced_pkts_per_s"] = median(untraced)
	t.m["bench.traced_pkts_per_s"] = median(rates)
	t.m["bench.trace_overhead_share"] = 1 - median(rates)/median(untraced)
	// What one packet costs end to end, tracing off: the denominator of
	// every "share of e2e" below.
	e2eNs := 1e9 / median(untraced)
	packets := float64(r.packetsPerPass())

	t.cap = captureInputs(r)
	layerNames := w.Layers
	t.slice = budget / 2 / time.Duration(len(layerNames)+1)
	on := map[string]bool{}
	for _, l := range layerNames {
		on[l] = true
	}

	// From the last traced pass itself: the engine's own component
	// profilers and the VM's counters.
	snap := reg.Snapshot()
	vmInstrs := sumPrefix(snap, "hilti_vm_instructions_total")
	vmSuspends := sumPrefix(snap, "hilti_vm_fiber_suspends_total")
	var vmNs float64
	if es, ok := sys.(*engineSystem); ok {
		st := es.e.StatsSnapshot()
		total := float64(wall.Nanoseconds())
		t.m["bro.parse_share"] = float64(st.Parsing.Nanoseconds()) / total
		t.m["bro.script_share"] = float64(st.Script.Nanoseconds()) / total
		t.m["bro.glue_share"] = float64(st.Glue.Nanoseconds()) / total
		t.m["bro.other_share"] = max(0, 1-t.m["bro.parse_share"]-t.m["bro.script_share"]-t.m["bro.glue_share"])
		if st.Events > 0 {
			t.m["bro.ns_per_event"] = float64(st.Script.Nanoseconds()) / float64(st.Events)
		}
		t.m["bro.pkt_p99_us"] = float64(percentile(lat, 0.99)) / 1e3
		if w.Engine.Parser == "binpac" {
			vmNs += float64(st.Parsing.Nanoseconds())
		}
		if w.Engine.ScriptExec == "hilti" {
			vmNs += float64(st.Script.Nanoseconds())
		}
	}

	var decode, key, reasm, stdHTTP, stdDNS cost
	if on["pcap"] {
		if err := t.layerPcap(); err != nil {
			return nil, err
		}
	}
	if on["decode"] {
		decode = t.layerDecode()
	}
	if on["flowkey"] {
		key = t.layerFlowKey()
	}
	if on["ingress"] {
		plane, err := t.layerRulePlane()
		if err != nil {
			return nil, err
		}
		feed, err := t.layerFeed(key, plane, t.layerAdmission())
		if err != nil {
			return nil, err
		}
		t.m["pipeline.feed_share_of_e2e"] = t.m["pipeline.feed_ns_per_pkt"] / e2eNs
		t.m["pipeline.ingress_share_of_e2e"] = feed.ns / e2eNs
	}
	if on["reassembly"] {
		reasm = t.layerReassembly()
	}
	if on["std-http"] {
		stdHTTP = t.layerStdHTTP()
	}
	if on["std-dns"] {
		stdDNS = t.layerStdDNS()
	}
	if on["pac-http"] {
		pac, err := t.layerPacHTTP()
		if err != nil {
			return nil, err
		}
		t.m["binpac.over_std_http"] = pac.ns / stdHTTP.ns
		t.m["binpac.share_of_e2e"] = pac.ns * float64(t.cap.chunkBytes) / packets / e2eNs
	}
	if on["pac-dns"] {
		pac, err := t.layerPacDNS()
		if err != nil {
			return nil, err
		}
		t.m["binpac.over_std_dns"] = pac.ns / stdDNS.ns
		t.m["binpac.share_of_e2e"] = pac.ns * float64(len(t.cap.dns)) / packets / e2eNs
	}
	if on["fiber"] {
		t.layerFiberSwitch()
		if t.cap.messages > 0 {
			t.m["fiber.suspends_per_msg"] = vmSuspends / float64(t.cap.messages)
		}
	}
	if on["vm-stub"] {
		if err := t.layerStub(); err != nil {
			return nil, err
		}
		fw, err := t.firewallInstrs()
		if err != nil {
			return nil, err
		}
		vmInstrs += float64(fw)
		vmNs = float64(wall.Nanoseconds())
	}
	if on["wal"] {
		if err := t.layerWAL(); err != nil {
			return nil, err
		}
	}
	t.m["vm.instrs_per_pkt"] = vmInstrs / packets
	if vmInstrs > 0 {
		t.m["vm.ns_per_instr"] = vmNs / vmInstrs
	}
	if w.Engine == mixedStdInterp {
		// The layers priced alone, times how often the pass uses them,
		// plus the script time the engine's own profiler saw, over what
		// a packet costs end to end.
		alone := (decode.ns+key.ns)*float64(len(t.cap.frames)) +
			reasm.ns*float64(len(t.cap.segments)) +
			stdHTTP.ns*float64(t.cap.chunkBytes) +
			stdDNS.ns*float64(len(t.cap.dns))
		t.m["bench.accounted_share"] = (alone/packets + t.m["bro.script_share"]*e2eNs) / e2eNs
	}

	t.tr.end(t.root, int64(res.Attempted))
	path, err := t.tr.save(opt.outDir, w.Name, opt.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s (%d spans, 1 packet span in %d)\n", path, len(t.tr.spans), packetSampling)
	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{Value: t.m[d.Name], Unit: d.Unit}
	}
	res.finish()
	return res, nil
}
