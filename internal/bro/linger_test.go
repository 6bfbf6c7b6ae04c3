package bro

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/layers"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/timer"
)

// lingerConfigs are the engine configurations the linger tests run: both
// parsers, both script backends.
var lingerConfigs = []Config{
	{Parser: "standard", ScriptExec: "interp", Scripts: []string{HTTPScript, FilesScript}, Quiet: true},
	{Parser: "binpac", ScriptExec: "hilti", Scripts: []string{HTTPScript, FilesScript}, Quiet: true},
}

func lingerName(cfg Config) string { return cfg.Parser + "-" + cfg.ScriptExec }

// trailingBare counts the packets of pkts a closed-flow linger drops, by a
// model that knows nothing of streams: a flow closes at the packet that
// brings its second FIN (or an RST), and a later packet of it without
// payload or SYN, less than tcpCloseDelay after, is dropped. A SYN or
// payload starts the flow afresh.
func trailingBare(t *testing.T, pkts []pcap.Packet) int {
	type state struct {
		finOrig, finResp, closed bool
		closedAt                 int64
	}
	flows := map[flow.Key]*state{}
	n := 0
	for _, p := range pkts {
		eth, err := layers.DecodeEthernet(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		ip, err := layers.DecodeIPv4(eth.Payload)
		if err != nil || ip.Protocol != layers.IPProtoTCP {
			continue
		}
		tcp, err := layers.DecodeTCP(ip.Payload)
		if err != nil {
			t.Fatal(err)
		}
		ck, isOrig := flow.FromIPv4(ip.Src, ip.Dst, tcp.SrcPort, tcp.DstPort, layers.IPProtoTCP).Canonical()
		ts := p.Time.UnixNano()
		st := flows[ck]
		bare := len(tcp.Payload) == 0 && tcp.Flags&layers.TCPSyn == 0
		if st != nil && st.closed {
			if bare && ts-st.closedAt < tcpCloseDelay {
				n++
				continue
			}
			st = nil
		}
		if st == nil {
			st = &state{}
			flows[ck] = st
		}
		if tcp.Flags&layers.TCPFin != 0 {
			if isOrig {
				st.finOrig = true
			} else {
				st.finResp = true
			}
		}
		if tcp.Flags&layers.TCPRst != 0 || st.finOrig && st.finResp {
			st.closed, st.closedAt = true, ts
		}
	}
	return n
}

// TestLingerOneConnectionPerSession: over a generated HTTP trace, each
// session opens one connection — its trailing ACK opens none — every
// packet is counted, and bro_tcp_after_close_total is the number of
// packets that arrive bare after their flow closed.
func TestLingerOneConnectionPerSession(t *testing.T) {
	hc := gen.DefaultHTTPConfig()
	hc.Sessions = 200
	pkts := gen.GenerateHTTP(hc)
	want := trailingBare(t, pkts)
	if want != hc.Sessions {
		t.Fatalf("the model finds %d trailing bare packets in %d sessions", want, hc.Sessions)
	}
	for _, cfg := range lingerConfigs {
		t.Run(lingerName(cfg), func(t *testing.T) {
			reg := metrics.NewRegistry()
			cfg.Metrics = reg
			e := mustEngine(t, cfg)
			e.ProcessTrace(pkts)
			for _, c := range []struct {
				name string
				want int
			}{
				{"bro_flows_opened_total", hc.Sessions},
				{"bro_flows_closed_total", hc.Sessions},
				{"bro_packets_total", len(pkts)},
				{"bro_tcp_after_close_total", want},
			} {
				if got := reg.Value(c.name); got != float64(c.want) {
					t.Errorf("%s = %v, want %d", c.name, got, c.want)
				}
			}
		})
	}
}

// oneSession is a generated HTTP session and what a test needs of it: the
// client's and server's addresses and ports, and when it closed.
type oneSession struct {
	pkts                []pcap.Packet // up to the second FIN
	client, server      [4]byte
	clientPort, srvPort uint16
	closedAt            int64 // the second FIN's time
	trailing            []byte
	trailingAt          int64
}

func genSession(t *testing.T) oneSession {
	hc := gen.DefaultHTTPConfig()
	hc.Sessions = 1
	pkts := gen.GenerateHTTP(hc)
	last := pkts[len(pkts)-1]
	eth, _ := layers.DecodeEthernet(last.Data)
	ip, _ := layers.DecodeIPv4(eth.Payload)
	tcp, err := layers.DecodeTCP(ip.Payload)
	if err != nil || len(tcp.Payload) != 0 || tcp.Flags != layers.TCPAck {
		t.Fatalf("the session does not end in a bare ACK (%v, flags %#x)", err, tcp.Flags)
	}
	return oneSession{pkts: pkts[:len(pkts)-1], client: ip.Src, server: ip.Dst,
		clientPort: tcp.SrcPort, srvPort: tcp.DstPort, closedAt: pkts[len(pkts)-2].Time.UnixNano(),
		trailing: last.Data, trailingAt: last.Time.UnixNano()}
}

// frame builds a client-to-server TCP packet of the session's flow.
func (s oneSession) frame(flags uint8, payload string) []byte {
	seg := layers.EncodeTCP(s.client, s.server, s.clientPort, s.srvPort, 7000, 9000, flags, 65535, []byte(payload))
	ip := layers.EncodeIPv4(s.client, s.server, layers.IPProtoTCP, 64, 1, seg)
	return layers.EncodeEthernet([6]byte{}, [6]byte{}, layers.EtherTypeIPv4, ip)
}

// run feeds the session and then the packets after it to a fresh engine.
func (s oneSession) run(t *testing.T, cfg Config, after ...pcap.Packet) *Engine {
	e := mustEngine(t, cfg)
	for _, p := range append(slices.Clone(s.pkts), after...) {
		e.SafeProcessPacket(p.Time.UnixNano(), p.Data)
	}
	return e
}

func at(ns int64, frame []byte) pcap.Packet { return pcap.Packet{Time: time.Unix(0, ns), Data: frame} }

// TestLingerDecisions: what a packet of a just-closed flow does. A bare
// one is counted and dropped; a SYN opens a new connection with a new uid;
// one with payload opens a connection as it did before the linger existed;
// and 5 s of network time after the close the key is forgotten, so a bare
// packet opens a connection again.
func TestLingerDecisions(t *testing.T) {
	s := genSession(t)
	for _, cfg := range lingerConfigs {
		t.Run(lingerName(cfg), func(t *testing.T) {
			counts := func(e *Engine) string {
				opened, _, active := e.FlowCounts()
				return fmt.Sprintf("opened=%d active=%d after_close=%d", opened, active, e.afterClose.Load())
			}
			e := s.run(t, cfg, at(s.trailingAt, s.trailing))
			if got := counts(e); got != "opened=1 active=0 after_close=1" {
				t.Errorf("trailing ACK: %s", got)
			}

			var firstUID string
			e = mustEngine(t, cfg)
			for _, p := range s.pkts {
				e.SafeProcessPacket(p.Time.UnixNano(), p.Data)
				for _, c := range openConns(e) {
					firstUID = c.uid
				}
			}
			e.SafeProcessPacket(s.closedAt+int64(time.Second), s.frame(layers.TCPSyn, ""))
			if got := counts(e); got != "opened=2 active=1 after_close=0" {
				t.Errorf("SYN while lingering: %s", got)
			}
			for _, c := range openConns(e) {
				if c.uid == firstUID {
					t.Errorf("the reopened connection kept uid %s", c.uid)
				}
			}

			e = s.run(t, cfg, at(s.closedAt+int64(time.Second), s.frame(layers.TCPAck|layers.TCPPsh, "late")))
			if got := counts(e); got != "opened=2 active=1 after_close=0" {
				t.Errorf("payload while lingering: %s", got)
			}

			e = s.run(t, cfg, at(s.closedAt+tcpCloseDelay-1, s.frame(layers.TCPAck, "")))
			if got := counts(e); got != "opened=1 active=0 after_close=1" {
				t.Errorf("bare packet 1 ns before the linger ends: %s", got)
			}
			e = s.run(t, cfg, at(s.closedAt+tcpCloseDelay, s.frame(layers.TCPAck, "")))
			if got := counts(e); got != "opened=2 active=1 after_close=0" || e.flows.closed.Len() != 0 {
				t.Errorf("bare packet as the linger ends: %s, %d lingering", got, e.flows.closed.Len())
			}
		})
	}
}

// TestLingerSurvivesCheckpoint: a checkpoint cut at every packet from one
// session's close to the end of a trace that lies inside its linger —
// the next sessions, the trailing ACK, a bare packet of the closed flow
// inside the window and one after it — restores to the decisions of the
// straight run: the same flows opened, the same packets dropped, and logs
// byte-identical. A parked BinPAC++ parse is not encoded (ROADMAP 1a), so
// both rows run the standard parser.
func TestLingerSurvivesCheckpoint(t *testing.T) {
	hc := gen.DefaultHTTPConfig()
	hc.Sessions = 12
	pkts := gen.GenerateHTTP(hc)
	s := genSession(t)
	// The generated sessions share a seed, so the first of pkts is s.
	for i, p := range s.pkts {
		if !bytes.Equal(p.Data, pkts[i].Data) {
			t.Fatalf("packet %d differs from the one-session trace's", i)
		}
	}
	closed := len(s.pkts) // the packets up to its second FIN, the close
	end := pkts[len(pkts)-1].Time.UnixNano()
	if end-s.closedAt >= tcpCloseDelay {
		t.Fatalf("the trace outlasts the first session's linger")
	}
	pkts = append(pkts, at(end+1, s.frame(layers.TCPAck, "")),
		at(s.closedAt+tcpCloseDelay+1, s.frame(layers.TCPAck, "")))
	for _, cfg := range []Config{lingerConfigs[0], {Parser: "standard", ScriptExec: "hilti",
		Scripts: []string{HTTPScript, FilesScript}, Quiet: true}} {
		t.Run(lingerName(cfg), func(t *testing.T) {
			straight := referenceEngine(t, cfg, pkts, len(pkts))
			straight.Finish()
			opened, _, _ := straight.FlowCounts()
			if after := straight.afterClose.Load(); after != uint64(hc.Sessions)+1 || opened != uint64(hc.Sessions)+1 {
				t.Fatalf("straight run: %d dropped, %d opened; want %d and %d", after, opened, hc.Sessions+1, hc.Sessions+1)
			}
			for cut := closed; cut < len(pkts); cut++ {
				live := referenceEngine(t, cfg, pkts, cut)
				if !live.flows.lingers(mustCanonical(s)) {
					t.Fatalf("cut %d: the first session does not linger", cut)
				}
				snap := checkpointBytes(t, live)
				e, err := RestoreEngine(cfg, bytes.NewReader(snap))
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if again := checkpointBytes(t, e); !bytes.Equal(again, snap) {
					t.Fatalf("cut %d: the restored engine checkpoints to other bytes", cut)
				}
				for _, p := range pkts[cut:] {
					e.SafeProcessPacket(p.Time.UnixNano(), p.Data)
				}
				e.Finish()
				got, _, _ := e.FlowCounts()
				if got != opened || e.afterClose.Load() != straight.afterClose.Load() {
					t.Fatalf("cut %d: %d opened, %d dropped; straight %d and %d",
						cut, got, e.afterClose.Load(), opened, straight.afterClose.Load())
				}
				for _, stream := range []string{"http", "files"} {
					if !slices.Equal(e.Logs.Lines(stream), straight.Logs.Lines(stream)) {
						t.Fatalf("cut %d: %s.log differs from the straight run's", cut, stream)
					}
				}
			}
		})
	}
}

func mustCanonical(s oneSession) flow.Key {
	ck, _ := flow.FromIPv4(s.client, s.server, s.clientPort, s.srvPort, layers.IPProtoTCP).Canonical()
	return ck
}

// TestLingerSetRebuiltAnswersAlike: the closed queue rebuilt from its own
// encoding (the linger section, through the codec's encode and decode)
// answers, for every key, whether it lingers like the queue it was rebuilt
// from, and encodes to the same bytes, under any further closes and
// expiries — keys closed again while they linger and network time stepping
// back included.
func TestLingerSetRebuiltAnswersAlike(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make([]flow.Key, 6)
	for i := range keys {
		keys[i], _ = flow.FromIPv4([4]byte{10, 0, 0, byte(i)}, [4]byte{10, 0, 1, 1}, 1000, 80, layers.IPProtoTCP).Canonical()
	}
	encoded := func(ct *connTable) []byte {
		enc := snapshot.NewAppender(nil)
		ct.encodeClosed(enc)
		return enc.Buffer()
	}
	rebuild := func(ct *connTable) *connTable {
		r := makeConnTable()
		if err := r.decodeClosed(snapshot.NewRawDecoder(encoded(ct))); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	// closeFlow opens a connection of k and closes it at now, as closeConn
	// does.
	closeFlow := func(ct *connTable, k flow.Key, now int64) {
		en := &connEntry{LastUse: timer.Time(now), V: conn{key: k, isTCP: true}}
		ct.open(en, false)
		ct.drop(&en.V)
		ct.linger(en.Key(), now, false)
	}
	for round := 0; round < 200; round++ {
		live := makeConnTable()
		now := int64(0)
		var copies []*connTable
		for op := 0; op < 300; op++ {
			now += rng.Int64N(int64(2*time.Second)) - int64(300*time.Millisecond)
			tables := append([]*connTable{&live}, copies...)
			if rng.IntN(3) == 0 {
				for _, ct := range tables {
					ct.forget(now)
				}
			} else {
				k := keys[rng.IntN(len(keys))]
				for _, ct := range tables {
					closeFlow(ct, k, now)
				}
			}
			want := encoded(&live)
			for _, ct := range copies {
				for _, k := range keys {
					if ct.lingers(k) != live.lingers(k) {
						t.Fatalf("round %d, op %d: a rebuilt queue says %v for a key the live one says %v", round, op, ct.lingers(k), live.lingers(k))
					}
				}
				if !bytes.Equal(encoded(ct), want) {
					t.Fatalf("round %d, op %d: a rebuilt queue encodes to other bytes", round, op)
				}
			}
			if rng.IntN(20) == 0 {
				copies = append(copies, rebuild(&live))
			}
		}
	}
}
