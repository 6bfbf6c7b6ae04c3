package bro

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/layers"
	"hilti/internal/pkt/pcap"
)

// openConns lists e's open connections in open order.
func openConns(e *Engine) []*conn {
	var cs []*conn
	e.flows.each(func(c *conn) { cs = append(cs, c) })
	return cs
}

// arpFrame is a frame the engine decodes no flow from: it runs expiry at
// its time and nothing else.
func arpFrame() []byte {
	return layers.EncodeEthernet([6]byte{}, [6]byte{}, 0x0806, make([]byte, 28))
}

// ledger renders e's flow counts, failing when they do not balance.
func ledger(t *testing.T, e *Engine) string {
	t.Helper()
	opened, closed, active := e.FlowCounts()
	if opened != closed+uint64(active) {
		t.Errorf("flow ledger: opened %d != closed %d + active %d", opened, closed, active)
	}
	return fmt.Sprintf("opened=%d closed=%d active=%d", opened, closed, active)
}

// TestInactivityCloseEqualsFinish: a connection that goes idle for longer
// than its protocol's timeout is closed at the next packet as Finish would
// have closed it at the start of the gap — the same log lines, the same
// flow ledger, and the same events raised at its close. One HTTP session
// goes idle mid-body (5 min), one DNS flow after its reply (1 min); both
// parsers, both script backends. A packet 1 ns short of the timeout
// closes nothing.
func TestInactivityCloseEqualsFinish(t *testing.T) {
	hc := gen.DefaultHTTPConfig()
	hc.Sessions = 4
	http := gen.GenerateHTTP(hc)
	probe := mustEngine(t, lingerConfigs[0])
	cut := 0
	for ; cut < len(http) && !bodyInProgress(probe); cut++ {
		probe.SafeProcessPacket(http[cut].Time.UnixNano(), http[cut].Data)
	}
	if cut == len(http) {
		t.Fatal("no packet of the trace leaves a body in progress")
	}
	dc := gen.DefaultDNSConfig()
	dc.Transactions = 1
	dns := gen.GenerateDNS(dc)
	if len(dns) != 2 {
		t.Fatalf("the DNS transaction is %d packets, want a query and its reply", len(dns))
	}
	cases := []struct {
		name    string
		pkts    []pcap.Packet
		timeout int64
	}{
		{"http-mid-body", http[:cut], tcpInactivityTimeout},
		{"dns", dns, udpInactivityTimeout},
	}
	for _, parser := range []string{"standard", "binpac"} {
		for _, scripts := range []string{"interp", "hilti"} {
			cfg := Config{Parser: parser, ScriptExec: scripts, Quiet: true,
				Scripts: []string{HTTPScript, FilesScript, DNSScript}}
			for _, tc := range cases {
				t.Run(parser+"-"+scripts+"/"+tc.name, func(t *testing.T) {
					gapStart := tc.pkts[len(tc.pkts)-1].Time.UnixNano()
					finished := mustEngine(t, cfg)
					feed(finished, tc.pkts)
					finished.Finish()

					idle := mustEngine(t, cfg)
					feed(idle, tc.pkts)
					idle.SafeProcessPacket(gapStart+tc.timeout-1, arpFrame())
					if _, _, active := idle.FlowCounts(); active != 1 {
						t.Fatalf("1 ns before the timeout %d connections are open, want 1", active)
					}
					idle.SafeProcessPacket(gapStart+tc.timeout, arpFrame())
					if got, want := ledger(t, idle), ledger(t, finished); got != want {
						t.Errorf("after the gap: %s; Finish at its start: %s", got, want)
					}
					idle.Finish()
					for _, s := range logStreams {
						if got, want := idle.Logs.Lines(s), finished.Logs.Lines(s); !slices.Equal(got, want) {
							t.Errorf("%s.log: %q after the gap, %q at Finish", s, got, want)
						}
					}
					gs, ws := idle.StatsSnapshot(), finished.StatsSnapshot()
					if gs.Events != ws.Events || gs.ParseErr != ws.ParseErr || gs.Faults != 0 || ws.Faults != 0 {
						t.Errorf("events %d, parse errors %d, faults %d after the gap; %d, %d and %d at Finish",
							gs.Events, gs.ParseErr, gs.Faults, ws.Events, ws.ParseErr, ws.Faults)
					}
				})
			}
		}
	}
}

// idleDNSTrace is a generated DNS trace stretched to span 7 min of network
// time: a new flow every ~100 ms, each transaction a query and, 160 ms
// later on average, its reply.
func idleDNSTrace() []pcap.Packet {
	dc := gen.DefaultDNSConfig()
	dc.Transactions = 2000
	pkts := gen.GenerateDNS(dc)
	start := pkts[0].Time
	for i := range pkts {
		pkts[i].Time = start.Add(pkts[i].Time.Sub(start) * 400)
	}
	return pkts
}

// idleDNSLogs is the digest of the sorted dns.log of idleDNSTrace, as the
// engine wrote it before connections expired by inactivity: no flow of the
// trace is idle for a timeout between two of its packets, so expiry may
// not change a line.
var idleDNSLogs = map[string]string{
	"standard-interp": "fdd7546c81b4dcfccf975112eae4779e361665781873a93b13efe1fc001db057",
	"binpac-hilti":    "7c194d781a684c6e22adeaaa2a28d20e06d342f4bbc45eb2f2d2072adfa606aa",
}

// TestIdleConnectionsBounded: over a DNS trace spanning minutes of network
// time, the open connections are, at every 200th packet, no more than the
// flows opened in the trailing udpInactivityTimeout, plus one — not every
// flow the trace has opened — and the sorted dns.log is what it was before
// connections expired. A checkpoint cut at every packet of one expiry
// window restores to the straight run: the same flow ledger, the same
// afterClose, and byte-identical logs and state a timeout past the window.
func TestIdleConnectionsBounded(t *testing.T) {
	pkts := idleDNSTrace()
	if span := pkts[len(pkts)-1].Time.Sub(pkts[0].Time); span < 5*time.Minute {
		t.Fatalf("the trace spans %v", span)
	}
	last := map[flow.Key]int64{}
	opens := make([]int64, 0, len(pkts)) // when each flow opened
	for _, p := range pkts {
		k, _ := flow.FromFrame(p.Data)
		ck, _ := k.Canonical()
		ts := p.Time.UnixNano()
		if was, ok := last[ck]; !ok {
			opens = append(opens, ts)
		} else if ts-was >= udpInactivityTimeout {
			t.Fatalf("flow %v is idle %v between two packets", ck, time.Duration(ts-was))
		}
		last[ck] = ts
	}
	for _, cfg := range []Config{stdConfig("interp"),
		{Parser: "binpac", ScriptExec: "hilti", Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}} {
		t.Run(lingerName(cfg), func(t *testing.T) {
			e := mustEngine(t, cfg)
			most := 0
			for i, p := range pkts {
				e.SafeProcessPacket(p.Time.UnixNano(), p.Data)
				if i%200 != 199 {
					continue
				}
				now := p.Time.UnixNano()
				recent := 0
				for _, at := range opens {
					if at > now-udpInactivityTimeout && at <= now {
						recent++
					}
				}
				_, _, active := e.FlowCounts()
				if active > recent+1 {
					t.Fatalf("packet %d: %d connections open, %d flows opened in the last %v", i, active, recent, time.Duration(udpInactivityTimeout))
				}
				most = max(most, active)
			}
			e.Finish()
			sum := sha256.Sum256([]byte(strings.Join(SortedLines(e, "dns"), "\n")))
			if got, want := hex.EncodeToString(sum[:]), idleDNSLogs[lingerName(cfg)]; got != want {
				t.Errorf("the sorted dns.log (%d lines) has digest %s, want %s", len(e.Logs.Lines("dns")), got, want)
			}
			if opened, _, _ := e.FlowCounts(); opened != uint64(len(opens)) || most*4 > len(opens) {
				t.Errorf("%d flows opened, %d in the trace; at most %d open at once", opened, len(opens), most)
			}
		})
	}

	// The cuts: every packet from 90 s into the trace for one timeout.
	cfg := stdConfig("interp")
	t0 := pkts[0].Time.UnixNano()
	from := slices.IndexFunc(pkts, func(p pcap.Packet) bool { return p.Time.UnixNano() >= t0+int64(90*time.Second) })
	to := slices.IndexFunc(pkts, func(p pcap.Packet) bool {
		return p.Time.UnixNano() >= pkts[from].Time.UnixNano()+udpInactivityTimeout
	})
	stop := slices.IndexFunc(pkts, func(p pcap.Packet) bool {
		return p.Time.UnixNano() >= pkts[to].Time.UnixNano()+udpInactivityTimeout
	})
	straight := referenceEngine(t, cfg, pkts, stop)
	want, wantSnap := ledger(t, straight), checkpointBytes(t, straight)
	live := referenceEngine(t, cfg, pkts, from)
	for cut := from; cut < to; cut++ {
		e, err := RestoreEngine(cfg, bytes.NewReader(checkpointBytes(t, live)))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		feed(e, pkts[cut:stop])
		if got := ledger(t, e); got != want || e.afterClose.Load() != straight.afterClose.Load() {
			t.Fatalf("cut %d: %s, %d after close; straight %s, %d", cut, got, e.afterClose.Load(), want, straight.afterClose.Load())
		}
		if !slices.Equal(e.Logs.Lines("dns"), straight.Logs.Lines("dns")) {
			t.Fatalf("cut %d: dns.log differs from the straight run's", cut)
		}
		if !bytes.Equal(checkpointBytes(t, e), wantSnap) {
			t.Fatalf("cut %d: the restored engine's state differs from the straight run's", cut)
		}
		live.SafeProcessPacket(pkts[cut].Time.UnixNano(), pkts[cut].Data)
	}
}

// TestConnsWalkInOpenOrder: the open TCP and UDP connections are walked
// together in the order they opened, and a restored engine walks them in
// the same order.
func TestConnsWalkInOpenOrder(t *testing.T) {
	cfg := stdConfig("interp")
	e := mustEngine(t, cfg)
	var cs []*conn
	mixed := false // a TCP connection is open between UDP ones
	hc, dc := gen.DefaultHTTPConfig(), gen.DefaultDNSConfig()
	hc.Sessions, dc.Transactions, hc.Start = 20, 200, dc.Start
	pkts := append(gen.GenerateHTTP(hc), gen.GenerateDNS(dc)...)
	slices.SortStableFunc(pkts, func(a, b pcap.Packet) int { return a.Time.Compare(b.Time) })
	for _, p := range pkts {
		if e.SafeProcessPacket(p.Time.UnixNano(), p.Data); !mixed {
			cs = openConns(e)
			tcp := slices.IndexFunc(cs, func(c *conn) bool { return c.isTCP })
			mixed = tcp > 0 && tcp < len(cs)-1
		}
		if mixed {
			break
		}
	}
	if !mixed || !slices.IsSortedFunc(cs, func(a, b *conn) int { return cmp.Compare(a.ctx, b.ctx) }) {
		t.Fatalf("%d open connections: mixed %v, or not walked in open order", len(cs), mixed)
	}
	r, err := RestoreEngine(cfg, bytes.NewReader(checkpointBytes(t, e)))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.MigratableFlows(), e.MigratableFlows()) {
		t.Fatal("the restored engine walks its connections in another order")
	}
}
