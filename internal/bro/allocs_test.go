//go:build !race

package bro

import (
	"runtime"
	"testing"

	"hilti/internal/pkt/gen"
)

// TestCompiledHTTPAllocsPerPacket holds what the http-std-hilti path
// allocates — hand-written HTTP parser, compiled scripts — per packet of a
// generated trace, under a ceiling 10% above its count (3.79 on this
// trace). A count needs no clock: a change that boxes event arguments
// again, or converts the connection per event, shows here on any machine.
// It is skipped under -race, whose instrumentation allocates.
func TestCompiledHTTPAllocsPerPacket(t *testing.T) {
	const ceiling = 4.17
	cfg := gen.DefaultHTTPConfig()
	cfg.Sessions = 200
	pkts := gen.GenerateHTTP(cfg)
	e := mustEngine(t, Config{Parser: "standard", ScriptExec: "hilti",
		Scripts: []string{HTTPScript, FilesScript}, Quiet: true, DiscardLogs: true})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range pkts {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
	}
	e.Finish()
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / float64(len(pkts))
	t.Logf("%d packets, %.2f allocations per packet", len(pkts), per)
	if per > ceiling {
		t.Errorf("%.2f allocations per packet, ceiling %.2f", per, ceiling)
	}
}

// TestForOverTableAllocs: a for over a table snapshots its entries into
// one slice before the body runs, with no object per entry (71 objects
// over 64 entries when each key was boxed into an any).
func TestForOverTableAllocs(t *testing.T) {
	ip, _ := loadInterp(t, `
global seen: table[count] of count;
global sum: count = 0;

event fill(n: count) {
    seen[n] = n;
}

event walk() {
    sum = 0;
    for ( k in seen )
        sum += 1;
}
`)
	const n = 64
	for i := 0; i < n; i++ {
		ip.Dispatch("fill", CountVal(i))
	}
	ip.Dispatch("walk")
	if a := testing.AllocsPerRun(50, func() { ip.Dispatch("walk") }); a > 1 {
		t.Errorf("a for over %d entries allocates %v times, want only the snapshot", n, a)
	}
	if got := ip.Globals["sum"].(CountVal); got != n {
		t.Errorf("the loop ran %d times, want %d", got, n)
	}
}

// TestBinpacParkedBodyAllocs: a BinPAC++ HTTP parse parked in a request body
// resumes on a body-only segment — lent in place, hashed piece by piece,
// trimmed, parked again, settled — without allocating once the Exec's free
// pieces are warm. The segment is one buffer written again between calls,
// as a frame is.
func TestBinpacParkedBodyAllocs(t *testing.T) {
	e := mustEngine(t, Config{Parser: "binpac", ScriptExec: "interp", Scripts: []string{HTTPScript, FilesScript}, Quiet: true})
	head := "POST /up HTTP/1.1\r\nHost: h\r\nContent-Length: 1000000000\r\n\r\n"
	e.SafeProcessPacket(1, tcpDataFrame(cliAddr, srvAddr, 41000, 80, 1000, []byte(head)))
	var c *conn
	for _, c = range e.conns {
	}
	if len(e.conns) != 1 || c.origRun == nil || c.respRun != nil {
		t.Fatal("the request did not start exactly its own direction's parse")
	}
	seg := make([]byte, 1024)
	var fill byte
	deliver := func() {
		for i := range seg {
			fill++
			seg[i] = fill
		}
		e.binpacDeliver(c, true, seg)
	}
	deliver()
	if n := testing.AllocsPerRun(100, deliver); n != 0 {
		t.Fatalf("%v allocations per body segment, want 0", n)
	}
	if c.origDead || c.origRope.Len() != 0 {
		t.Fatalf("after the body segments: parse dead %v, rope holds %d bytes", c.origDead, c.origRope.Len())
	}
}
