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
