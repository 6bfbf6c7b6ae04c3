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
