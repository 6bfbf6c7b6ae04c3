//go:build !race

package pipeline

import (
	"testing"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
)

// TestFlowTableAllocs: a flow's scheduling state is one object, its table
// entry. Admitting a new flow at the cap, which evicts one, allocates that
// entry and nothing else; refreshing a flow allocates nothing. Skipped
// under -race, whose instrumentation allocates.
func TestFlowTableAllocs(t *testing.T) {
	const flows = 256
	cfg := Config{Workers: 1, MaxFlows: flows}
	p, err := newPipeline(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := p.newWstate(0)
	k := flow.FromIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 5001, 80, layers.IPProtoUDP)
	vid, ts := uint64(0), int64(0)
	admit := func() {
		vid++
		ts += 1000
		p.admitFlow(ws, vid, k, true, ts, 0, false)
	}
	for i := 0; i < 4*flows; i++ { // fill the table and settle its index
		admit()
	}
	if got := testing.AllocsPerRun(1000, admit); got != 1 {
		t.Errorf("admitting a new flow at the cap: %v allocations, want 1", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		ts += 1000
		p.admitFlow(ws, vid, k, true, ts, 0, false)
	}); got != 0 {
		t.Errorf("refreshing a flow: %v allocations, want 0", got)
	}
	if n := ws.flowCount(); n != flows {
		t.Fatalf("%d flows in the table, want the cap %d", n, flows)
	}
}
