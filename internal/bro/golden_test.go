package bro

import (
	"bytes"
	"os"
	"testing"
)

// goldenCheckpoints are snapshots of a short merged-trace run, one per
// script backend, committed as written by an earlier build. The hilti row
// runs TrackScript, so a VM set global is in its file.
var goldenCheckpoints = []struct {
	file string
	cfg  Config
}{
	{"testdata/checkpoint-v5-interp.bin", Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}},
	{"testdata/checkpoint-v5-hilti.bin", Config{Parser: "standard", ScriptExec: "hilti",
		Scripts: []string{HTTPScript, FilesScript, DNSScript, TrackScript}, Quiet: true}},
}

// goldenPackets is how much of mergedTrace the golden files ran: flows
// are open, and HTTP bodies in progress, at the cut.
const goldenPackets = 240

// TestCheckpointGoldensRoundTrip: the snapshot format and its bytes are
// stable. Each committed checkpoint restores and checkpoints again to the
// same bytes, and the same run today encodes to them too.
func TestCheckpointGoldensRoundTrip(t *testing.T) {
	pkts := mergedTrace(t)
	for _, g := range goldenCheckpoints {
		t.Run(g.cfg.ScriptExec, func(t *testing.T) {
			want, err := os.ReadFile(g.file)
			if err != nil {
				t.Fatal(err)
			}
			e, err := RestoreEngine(g.cfg, bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if got := checkpointBytes(t, e); !bytes.Equal(got, want) {
				t.Errorf("restored %s checkpoints to %d bytes, differing from its %d", g.file, len(got), len(want))
			}
			if got := checkpointBytes(t, referenceEngine(t, g.cfg, pkts, goldenPackets)); !bytes.Equal(got, want) {
				t.Errorf("a run of %d packets checkpoints to %d bytes, differing from the %d of %s", goldenPackets, len(got), len(want), g.file)
			}
		})
	}
}
