package bro

import (
	"bytes"
	"testing"

	"hilti/internal/hilti/vm"
)

// TestCheckpointChains: checkpoint → restore → checkpoint again → restore
// again. State that survives one hop but rots on the second (e.g. timer
// re-arming or type identity) shows up here. The tier-2 row runs compiled
// scripts with every HILTI function eagerly tier-2 specialized, and must
// execute HILTI code after its last restore: promotion must stay invisible
// to capture and restore.
func TestCheckpointChains(t *testing.T) {
	pkts := gateTrace()
	for _, row := range []struct {
		name, backend string
		opt           int
	}{{"interp", "interp", vm.DefaultOptLevel()}, {"hilti-tier2", "hilti", 2}} {
		t.Run(row.name, func(t *testing.T) {
			prev := vm.DefaultOptLevel()
			defer vm.SetDefaultOptLevel(prev)
			vm.SetDefaultOptLevel(row.opt)
			cfg := stdConfig(row.backend)
			baseline := mustEngine(t, cfg)
			baseline.ProcessTrace(pkts)

			e := mustEngine(t, cfg)
			prevCut := 0
			for _, cut := range []int{len(pkts) / 4, len(pkts) / 2, 3 * len(pkts) / 4} {
				feed(e, pkts[prevCut:cut])
				prevCut = cut
				var buf bytes.Buffer
				if err := e.Checkpoint(&buf); err != nil {
					t.Fatalf("checkpoint at %d: %v", cut, err)
				}
				var err error
				if e, err = RestoreEngine(cfg, &buf); err != nil {
					t.Fatalf("restore at %d: %v", cut, err)
				}
			}
			feed(e, pkts[prevCut:])
			e.Finish()
			sameLogs(t, "after chained restores", baseline.Logs.Lines, e.Logs.Lines)
			if row.backend == "hilti" && e.ex.Steps() == 0 {
				t.Error("the restored engine's last HILTI call executed no instruction")
			}
		})
	}
}

// TestRestoreRejectsCorruptInput: arbitrary mutations of a valid
// checkpoint must produce errors, never panics or silently wrong engines
// that crash later.
func TestRestoreRejectsCorruptInput(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pkts)/2; i++ {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Truncations at every 97th boundary (cheap full sweep).
	for n := 0; n < len(data); n += 97 {
		if _, err := RestoreEngine(cfg, bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Single-byte corruptions sprinkled through the buffer. Some flips only
	// alter payload bytes (log text, literal values) and legitimately
	// decode; the requirement is no panic and no decode past the end.
	for pos := 0; pos < len(data); pos += 131 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0xFF
		_, _ = RestoreEngine(cfg, bytes.NewReader(mut))
	}
}

// TestCheckpointRestoreMismatch: restoring under a different backend
// configuration must fail loudly, not mis-decode.
func TestCheckpointRestoreMismatch(t *testing.T) {
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{DNSScript}, Quiet: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.ScriptExec = "hilti"
	if _, err := RestoreEngine(other, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("backend mismatch accepted")
	}
}
