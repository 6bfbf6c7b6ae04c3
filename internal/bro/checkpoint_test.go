package bro

import (
	"bytes"
	"testing"
)

// TestCheckpointChains: checkpoint → restore → checkpoint again → restore
// again. State that survives one hop but rots on the second (e.g. timer
// re-arming or type identity) shows up here.
func TestCheckpointChains(t *testing.T) {
	pkts := mergedTrace(t)
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}

	baseline, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline.ProcessTrace(pkts)

	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{len(pkts) / 4, len(pkts) / 2, 3 * len(pkts) / 4, len(pkts)}
	prev := 0
	for _, cut := range cuts {
		for i := prev; i < cut; i++ {
			e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
		}
		prev = cut
		if cut == len(pkts) {
			break
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatalf("checkpoint at %d: %v", cut, err)
		}
		if e, err = RestoreEngine(cfg, bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("restore at %d: %v", cut, err)
		}
	}
	e.Finish()
	for _, stream := range []string{"http", "files", "dns"} {
		want := baseline.Logs.Lines(stream)
		got := e.Logs.Lines(stream)
		if len(got) != len(want) {
			t.Fatalf("%s.log: %d lines, want %d", stream, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s.log line %d differs after chained restores", stream, i)
			}
		}
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
