// Spans of the traced run: recorded from this package around its calls
// into each layer, kept in memory, written out when the run ends. Spans
// inside the repository's own code are a later change.

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one interval of work. Parent is the ID of the span that caused
// it, -1 for the run itself; Units is how much work the interval covered
// (packets, segments, bytes — named by the span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Units   int64  `json:"units,omitempty"`
}

// packetSampling is the rate at which per-packet spans are kept: timing
// every packet is cheap, keeping a span for each of half a million is not.
const packetSampling = 16

type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartNs: time.Since(t.origin).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, units int64) {
	t.spans[id].EndNs = time.Since(t.origin).Nanoseconds()
	t.spans[id].Units = units
}

// add records an interval that was timed elsewhere.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) {
	s := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartNs: s, EndNs: s + d.Nanoseconds(), Units: 1})
}

func (t *tracer) save(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc := struct {
		Workload       string `json:"workload"`
		Seed           int64  `json:"seed"`
		PacketSampling int    `json:"packet_span_sampling"`
		Spans          []span `json:"spans"`
	}{workload, seed, packetSampling, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
