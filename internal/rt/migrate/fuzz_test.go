package migrate

import (
	"bytes"
	"testing"

	"hilti/internal/rt/wal"
)

// FuzzMigrationFrameDecode asserts the frame decoder never panics and
// never mis-accepts: whatever parseFrame accepts must re-encode, as a
// one-record WAL segment, to exactly the input, and the endpoint must
// answer anything with a parseable Ack.
func FuzzMigrationFrameDecode(f *testing.F) {
	activateFrame, err := encodeActivate(activate{id: 1, slice: []byte("slice")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeID(frameBegin, 1))
	f.Add(activateFrame)
	f.Add(encodeID(frameAbort, 1))
	f.Add(encodeAck(ack{id: 1, status: ackOK, applied: 7}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	for _, m := range malformedFrames() {
		f.Add(m.frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if kind, payload, err := parseFrame(data); err == nil {
			w := wal.NewWriter()
			if err := w.Append(kind, payload); err != nil || !bytes.Equal(w.Bytes(), data) {
				t.Fatalf("accepted frame does not round-trip (%v)", err)
			}
		}
		// The endpoint must absorb arbitrary frames without panicking
		// and always answer with a parseable Ack.
		ep := NewEndpoint(&memSink{})
		k, p, err := parseFrame(ep.Handle(data))
		if err != nil || k != frameAck {
			t.Fatalf("endpoint response unparseable: %v", err)
		}
		if _, err := decodeAck(p); err != nil {
			t.Fatalf("endpoint ack undecodable: %v", err)
		}
	})
}
