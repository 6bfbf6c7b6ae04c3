package migrate

import (
	"errors"
	"fmt"

	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/wal"
)

// A migration frame is a WAL segment holding exactly one record: the
// record's kind byte is the frame kind, its CRC-32C covers kind and
// payload, and its payload is one of the messages below. Everything that
// crosses the handoff Transport is one of these frames, and the decoder
// never panics on corrupt input (FuzzMigrationFrameDecode).

// Frame kinds.
const (
	frameBegin    byte = 1 // open a handoff session: id
	frameActivate byte = 2 // install request: id, the slice
	frameAbort    byte = 3 // roll the session back: id
	frameAck      byte = 4 // response: id, status, applied count
)

// Ack statuses.
const (
	ackOK      byte = 0 // accepted / idempotent repeat
	ackNak     byte = 1 // damaged frame: retransmit
	ackRefused byte = 2 // session cannot proceed: abort the handoff
)

var errNoRecord = errors.New("migrate: frame holds no record")

// encodeFrame encodes one frame, filling the payload in place. Only an
// Activate's slice can exceed wal.MaxRecord, the one way it fails.
func encodeFrame(kind byte, fill func(*snapshot.Encoder)) ([]byte, error) {
	w := wal.NewWriter()
	enc := snapshot.NewAppender(w.Begin(kind))
	fill(enc)
	if err := w.Commit(enc.Buffer()); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// parseFrame decodes a frame: its one record's kind and payload. Anything
// after that record — a second one, or stray bytes — is rejected.
func parseFrame(b []byte) (kind byte, payload []byte, err error) {
	r := wal.NewReader(b)
	kind, payload, ok := r.Next()
	if !ok {
		if err := r.Err(); err != nil {
			return 0, nil, err
		}
		return 0, nil, errNoRecord
	}
	if rest := len(b) - r.Offset(); rest != 0 {
		return 0, nil, fmt.Errorf("migrate: %d bytes after the frame's record", rest)
	}
	return kind, payload, nil
}

// activate asks the endpoint to install the slice; the frame's CRC covers it.
type activate struct {
	id    uint64
	slice []byte
}

// ack is the endpoint's response to any request frame.
type ack struct {
	id      uint64
	status  byte
	applied uint32 // flows installed (Activate)
}

// encodeID encodes a Begin or Abort frame, whose payload is the session id.
func encodeID(kind byte, id uint64) []byte {
	f, _ := encodeFrame(kind, func(enc *snapshot.Encoder) { enc.U64(id) }) // fixed size: always fits
	return f
}

func encodeActivate(m activate) ([]byte, error) {
	return encodeFrame(frameActivate, func(enc *snapshot.Encoder) {
		enc.U64(m.id)
		enc.Bytes(m.slice)
	})
}

func encodeAck(m ack) []byte {
	f, _ := encodeFrame(frameAck, func(enc *snapshot.Encoder) { // fixed size: always fits
		enc.U64(m.id)
		enc.U8(m.status)
		enc.U32(m.applied)
	})
	return f
}

// decodeID decodes a Begin or Abort payload.
func decodeID(p []byte) (uint64, error) {
	dec := snapshot.NewRawDecoder(p)
	id := dec.U64()
	return id, payloadErr("id", dec)
}

func decodeActivate(p []byte) (activate, error) {
	dec := snapshot.NewRawDecoder(p)
	m := activate{id: dec.U64(), slice: dec.Bytes()}
	return m, payloadErr("activate", dec)
}

func decodeAck(p []byte) (ack, error) {
	dec := snapshot.NewRawDecoder(p)
	m := ack{id: dec.U64(), status: dec.U8(), applied: dec.U32()}
	return m, payloadErr("ack", dec)
}

func payloadErr(kind string, dec *snapshot.Decoder) error {
	if err := dec.Err(); err != nil {
		return fmt.Errorf("migrate: bad %s payload: %w", kind, err)
	}
	if dec.Remaining() != 0 {
		return fmt.Errorf("migrate: %s payload has %d trailing bytes", kind, dec.Remaining())
	}
	return nil
}
