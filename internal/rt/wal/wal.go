// Package wal implements the append-only write-ahead log behind the
// runtime's incremental checkpoints. Where rt/snapshot captures a full,
// self-contained image of analysis state, the WAL captures what happened
// between images: a record is whatever its writer needs to get from one
// state to the next — for a pipeline shard, the packet it ran, which
// restore runs again — and a checkpoint becomes a periodic full snapshot
// plus the log segments written since. Restore replays the records onto
// the snapshot, landing byte-identically on any record boundary —
// including the boundary just before a crash cut a record in half.
//
// Format. A segment is:
//
//	magic "HWAL" | u16 version | record*
//
// and each record is:
//
//	u32 payload length | u32 CRC-32C over (kind byte ++ payload) | u8 kind | payload
//
// All integers are big-endian, matching rt/snapshot. The kind byte is
// opaque to this package; callers multiplex their own record types.
//
// Robustness contract (same discipline as rt/snapshot): the Reader never
// panics, whatever the input. Every length is bounds-checked against the
// remaining bytes before it is trusted, checksums are verified before a
// payload is surfaced, and errors are sticky. A *truncated or corrupt
// suffix is detected, reported, and never returned as data* — which is
// what makes replay after a mid-write crash safe: the damaged tail is
// dropped cleanly at the last intact record.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Version is the current segment format version.
const Version = 1

var magic = [4]byte{'H', 'W', 'A', 'L'}

// headerSize is magic + u16 version.
const headerSize = 6

// recHeaderSize is u32 length + u32 checksum + u8 kind.
const recHeaderSize = 9

// MaxRecord bounds a single record's payload. A corrupt length prefix
// claiming more than this latches an error instead of driving a huge
// allocation; writers refuse to produce such records in the first place.
const MaxRecord = 1 << 26 // 64 MiB

// DefaultSegmentBytes is the rotation threshold of a Log whose caller did
// not choose one.
const DefaultSegmentBytes = 256 << 10

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on amd64/arm64, the conventional choice for storage framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordCRC is a record's checksum; kindPayload is its kind byte and
// payload, which sit next to each other in a segment.
func recordCRC(kindPayload []byte) uint32 { return crc32.Checksum(kindPayload, castagnoli) }

// Writer appends framed records to one in-memory segment. Errors are
// sticky: after the first failure Append is a no-op returning the cause.
type Writer struct {
	buf  []byte
	recs int
	err  error
}

// NewWriter starts an empty segment with its format header.
func NewWriter() *Writer { return newWriter(0) }

// newWriter is NewWriter with room for size bytes before the segment's
// buffer first has to grow.
func newWriter(size int) *Writer {
	w := &Writer{buf: make([]byte, 0, max(size, 512))}
	w.buf = append(w.buf, magic[:]...)
	w.buf = binary.BigEndian.AppendUint16(w.buf, Version)
	return w
}

// Begin opens a record at the segment's tail, so that its payload is
// written once, in place: the result is the segment with the record's
// header appended, for the caller to append the payload to and hand to
// Commit. The segment itself does not change before Commit — Bytes, Size
// and Records never show an open record, and one that is not committed
// (the payload could not be produced) is simply abandoned.
func (w *Writer) Begin(kind byte) []byte {
	return append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0, kind)
}

// Commit seals the record rec = Begin(kind) ++ payload: it patches the
// length and the checksum into the header and makes rec the segment.
func (w *Writer) Commit(rec []byte) error {
	off := len(w.buf)
	if !w.fits(len(rec) - off - recHeaderSize) {
		return w.err
	}
	binary.BigEndian.PutUint32(rec[off:], uint32(len(rec)-off-recHeaderSize))
	binary.BigEndian.PutUint32(rec[off+4:], recordCRC(rec[off+8:]))
	w.buf = rec
	w.recs++
	return nil
}

// fits reports whether the writer can take a payload of n bytes; if not,
// w.err says why (an oversized payload latches).
func (w *Writer) fits(n int) bool {
	if w.err == nil && n > MaxRecord {
		w.err = fmt.Errorf("wal: record payload %d bytes exceeds limit %d", n, MaxRecord)
	}
	return w.err == nil
}

// Append adds one record. The payload is copied; the caller keeps the
// slice.
func (w *Writer) Append(kind byte, payload []byte) error {
	if !w.fits(len(payload)) { // before the copy
		return w.err
	}
	return w.Commit(append(w.Begin(kind), payload...))
}

// Bytes returns the segment contents. The slice aliases the writer's
// buffer and is only valid until the next Append.
func (w *Writer) Bytes() []byte { return w.buf }

// Size returns the segment size in bytes, header included.
func (w *Writer) Size() int { return len(w.buf) }

// Records returns how many records have been appended.
func (w *Writer) Records() int { return w.recs }

// Err returns the sticky write error, if any.
func (w *Writer) Err() error { return w.err }

// Reader iterates the records of one segment. It never panics on corrupt
// input; damage latches a sticky error and Next returns false.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader positions a reader after seg's header. A bad header latches
// an error immediately (Next will return false and Err the cause).
func NewReader(seg []byte) *Reader {
	r := &Reader{b: seg}
	if len(seg) < headerSize {
		r.fail("wal: truncated segment header (%d bytes)", len(seg))
		return r
	}
	if seg[0] != magic[0] || seg[1] != magic[1] || seg[2] != magic[2] || seg[3] != magic[3] {
		r.fail("wal: bad magic %q", seg[:4])
		return r
	}
	if v := binary.BigEndian.Uint16(seg[4:6]); v != Version {
		r.fail("wal: unsupported version %d (want %d)", v, Version)
		return r
	}
	r.off = headerSize
	return r
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Next returns the next record, or ok=false at clean end-of-segment or on
// damage (distinguish with Err: nil means clean). The payload aliases the
// segment buffer; callers that retain it must copy.
func (r *Reader) Next() (kind byte, payload []byte, ok bool) {
	if r.err != nil {
		return 0, nil, false
	}
	rem := len(r.b) - r.off
	if rem == 0 {
		return 0, nil, false // clean EOF
	}
	if rem < recHeaderSize {
		r.fail("wal: truncated record header at offset %d (%d bytes remain)", r.off, rem)
		return 0, nil, false
	}
	n := int(binary.BigEndian.Uint32(r.b[r.off:]))
	if n > MaxRecord {
		r.fail("wal: record at offset %d claims %d payload bytes (limit %d)", r.off, n, MaxRecord)
		return 0, nil, false
	}
	if n > rem-recHeaderSize {
		r.fail("wal: truncated record at offset %d (need %d payload bytes, have %d)", r.off, n, rem-recHeaderSize)
		return 0, nil, false
	}
	want := binary.BigEndian.Uint32(r.b[r.off+4:])
	kind = r.b[r.off+8]
	payload = r.b[r.off+recHeaderSize : r.off+recHeaderSize+n]
	if got := recordCRC(r.b[r.off+8 : r.off+recHeaderSize+n]); got != want {
		r.fail("wal: checksum mismatch at offset %d (got %08x, want %08x)", r.off, got, want)
		return 0, nil, false
	}
	r.off += recHeaderSize + n
	return kind, payload, true
}

// Err returns nil after a clean end-of-segment, or the damage that stopped
// iteration.
func (r *Reader) Err() error { return r.err }

// Offset returns the byte offset of the next unread record — after a
// damaged tail, the boundary of the last intact record.
func (r *Reader) Offset() int { return r.off }

// Log is a sequence of segments: closed (frozen) segments plus one open
// segment receiving appends. Append rotates to a fresh segment once the
// open one exceeds the configured threshold; Reset truncates everything,
// which is what a checkpoint does after writing a new full snapshot. A log
// is only ever read whole, from its last Reset: Segments hands every
// record to Replay.
type Log struct {
	segBytes int
	done     [][]byte
	cur      *Writer
	recs     int
}

// NewLog creates an empty log rotating segments at segBytes (0 selects
// DefaultSegmentBytes).
func NewLog(segBytes int) *Log {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	return &Log{segBytes: segBytes, cur: NewWriter()}
}

// Append adds one record; the payload is copied.
func (l *Log) Append(kind byte, payload []byte) error {
	if !l.cur.fits(len(payload)) { // before the copy
		return l.cur.err
	}
	return l.Commit(append(l.Begin(kind), payload...))
}

// Begin and Commit are Writer.Begin and Writer.Commit on the open segment:
// the payload is encoded straight onto the segment's tail. Until Commit the
// log is unchanged, so Begin needs no exclusion from a concurrent reader of
// Segments; Commit (like every other mutation) does. A record that is
// begun and not committed leaves no trace — the log never has a hole.
func (l *Log) Begin(kind byte) []byte { return l.cur.Begin(kind) }

// Commit seals the record begun last, rotating once the open segment is
// full.
func (l *Log) Commit(rec []byte) error {
	if err := l.cur.Commit(rec); err != nil {
		return err
	}
	l.recs++
	if l.cur.Size() >= l.segBytes {
		l.Rotate()
	}
	return nil
}

// Rotate freezes the open segment (if it has records) and starts a new
// one, which will grow about as long: it gets that room up front, where
// growing by appends would allocate several times as much.
func (l *Log) Rotate() {
	if l.cur.Records() == 0 {
		return
	}
	l.done = append(l.done, l.cur.Bytes())
	l.cur = newWriter(l.cur.Size())
}

// Reset discards all segments: the log restarts empty, as after a full
// snapshot made every prior record redundant. The open segment's buffer
// starts over in place — Segments only ever hands out copies of it — so a
// log reset at a steady cadence stops allocating.
func (l *Log) Reset() {
	l.done = nil
	l.cur = &Writer{buf: l.cur.buf[:headerSize]}
	l.recs = 0
}

// Segments returns the log's segments in append order. Closed segments
// are shared (they are frozen); the open segment is copied, so the result
// stays valid across later appends.
func (l *Log) Segments() [][]byte {
	out := make([][]byte, 0, len(l.done)+1)
	out = append(out, l.done...)
	if l.cur.Records() > 0 {
		cp := make([]byte, l.cur.Size())
		copy(cp, l.cur.Bytes())
		out = append(out, cp)
	}
	return out
}

// Size returns the total encoded size of all segments in bytes.
func (l *Log) Size() int {
	n := l.cur.Size()
	for _, s := range l.done {
		n += len(s)
	}
	return n
}

// Records returns the total number of records across all segments.
func (l *Log) Records() int { return l.recs }

// Replay iterates every record of segs in order, calling fn for each.
// Damage anywhere — a truncated tail, a checksum mismatch, a bad header —
// stops iteration and returns the error alongside the count of records
// already applied. A non-nil error from fn stops likewise.
func Replay(segs [][]byte, fn func(kind byte, payload []byte) error) (int, error) {
	applied := 0
	for i, seg := range segs {
		r := NewReader(seg)
		for {
			kind, payload, ok := r.Next()
			if !ok {
				break
			}
			if err := fn(kind, payload); err != nil {
				return applied, err
			}
			applied++
		}
		if err := r.Err(); err != nil {
			return applied, fmt.Errorf("wal: segment %d: %w", i, err)
		}
	}
	return applied, nil
}
