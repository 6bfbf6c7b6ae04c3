// Package snapshot implements the versioned binary codec behind the
// runtime's checkpoint/restore support (crash-only operation). The paper's
// core argument for an abstract execution environment is that analysis
// state lives in *first-class, explicitly typed* runtime values — which is
// exactly what makes transparent state management (serialization,
// migration, resumption) possible where hand-written analyzers, with state
// scattered through ad-hoc heap structures, cannot offer it.
//
// The format is deliberately simple: a fixed header (magic + version),
// then a caller-defined sequence of length-prefixed primitives. Scalars
// are big-endian and mirror the canonical keyed encoding of
// values.AppendKey, so a value's snapshot form and its container-key form
// agree wherever both exist. Container elements carry their last-use
// timestamps and timers re-encode relative to virtual time, letting a
// restore arm expiration exactly where the checkpoint left it.
//
// Robustness contract: the Decoder never panics, whatever the input. Every
// read is bounds-checked against the remaining buffer, every collection
// count is validated against the bytes that could possibly back it (so a
// corrupt length claim cannot drive unbounded allocation), and recursion
// is depth-limited. Errors are sticky: after the first failure all reads
// return zero values and Err() reports the cause, so restore code can
// decode a whole section and check once.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"io"

	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

// Version is the current snapshot format version. Version 2 brought the
// section/flow-frame engine-state layout (bro/state.go) and the single
// snapshot+segments shard blob (pkt/pipeline); version 3 put the packet-fate
// ledger into pipeline checkpoints (feeder-side counts up front, each
// shard's tally in Fate order, the fate as the WAL outcome byte); version 4
// carries an HTTP body in progress as its SHA-1 digest state, length and
// head bytes instead of the body received so far (bro/statecodec.go);
// version 5 writes one exec section, because an engine's grammars and
// compiled scripts are one linked program (bro/state.go); version 6 adds
// the engine's closed-connection linger and its counter; version 7 carries
// each connection's last-packet time, which its inactivity timeout runs
// from (bro/conns.go). Streams of an older version are rejected by the
// header check.
const Version = 7

// MaxDepth bounds value-tree recursion in both directions.
const MaxDepth = 64

var magic = [4]byte{'H', 'S', 'N', 'P'}

// headerSize is magic + u16 version.
const headerSize = 6

// Encoder writes the snapshot byte stream, either to an io.Writer or — as
// an appender (NewAppender) — onto a byte slice it hands back with Buffer.
// Errors are sticky: the first write failure latches and subsequent calls
// are no-ops, so callers encode a full section and check Err once. An
// appender cannot fail to write; only Fail latches an error there.
type Encoder struct {
	w    io.Writer // nil for an appender
	buf  []byte    // an appender's stream so far; else what w has not been given yet
	open int       // regions begun and not ended: while any is, w gets nothing
	err  error
}

// NewEncoder starts a snapshot stream on w, writing the format header.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: w}
	e.Header()
	return e
}

// NewRawEncoder starts a header-less stream on w, for sub-streams embedded
// inside an already-versioned container — e.g. the per-record payloads of a
// WAL segment, whose framing and versioning the wal package provides. Pair
// with NewRawDecoder; the primitive wire forms are identical.
func NewRawEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// NewAppender starts a header-less stream that appends to buf (which may
// be nil, or another stream's bytes so far: nothing below len(buf) is
// touched).
func NewAppender(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Reset points an appender at buf and clears its error, so one encoder
// serves many records.
func (e *Encoder) Reset(buf []byte) { e.buf, e.open, e.err = buf, 0, nil }

// Buffer returns an appender's stream: the slice it was given plus
// everything encoded since.
func (e *Encoder) Buffer() []byte { return e.buf }

// Len returns the length of an appender's stream.
func (e *Encoder) Len() int { return len(e.buf) }

// Header writes the format header NewEncoder opens a stream with, for a
// versioned stream embedded in another.
func (e *Encoder) Header() {
	e.Raw(magic[:])
	e.U16(Version)
}

// Begin opens a region behind a u32 prefix that is not known yet — what
// Bytes writes, for content encoded in place instead of copied in. It
// reserves the prefix and returns the mark that End, or EndCount, needs to
// fill it in. Regions nest; a writer receives a region once it has ended.
func (e *Encoder) Begin() int {
	e.open++
	e.U32(0)
	return len(e.buf)
}

// End closes the region begun at mark: its prefix becomes the number of
// bytes encoded since.
func (e *Encoder) End(mark int) { e.EndCount(mark, len(e.buf)-mark) }

// EndCount closes the region begun at mark with a prefix of n, for a
// region that opens with the count of what follows rather than its length.
func (e *Encoder) EndCount(mark, n int) {
	binary.BigEndian.PutUint32(e.buf[mark-4:], uint32(n))
	e.open--
	e.flush()
}

// Err returns the first error encountered, if any.
func (e *Encoder) Err() error { return e.err }

// flush hands what has been appended to buf on to the writer, if there is
// one and no region is open (kept apart from drain so that it inlines).
func (e *Encoder) flush() {
	if e.w != nil && e.open == 0 {
		e.drain()
	}
}

func (e *Encoder) drain() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// U8 writes one byte.
func (e *Encoder) U8(v byte) { e.buf = append(e.buf, v); e.flush() }

// U16 writes a big-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v); e.flush() }

// U32 writes a big-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v); e.flush() }

// U64 writes a big-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v); e.flush() }

// I64 writes a big-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bool writes a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes writes a u32 length prefix followed by the raw bytes.
func (e *Encoder) Bytes(b []byte) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(b)))
	e.Raw(b)
}

// String writes a u32 length prefix followed by the raw string bytes.
func (e *Encoder) String(s string) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(s)))
	e.buf = append(e.buf, s...)
	e.flush()
}

// Raw appends pre-encoded bytes verbatim, with no length prefix — for
// splicing an already-encoded sub-stream (see NewRawEncoder) whose framing
// the caller has written itself.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...); e.flush() }

// Fail latches an explicit encoding error (e.g. an unserializable value
// discovered mid-section).
func (e *Encoder) Fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// Option configures a Decoder.
type Option func(*Decoder)

// WithTimerMgr supplies the timer manager that restored containers attach
// their element expiration to. Without it, expiry configuration is dropped
// on decode (elements restore, but no longer time out).
func WithTimerMgr(m *timer.Mgr) Option {
	return func(d *Decoder) { d.mgr = m }
}

// WithStructs supplies a resolver mapping a struct type name and field
// list to a canonical *values.StructDef. Without it (or when the resolver
// returns nil) the decoder rebuilds an anonymous definition with the
// serialized field names, which preserves name-indexed field access.
func WithStructs(resolve func(name string, fields []string) *values.StructDef) Option {
	return func(d *Decoder) { d.structs = resolve }
}

// WithEnums supplies a resolver for enum type definitions by name. Without
// it, decoded enums keep their numeric value under a label-less type.
func WithEnums(resolve func(name string) *values.EnumType) Option {
	return func(d *Decoder) { d.enums = resolve }
}

// Decoder reads a snapshot byte stream from a fully materialized buffer.
// All reads are bounds-checked and errors are sticky; the Decoder never
// panics on corrupt input.
type Decoder struct {
	b   []byte
	off int
	err error

	mgr     *timer.Mgr
	structs func(name string, fields []string) *values.StructDef
	enums   func(name string) *values.EnumType
}

// NewDecoder validates the header of data and positions the decoder after
// it. A bad header latches an error immediately.
func NewDecoder(data []byte, opts ...Option) *Decoder {
	d := &Decoder{b: data}
	for _, o := range opts {
		o(d)
	}
	if len(data) < headerSize {
		d.fail("snapshot: truncated header (%d bytes)", len(data))
		return d
	}
	if data[0] != magic[0] || data[1] != magic[1] || data[2] != magic[2] || data[3] != magic[3] {
		d.fail("snapshot: bad magic %q", data[:4])
		return d
	}
	d.off = 4
	if v := d.U16(); d.err == nil && v != Version {
		d.fail("snapshot: unsupported version %d (want %d)", v, Version)
	}
	return d
}

// NewRawDecoder positions a decoder at the start of data with no header
// expected — the counterpart of NewRawEncoder for embedded sub-streams.
// The same robustness contract applies: bounds-checked, sticky errors,
// never panics.
func NewRawDecoder(data []byte, opts ...Option) *Decoder {
	d := &Decoder{b: data}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int {
	if d.off > len(d.b) {
		return 0
	}
	return len(d.b) - d.off
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Fail latches an explicit decode error (e.g. a semantic validation
// failure discovered by the caller mid-section).
func (d *Decoder) Fail(format string, args ...any) { d.fail(format, args...) }

// take returns the next n bytes, or nil after latching a bounds error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.fail("snapshot: truncated input (need %d bytes at offset %d, have %d)", n, d.off, d.Remaining())
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads a boolean byte, rejecting values other than 0/1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("snapshot: invalid boolean")
		return false
	}
}

// Bytes reads a u32 length prefix and that many raw bytes, returning a
// copy. The claimed length is validated against the remaining input, so a
// corrupt prefix cannot force a large allocation.
func (d *Decoder) Bytes() []byte {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return nil
	}
	cp := make([]byte, n)
	copy(cp, b)
	return cp
}

// String reads a u32 length prefix and that many bytes as a string.
func (d *Decoder) String() string {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Len reads a u32 element count and validates it against the remaining
// input, given that each element occupies at least elemSize encoded bytes.
// This is the guard that keeps corrupt counts from driving unbounded
// allocation: a claim that could not possibly be backed by input latches
// an error and returns 0.
func (d *Decoder) Len(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n < 0 || n > d.Remaining()/elemSize {
		d.fail("snapshot: implausible element count %d (only %d bytes remain)", n, d.Remaining())
		return 0
	}
	return n
}
