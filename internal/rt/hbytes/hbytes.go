// Package hbytes implements HILTI's "bytes" data type: an append-only,
// chunked byte rope designed for incremental network input.
//
// A Bytes value accumulates raw data as it arrives from the wire without
// copying previously stored data: large appends become chunks of their own,
// small ones fill a tail chunk the rope allocated itself. Iterators address
// positions by absolute stream offset and therefore remain valid across
// appends and across trims of already-consumed data. A Bytes value can be
// frozen to signal that no further data will arrive; parsing code uses the
// distinction between "at the current end of a non-frozen value" and "at the
// end of a frozen value" to decide whether to suspend for more input or to
// report a premature end of data.
//
// This is the substrate for HILTI's incremental, suspendable parsing model
// (paper §3.2): BinPAC++-generated parsers walk a Bytes value with iterators
// and yield their fiber whenever they reach unfrozen end-of-data.
//
// Sharing rests on one invariant: the bytes of a chunk, once appended, are
// never rewritten. A sub-range within one chunk is therefore handed out as
// a view — a slice of the chunk capped at its own length (SubBytes, and the
// slices Bytes and Iter.Chunk return) — and an append writes only past the
// length of the tail chunk, where no capped slice reaches. Data handed over
// with AppendOwned or Reset joins the rope on the same terms: its owner must
// not modify it afterwards.
package hbytes

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
)

// ErrWouldBlock is reported when an operation needs data beyond the current
// end of a non-frozen Bytes value. Callers (typically generated parsers)
// react by suspending until more input has been appended.
var ErrWouldBlock = errors.New("bytes: would block (need more input)")

// ErrFrozen is reported when appending to a frozen Bytes value.
var ErrFrozen = errors.New("bytes: frozen")

// ErrOutOfRange is reported when an iterator is moved or dereferenced
// outside the valid data range.
var ErrOutOfRange = errors.New("bytes: iterator out of range")

type chunk struct {
	off  int64 // absolute stream offset of data[0]
	data []byte
}

// Bytes is a chunked byte rope. The zero value is an empty, unfrozen rope;
// New and NewFrom are the usual constructors.
type Bytes struct {
	chunks []chunk
	base   int64 // absolute offset of the first retained byte
	end    int64 // absolute offset one past the last byte
	frozen bool
	// tail: the last chunk was allocated by Append, so nothing outside the
	// rope reaches past its length and small appends may extend it. viewed:
	// SubBytes handed out a view of it, which holds on to its array, so it
	// is no longer grown by copying — both copies would stay alive.
	tail, viewed bool
	// first is inline storage for chunks while the rope holds a single
	// chunk — every bytes.sub result, BytesFrom constant and per-datagram
	// rope — so those cost no separate chunk-list allocation. A Bytes must
	// therefore not be copied by value once it holds data.
	first [1]chunk
}

// New returns a new empty Bytes value.
func New() *Bytes { return &Bytes{} }

// NewWithTail returns a new empty Bytes value whose tail chunk — tailMin
// bytes of room for Append — lives in the rope's own object: HILTI's `new
// bytes`, which a parser fills by small appends (a decoded name), is one
// allocation until it outgrows that room. Until the first append the rope
// holds that one empty chunk.
func NewWithTail() *Bytes {
	o := new(struct {
		b   Bytes
		buf [tailMin]byte
	})
	b := &o.b
	b.first[0].data = o.buf[:0]
	b.chunks, b.tail = b.first[:1], true
	return b
}

// NewFrom returns a new Bytes value holding a copy of data.
func NewFrom(data []byte) *Bytes {
	b := New()
	if len(data) > 0 {
		b.appendOwned(bytes.Clone(data))
		b.tail = true
	}
	return b
}

// NewFromString returns a new Bytes value holding the bytes of s.
func NewFromString(s string) *Bytes { return NewFrom([]byte(s)) }

// A rope built by small appends (a decoded name, a dechunked body) keeps
// one tail chunk: it starts with room for tailMin bytes and grows by
// doubling up to tailMax, until a view of it is taken; past that, appends
// start new chunks.
const (
	tailMin = 32
	tailMax = 256
)

// Append adds a copy of data to the end of the rope. Appending to a frozen
// value returns ErrFrozen. Appending an empty slice is a no-op.
func (b *Bytes) Append(data []byte) error {
	if b.frozen {
		return ErrFrozen
	}
	if len(data) == 0 {
		return nil
	}
	if n := len(b.chunks); b.tail && n > 0 {
		t := &b.chunks[n-1]
		if m := len(t.data) + len(data); m <= cap(t.data) || !b.viewed && m <= tailMax {
			// In place while capacity lasts; past it append copies into a
			// fresh array, which leaves the old one to nothing but garbage.
			t.data = append(t.data, data...)
			b.end += int64(len(data))
			return nil
		}
	}
	b.appendOwned(append(make([]byte, 0, max(len(data), tailMin)), data...))
	b.tail = true
	return nil
}

// AppendRange appends a copy of src's bytes at absolute offsets [from, to),
// read chunk by chunk in place: a decoded name is built from its labels
// without a Bytes value per label. On error b is unchanged: ErrFrozen for a
// frozen b, and Sub's range errors for src — ErrWouldBlock past the end of a
// non-frozen src, ErrOutOfRange past a frozen one or for an invalid range.
func (b *Bytes) AppendRange(src *Bytes, from, to int64) error {
	if b.frozen {
		return ErrFrozen
	}
	if err := src.checkRange(from, to); err != nil {
		return err
	}
	for from < to {
		d := src.chunkAt(from)
		d = d[:min(int64(len(d)), to-from)]
		_ = b.Append(d) // cannot fail: b is not frozen
		from += int64(len(d))
	}
	return nil
}

// AppendOwned adds data to the rope without copying. The caller must not
// modify data afterwards. It exists for hot paths (packet payload handoff)
// where the buffer is already owned by the rope's producer.
func (b *Bytes) AppendOwned(data []byte) error {
	if b.frozen {
		return ErrFrozen
	}
	if len(data) == 0 {
		return nil
	}
	return b.appendOwned(data)
}

func (b *Bytes) appendOwned(data []byte) error {
	if len(b.chunks) == 0 || len(b.chunks[0].data) == 0 { // or NewWithTail's unused chunk
		b.chunks = b.first[:0]
	}
	b.chunks = append(b.chunks, chunk{off: b.end, data: data})
	b.end += int64(len(data))
	b.tail, b.viewed = false, false
	return nil
}

// Freeze marks the value complete: no further appends are allowed, and
// iterators at the end dereference to end-of-data rather than would-block.
func (b *Bytes) Freeze() { b.frozen = true }

// Unfreeze reverses Freeze. HILTI exposes this for stream gaps handling.
func (b *Bytes) Unfreeze() { b.frozen = false }

// Frozen reports whether the value has been frozen.
func (b *Bytes) Frozen() bool { return b.frozen }

// Len returns the number of currently retained bytes.
func (b *Bytes) Len() int64 { return b.end - b.base }

// Begin returns an iterator at the first retained byte.
func (b *Bytes) Begin() Iter { return Iter{b: b, off: b.base} }

// End returns the distinguished end iterator. For a non-frozen value it
// denotes "wherever the data ends once frozen": comparing or dereferencing
// it reflects the rope's current end at the time of use.
func (b *Bytes) End() Iter { return Iter{b: b, off: endSentinel} }

// At returns an iterator at absolute stream offset off.
func (b *Bytes) At(off int64) Iter { return Iter{b: b, off: off} }

const endSentinel = int64(-1)

// Trim discards all data before it, releasing chunk memory. Iterators
// pointing before it become invalid. Trimming is how long-running parsers
// bound memory for already-consumed input.
func (b *Bytes) Trim(it Iter) {
	off := it.resolve()
	if off <= b.base {
		return
	}
	if off > b.end {
		off = b.end
	}
	// Drop whole chunks that end at or before off. The rest move to the
	// front of the chunk list, so a parser trimming as it goes neither keeps
	// the dropped data reachable nor shrinks the list's capacity to nothing.
	i := 0
	for i < len(b.chunks) && b.chunks[i].off+int64(len(b.chunks[i].data)) <= off {
		i++
	}
	n := copy(b.chunks, b.chunks[i:])
	clear(b.chunks[n:])
	b.chunks = b.chunks[:n]
	b.base = off
}

// findChunk returns the index of the chunk containing absolute offset off,
// or -1 when off is at or beyond the end.
func (b *Bytes) findChunk(off int64) int {
	if off >= b.end || off < b.base {
		return -1
	}
	n := len(b.chunks)
	if n == 0 {
		return -1
	}
	// Fast path: most accesses are in the first or last chunk.
	if c := b.chunks[0]; off < c.off+int64(len(c.data)) {
		return 0
	}
	if c := b.chunks[n-1]; off >= c.off {
		return n - 1
	}
	return sort.Search(n, func(i int) bool {
		c := b.chunks[i]
		return off < c.off+int64(len(c.data))
	})
}

// ByteAt returns the byte at absolute offset off. ok is false with
// ErrWouldBlock semantics: the offset is past the end of a non-frozen value.
// Reading past the end of a frozen value returns ErrOutOfRange.
func (b *Bytes) ByteAt(off int64) (byte, error) {
	if off < b.base {
		return 0, ErrOutOfRange
	}
	if off >= b.end {
		if b.frozen {
			return 0, ErrOutOfRange
		}
		return 0, ErrWouldBlock
	}
	ci := b.findChunk(off)
	c := b.chunks[ci]
	return c.data[off-c.off], nil
}

// Bytes flattens the retained data into a single contiguous slice.
// The result is freshly allocated unless the rope holds exactly one chunk;
// then it is that chunk, capped, which the caller must not modify.
func (b *Bytes) Bytes() []byte {
	if len(b.chunks) == 1 && b.base == b.chunks[0].off {
		d := b.chunks[0].data
		return d[:len(d):len(d)]
	}
	out := make([]byte, 0, b.Len())
	for _, c := range b.chunks {
		d := c.data
		if c.off < b.base {
			d = d[b.base-c.off:]
		}
		out = append(out, d...)
	}
	return out
}

// String renders the retained data as a Go string (for debugging and for
// HILTI's bytes-to-string conversions).
func (b *Bytes) String() string { return string(b.Bytes()) }

// Sub copies the bytes in [from, to) into a new contiguous slice.
// It returns ErrWouldBlock when to exceeds available data on a non-frozen
// value, and ErrOutOfRange for invalid ranges.
func (b *Bytes) Sub(from, to Iter) ([]byte, error) {
	lo, hi := from.resolve(), to.resolve()
	if err := b.checkRange(lo, hi); err != nil {
		return nil, err
	}
	out := make([]byte, hi-lo)
	b.copyRange(out, lo)
	return out, nil
}

// ReadAt fills dst with the len(dst) bytes starting at from, with Sub's
// error semantics and no allocation: fixed-width field decoders read into a
// stack buffer with it.
func (b *Bytes) ReadAt(dst []byte, from Iter) error {
	lo := from.resolve()
	if err := b.checkRange(lo, lo+int64(len(dst))); err != nil {
		return err
	}
	b.copyRange(dst, lo)
	return nil
}

func (b *Bytes) checkRange(lo, hi int64) error {
	if lo > hi || lo < b.base {
		return ErrOutOfRange
	}
	if hi > b.end {
		if b.frozen {
			return ErrOutOfRange
		}
		return ErrWouldBlock
	}
	return nil
}

// copyRange fills dst from absolute offset lo; the range was checked.
func (b *Bytes) copyRange(dst []byte, lo int64) {
	for ci := b.findChunk(lo); len(dst) > 0; ci++ {
		c := b.chunks[ci]
		n := copy(dst, c.data[lo-c.off:])
		dst, lo = dst[n:], lo+int64(n)
	}
}

// SubBytes returns the bytes in [from, to) as a new, frozen Bytes value —
// HILTI's bytes.sub, whose result is independent of later appends to and
// trims of b. A range within one chunk is a view of it, costing no copy;
// one spanning chunks is copied.
func (b *Bytes) SubBytes(from, to Iter) (*Bytes, error) {
	nb := &Bytes{}
	if err := b.SubBytesInto(nb, from, to); err != nil {
		return nil, err
	}
	return nb, nil
}

// SubBytesInto is SubBytes into nb, which is reset first: a caller that
// recycles its values reuses one. On error nb is unchanged.
func (b *Bytes) SubBytesInto(nb *Bytes, from, to Iter) error {
	lo, hi := from.resolve(), to.resolve()
	if err := b.checkRange(lo, hi); err != nil {
		return err
	}
	*nb = Bytes{}
	if hi > lo {
		ci := b.findChunk(lo)
		if c := b.chunks[ci]; hi <= c.off+int64(len(c.data)) {
			nb.appendOwned(c.data[lo-c.off : hi-c.off : hi-c.off])
			b.viewed = b.viewed || ci == len(b.chunks)-1
		} else {
			out := make([]byte, hi-lo)
			b.copyRange(out, lo)
			nb.appendOwned(out)
		}
	}
	nb.frozen = true
	return nil
}

// chunkAt returns the retained bytes from absolute offset off to the end of
// the chunk that holds it, in place and capped; nil at or past the end of
// data. Calling it again at off+len(result) walks the rope without
// flattening it.
func (b *Bytes) chunkAt(off int64) []byte {
	ci := b.findChunk(off)
	if ci < 0 {
		return nil
	}
	c := b.chunks[ci]
	return c.data[off-c.off : len(c.data) : len(c.data)]
}

// Chunk returns the contiguous run of bytes at the iterator — up to the end
// of its chunk, not of the rope — without copying; empty at the end of data.
// The caller must not modify it. Scanners (regexp matching) advance by its
// length, so they read only as far as they need to.
func (it Iter) Chunk() []byte {
	if it.b == nil {
		return nil
	}
	return it.b.chunkAt(it.resolve())
}

// Find searches for needle at or after from. It returns an iterator to the
// first occurrence and true; when the needle is absent it returns the end
// iterator and false. On a non-frozen value an absent needle yields
// ErrWouldBlock so incremental callers know to retry with more data.
func (b *Bytes) Find(needle []byte, from Iter) (Iter, bool, error) {
	if len(needle) == 0 {
		return from, true, nil
	}
	lo := from.resolve()
	if lo < b.base || lo > b.end {
		return Iter{}, false, ErrOutOfRange
	}
	for lo < b.end {
		d := b.chunkAt(lo)
		if i := bytes.Index(d, needle); i >= 0 {
			return b.At(lo + int64(i)), true, nil
		}
		// Then the later starts in this chunk, whose match would straddle
		// its end.
		for i := max(0, len(d)-len(needle)+1); i < len(d); i++ {
			if d[i] == needle[0] && b.hasAt(needle, lo+int64(i)) {
				return b.At(lo + int64(i)), true, nil
			}
		}
		lo += int64(len(d))
	}
	if !b.frozen {
		return Iter{}, false, ErrWouldBlock
	}
	return b.End(), false, nil
}

// hasAt reports whether the bytes at absolute offset off are needle,
// across however many chunks that spans.
func (b *Bytes) hasAt(needle []byte, off int64) bool {
	for len(needle) > 0 {
		d := b.chunkAt(off)
		if len(d) == 0 {
			return false
		}
		n := min(len(d), len(needle))
		if !bytes.Equal(d[:n], needle[:n]) {
			return false
		}
		needle, off = needle[n:], off+int64(n)
	}
	return true
}

// Equal reports whether two ropes hold the same retained bytes.
func (b *Bytes) Equal(o *Bytes) bool {
	if b.Len() != o.Len() {
		return false
	}
	return bytes.Equal(b.Bytes(), o.Bytes())
}

// EqualFold reports whether two ropes hold the same retained bytes under
// ASCII case folding, walking their chunks in place: no copy, no flattening.
func (b *Bytes) EqualFold(o *Bytes) bool {
	if b.Len() != o.Len() {
		return false
	}
	var x, y []byte
	for i, j := b.base, o.base; i < b.end; {
		if len(x) == 0 {
			x = b.chunkAt(i)
		}
		if len(y) == 0 {
			y = o.chunkAt(j)
		}
		n := min(len(x), len(y))
		for k := range n {
			if lowerASCII(x[k]) != lowerASCII(y[k]) {
				return false
			}
		}
		x, y, i, j = x[n:], y[n:], i+int64(n), j+int64(n)
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// Compare orders ropes lexicographically.
func (b *Bytes) Compare(o *Bytes) int { return bytes.Compare(b.Bytes(), o.Bytes()) }

// Copy returns an independent deep copy (used by HILTI's deep-copying
// message passing between virtual threads).
func (b *Bytes) Copy() *Bytes {
	nb := NewFrom(b.Bytes())
	nb.frozen = b.frozen
	return nb
}

// Iter is a position within a Bytes value, addressed by absolute stream
// offset so that it survives appends and (if not trimmed past) trims.
type Iter struct {
	b   *Bytes
	off int64
}

// Bytes returns the rope this iterator points into.
func (it Iter) Bytes() *Bytes { return it.b }

// Offset returns the absolute stream offset, resolving the end sentinel.
func (it Iter) Offset() int64 { return it.resolve() }

func (it Iter) resolve() int64 {
	if it.off == endSentinel {
		if it.b == nil {
			return 0
		}
		return it.b.end
	}
	return it.off
}

// IsEnd reports whether the iterator is the distinguished moving-end
// iterator (as opposed to a fixed offset that happens to equal the end).
func (it Iter) IsEnd() bool { return it.off == endSentinel }

// AtEnd reports whether the iterator currently points at or past the end of
// available data.
func (it Iter) AtEnd() bool {
	if it.b == nil {
		return true
	}
	return it.resolve() >= it.b.end
}

// Deref returns the byte at the iterator.
func (it Iter) Deref() (byte, error) {
	if it.b == nil {
		return 0, ErrOutOfRange
	}
	return it.b.ByteAt(it.resolve())
}

// Next returns an iterator advanced by one byte.
func (it Iter) Next() Iter { return it.Plus(1) }

// Plus returns an iterator advanced by n bytes (n may be negative).
func (it Iter) Plus(n int64) Iter {
	return Iter{b: it.b, off: it.resolve() + n}
}

// Diff returns the distance in bytes from it to o (o - it).
func (it Iter) Diff(o Iter) int64 { return o.resolve() - it.resolve() }

// Cmp compares two iterator positions: -1, 0 or +1.
func (it Iter) Cmp(o Iter) int {
	a, b := it.resolve(), o.resolve()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Valid reports whether the iterator points into retained data (or at the
// end). Trimmed-past iterators are invalid.
func (it Iter) Valid() bool {
	if it.b == nil {
		return false
	}
	off := it.resolve()
	return off >= it.b.base && off <= it.b.end
}

// Err wraps fmt for iterator diagnostics.
func (it Iter) GoString() string {
	return fmt.Sprintf("hbytes.Iter(off=%d)", it.resolve())
}

// ResetEmpty empties the rope for reuse as a new, unfrozen value. A rope
// built only by Append holds one chunk it allocated itself; that chunk's
// array is kept as the tail room of the next use, so a reused `new bytes`
// costs nothing until it outgrows it. Any other rope starts over as New.
// Views taken of the rope (SubBytes) must be dead: the kept array is
// written again.
func (b *Bytes) ResetEmpty() {
	var room []byte
	if b.tail && len(b.chunks) == 1 {
		room = b.chunks[0].data[:0]
	}
	*b = Bytes{}
	if room != nil {
		b.first[0].data = room
		b.chunks, b.tail = b.first[:1], true
	}
}

// Reset discards all state and re-initializes the rope around data without
// copying (the caller retains ownership discipline of AppendOwned). Host
// stubs use this to re-wrap per-packet buffers allocation-free.
func (b *Bytes) Reset(data []byte) {
	*b = Bytes{frozen: true}
	if len(data) > 0 {
		b.appendOwned(data)
	}
}
