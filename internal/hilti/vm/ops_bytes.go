// Bytes, iterator, unpack, and regular-expression instructions — the heart
// of protocol parsing. Operations that need data beyond the current end of
// a non-frozen bytes value report would-block, which the dispatch loop
// turns into a transparent fiber suspension (see vm.go): this is what makes
// BinPAC++-generated parsers incremental with no explicit state machine.

package vm

import (
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"sync/atomic"

	"hilti/internal/hilti/ast"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/overlay"
	"hilti/internal/rt/regexp"
	"hilti/internal/rt/values"
)

func bytesOf(v values.Value) (*hbytes.Bytes, error) {
	b := v.AsBytes()
	if b == nil {
		return nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil bytes reference"}
	}
	return b, nil
}

func digestOf(v values.Value) (hash.Hash, error) {
	h := v.AsDigest()
	if h == nil {
		return nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil digest"}
	}
	return h, nil
}

func errNilIter() error {
	return &values.Exception{Name: "Hilti::NullReference", Msg: "nil iterator"}
}

// twoFn is the semantic definition of an instruction with two results —
// the (value, iterator) ops parsers are made of. args is as for simpleFn.
type twoFn func(ex *Exec, args []values.Value) (a, b values.Value, err error)

// execTwo is both executable forms of a twoFn. As lowered (the reference
// form, all there is at O0) the pair is boxed into a tuple for in.d; once
// splitTuples (opt.go) has given the instruction a second destination the
// results go straight to the two registers and no tuple is built. Either
// way nothing is written when the op raises or suspends for input.
func execTwo(ex *Exec, fr *Frame, in *Instr) int {
	a, b, err := in.aux.(twoFn)(ex, ex.operands(fr, in.srcs))
	if err != nil {
		return ex.raiseErr(err)
	}
	if in.d2 == 0 {
		ex.put(fr, in.d, values.TupleVal(a, b))
	} else {
		fr.R[in.d.idx], fr.R[in.d2] = a, b
	}
	return in.t1
}

var bytesOps = []opRow{
	{name: "bytes.new", arity: 0, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		if ex.recycling() {
			return values.BytesVal(ex.rec.newBytes()), nil
		}
		return values.BytesVal(hbytes.NewWithTail()), nil
	}},
	{name: "bytes.length", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.Int(b.Len()), nil
	}},
	{name: "bytes.append", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		src, err := bytesOf(a[1])
		if err != nil {
			return values.Nil, err
		}
		return values.Nil, b.Append(src.Bytes())
	}},
	// bytes.append_from target=iter <bytes> <iter> <n>: appends the n input
	// bytes at the iterator, copied straight from the rope they are in, and
	// yields the iterator after them — unpack.bytes and bytes.append without
	// the Bytes value between them, and with unpack.bytes's errors.
	{name: "bytes.append_from", arity: 3, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		it, n := a[1].AsIterBytes(), a[2].AsInt()
		if it.Bytes() == nil {
			return values.Nil, errNilIter()
		}
		if n < 0 {
			return values.Nil, &values.Exception{Name: "Hilti::ValueError", Msg: "negative length"}
		}
		lo := it.Offset()
		if err := b.AppendRange(it.Bytes(), lo, lo+n); err != nil {
			return values.Nil, err
		}
		return values.IterBytes(it.Plus(n)), nil
	}},
	{name: "bytes.freeze", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		b.Freeze()
		return values.Nil, nil
	}},
	{name: "bytes.unfreeze", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		b.Unfreeze()
		return values.Nil, nil
	}},
	{name: "bytes.is_frozen", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.Bool(b.Frozen()), nil
	}},
	{name: "bytes.begin", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.IterBytes(b.Begin()), nil
	}},
	{name: "bytes.end", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.IterBytes(b.End()), nil
	}},
	{name: "bytes.sub", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		from := a[0].AsIterBytes()
		to := a[1].AsIterBytes()
		if from.Bytes() == nil {
			return values.Nil, errNilIter()
		}
		nb, err := ex.subBytes(from.Bytes(), from, to)
		if err != nil {
			return values.Nil, err
		}
		return values.BytesVal(nb), nil
	}},
	{name: "bytes.trim", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		b.Trim(a[1].AsIterBytes())
		return values.Nil, nil
	}},
	// bytes.trim_to <iter>: bytes.trim of the rope the iterator points into,
	// for a parser that holds its input only as an iterator.
	{name: "bytes.trim_to", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		it := a[0].AsIterBytes()
		if it.Bytes() == nil {
			return values.Nil, errNilIter()
		}
		it.Bytes().Trim(it)
		return values.Nil, nil
	}},
	{name: "bytes.find", arity: 2, two: func(ex *Exec, a []values.Value) (found, pos values.Value, err error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return
		}
		needle, err := bytesOf(a[1])
		if err != nil {
			return
		}
		it, ok, err := b.Find(needle.Bytes(), b.Begin())
		return values.Bool(ok), values.IterBytes(it), err
	}},
	// bytes.find_from target=(found, iter) <iter> <needle-bytes>: search
	// forward from an iterator, suspending when the needle might still
	// arrive on a non-frozen rope.
	{name: "bytes.find_from", arity: 2, two: func(ex *Exec, a []values.Value) (found, pos values.Value, err error) {
		it := a[0].AsIterBytes()
		b := it.Bytes()
		if b == nil {
			return found, pos, errNilIter()
		}
		needle, err := bytesOf(a[1])
		if err != nil {
			return
		}
		at, ok, err := b.Find(needle.Bytes(), it)
		return values.Bool(ok), values.IterBytes(at), err
	}},

	{name: "bytes.to_string", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.String(b.String()), nil
	}},
	// bytes.equal_nocase <bytes> <bytes>: equality under ASCII case
	// folding, without a lowered copy of either operand.
	{name: "bytes.equal_nocase", arity: 2, flags: opCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		o, err := bytesOf(a[1])
		if err != nil {
			return values.Nil, err
		}
		return values.Bool(b.EqualFold(o)), nil
	}},
	// bytes.to_int parses an ASCII integer with the given base.
	{name: "bytes.to_int", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		base := a[1].AsInt()
		if base != 10 && base != 16 {
			return values.Nil, fmt.Errorf("bytes.to_int: unsupported base %d", base)
		}
		raw := b.Bytes()
		if len(raw) == 0 {
			return values.Nil, &values.Exception{Name: "Hilti::ConversionError", Msg: "empty bytes"}
		}
		var n int64
		neg := false
		for i, c := range raw {
			if i == 0 && c == '-' {
				neg = true
				continue
			}
			var d int64
			switch {
			case c >= '0' && c <= '9':
				d = int64(c - '0')
			case base == 16 && c >= 'a' && c <= 'f':
				d = int64(c-'a') + 10
			case base == 16 && c >= 'A' && c <= 'F':
				d = int64(c-'A') + 10
			default:
				return values.Nil, &values.Exception{Name: "Hilti::ConversionError",
					Msg: fmt.Sprintf("not a base-%d number: %q", base, raw)}
			}
			n = n*base + d
		}
		if neg {
			n = -n
		}
		return values.Int(n), nil
	}},
	{name: "bytes.starts_with", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		b, err := bytesOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		prefix, err := bytesOf(a[1])
		if err != nil {
			return values.Nil, err
		}
		pb := prefix.Bytes()
		if b.Len() < int64(len(pb)) {
			return values.Bool(false), nil
		}
		sub, err := b.Sub(b.Begin(), b.Begin().Plus(int64(len(pb))))
		if err != nil {
			return values.Nil, err
		}
		return values.Bool(string(sub) == string(pb)), nil
	}},

	// bytes.wait_frozen <iter>: block (suspending the fiber) until the
	// underlying rope is frozen — the "rest of data" fields of generated
	// parsers wait for end-of-stream this way.
	{name: "bytes.wait_frozen", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		it := a[0].AsIterBytes()
		b := it.Bytes()
		if b == nil {
			return values.Nil, errNilIter()
		}
		if !b.Frozen() {
			return values.Nil, hbytes.ErrWouldBlock
		}
		return values.Nil, nil
	}},

	// --- iterator<bytes> ---------------------------------------------------------
	// iterator.end_of returns the distinguished end iterator of the rope an
	// iterator points into.
	{name: "iterator.end_of", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		it := a[0].AsIterBytes()
		b := it.Bytes()
		if b == nil {
			return values.Nil, errNilIter()
		}
		return values.IterBytes(b.End()), nil
	}},
	{name: "iterator.incr", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IterBytes(a[0].AsIterBytes().Next()), nil
	}, pick: func(srcs []src, d dst) execFn {
		if d.kind == srcReg && srcs[0].kind == srcReg {
			return execIterIncrRR
		}
		return nil
	}},
	{name: "iterator.incr_by", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IterBytes(a[0].AsIterBytes().Plus(a[1].AsInt())), nil
	}},
	{name: "iterator.deref", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		c, err := a[0].AsIterBytes().Deref()
		if err != nil {
			return values.Nil, err
		}
		return values.Int(int64(c)), nil
	}, pick: func(srcs []src, d dst) execFn {
		if d.kind == srcReg && srcs[0].kind == srcReg {
			return execIterDerefRR
		}
		return nil
	}},
	{name: "iterator.diff", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(a[0].AsIterBytes().Diff(a[1].AsIterBytes())), nil
	}},
	{name: "iterator.eq", arity: 2, flags: opCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsIterBytes().Cmp(a[1].AsIterBytes()) == 0), nil
	}},
	{name: "iterator.at_end", arity: 1, flags: opCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		it := a[0].AsIterBytes()
		b := it.Bytes()
		if b == nil {
			return values.Bool(true), nil
		}
		if !it.AtEnd() {
			return values.Bool(false), nil
		}
		// At the current end of a non-frozen value: the answer is not yet
		// known — suspend for more input (HILTI's incremental semantics).
		if !b.Frozen() {
			return values.Nil, hbytes.ErrWouldBlock
		}
		return values.Bool(true), nil
	}},
	// iterator.at_end_now answers immediately without suspending (used at
	// PDU boundaries where "no more data right now" is the actual question).
	{name: "iterator.at_end_now", arity: 1, flags: opCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		it := a[0].AsIterBytes()
		return values.Bool(it.Bytes() == nil || it.AtEnd()), nil
	}, pick: func(srcs []src, d dst) execFn {
		if d.kind == srcReg && srcs[0].kind == srcReg {
			return execIterAtEndNowRR
		}
		return nil
	}},

	// --- unpack (binary field extraction; the overlay/unpack formats of §4) -------
	{name: "unpack.uint8", arity: 1, two: unpackUint("uint8")},
	{name: "unpack.uint16be", arity: 1, two: unpackUint("uint16be")},
	{name: "unpack.uint16le", arity: 1, two: unpackUint("uint16le")},
	{name: "unpack.uint32be", arity: 1, two: unpackUint("uint32be")},
	{name: "unpack.uint32le", arity: 1, two: unpackUint("uint32le")},
	// unpack.fields target=iter <struct> <iter> <layout>: a run of adjacent
	// fixed-width unsigned fields, each decoded as its unpack.uintN op decodes
	// it and stored into the struct field it names (fieldLayout).
	{name: "unpack.fields", arity: 3, lower: lowerUnpackFields},
	{name: "unpack.addr4", arity: 1, two: unpack(4, func(r [16]byte) values.Value {
		return values.AddrFrom4([4]byte{r[0], r[1], r[2], r[3]})
	})},
	{name: "unpack.addr6", arity: 1, two: unpack(16, values.AddrFrom16)},
	// unpack.bytes target=(bytes, iter) <iter> <n>: n raw bytes.
	{name: "unpack.bytes", arity: 2, two: func(ex *Exec, a []values.Value) (val, next values.Value, err error) {
		it := a[0].AsIterBytes()
		n := a[1].AsInt()
		b := it.Bytes()
		if b == nil {
			return val, next, errNilIter()
		}
		if n < 0 {
			return val, next, &values.Exception{Name: "Hilti::ValueError", Msg: "negative length"}
		}
		nb, err := ex.subBytes(b, it, it.Plus(n))
		if err != nil {
			return
		}
		return values.BytesVal(nb), values.IterBytes(it.Plus(n)), nil
	}},
	// bytes.piece <iter> <max>: the input from the iterator to the end of
	// the rope chunk holding it, at most max bytes (max < 0: no limit), as
	// a view of that chunk — never a copy; the caller advances by its
	// length. It suspends at the end of a non-frozen rope; at the end of a
	// frozen one the piece is empty when max < 0 (an until-EOF field is
	// complete) and out of range otherwise. Streamed fields loop over it.
	{name: "bytes.piece", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		it, limit := a[0].AsIterBytes(), a[1].AsInt()
		b := it.Bytes()
		if b == nil {
			return values.Nil, errNilIter()
		}
		n := int64(len(it.Chunk()))
		if limit >= 0 {
			n = min(n, limit)
		}
		if n == 0 && limit != 0 {
			switch {
			case !b.Frozen():
				return values.Nil, hbytes.ErrWouldBlock
			case limit > 0:
				return values.Nil, hbytes.ErrOutOfRange
			}
		}
		nb, err := b.SubBytes(it, it.Plus(n))
		if err != nil {
			return values.Nil, err
		}
		return values.BytesVal(nb), nil
	}},

	// --- hash (the incremental digest of a body as it streams) ---------------------
	{name: "hash.new", arity: 0, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.NewDigest(), nil
	}},
	// hash.update <digest> <bytes>: adds the bytes, chunk by chunk in place.
	{name: "hash.update", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		h, err := digestOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		b, err := bytesOf(a[1])
		if err != nil {
			return values.Nil, err
		}
		for it := b.Begin(); ; {
			c := it.Chunk()
			if len(c) == 0 {
				return values.Nil, nil
			}
			h.Write(c)
			it = it.Plus(int64(len(c)))
		}
	}},
	// hash.final <digest>: the hex digest of the bytes so far; the digest
	// stays usable.
	{name: "hash.final", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		h, err := digestOf(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.String(hex.EncodeToString(h.Sum(nil))), nil
	}},

	// --- regexp ---------------------------------------------------------------------
	// regexp.compile builds a matcher from pattern strings.
	{name: "regexp.compile", arity: -1, fn: func(ex *Exec, args []values.Value) (values.Value, error) {
		ps := make([]string, len(args))
		for i, a := range args {
			ps[i] = a.AsString()
		}
		re, err := regexp.Compile(ps...)
		if err != nil {
			return values.Nil, err
		}
		return values.Ref(values.KindRegExp, re), nil
	}, lower: func(c *fnCompiler, in *ast.Instr) error {
		// All-constant patterns compile at link time (the common case for
		// generated parsers; the paper considers JIT'ing regexps a key
		// optimization HILTI enables "under the hood").
		pats := make([]string, len(in.Ops))
		for i, o := range in.Ops {
			if o.Kind != ast.Const {
				return c.lowerRow(c.cur, in)
			}
			pats[i] = o.Val.AsString()
		}
		if len(pats) == 0 {
			return c.lowerRow(c.cur, in)
		}
		re, err := regexp.Compile(pats...)
		if err != nil {
			return err
		}
		d, err := c.dstOf(in.Target)
		if err != nil {
			return err
		}
		v := values.Ref(values.KindRegExp, re)
		c.emit(Instr{exec: execAssign, d: d, srcs: []src{{kind: srcConst, val: v}}})
		return nil
	}},

	// regexp.match_token target=(id, end-iter) <re> <begin-iter>: anchored
	// longest match; suspends transparently when more input could extend
	// the decision. id 0 = no match.
	{name: "regexp.match_token", arity: 2, two: func(ex *Exec, a []values.Value) (id, end values.Value, err error) {
		re, _ := a[0].O.(*regexp.Regexp)
		if re == nil {
			return id, end, &values.Exception{Name: "Hilti::NullReference", Msg: "nil regexp"}
		}
		tok, at, err := re.MatchIter(a[1].AsIterBytes())
		return values.Int(int64(tok)), values.IterBytes(at), err
	}},

	// regexp.find target=(found, start, end) <re> <bytes>: unanchored search.
	{name: "regexp.find", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		re, _ := a[0].O.(*regexp.Regexp)
		if re == nil {
			return values.Nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil regexp"}
		}
		b, err := bytesOf(a[1])
		if err != nil {
			return values.Nil, err
		}
		s, e, id := re.Find(b.Bytes())
		return values.TupleVal(values.Bool(id != 0), values.Int(s), values.Int(e)), nil
	}},

	// regexp.matches <re> <bytes>: anchored boolean convenience.
	{name: "regexp.matches", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		re, _ := a[0].O.(*regexp.Regexp)
		if re == nil {
			return values.Nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil regexp"}
		}
		b, err := bytesOf(a[1])
		if err != nil {
			return values.Nil, err
		}
		id, _ := re.Match(b.Bytes())
		return values.Bool(id != 0), nil
	}},
}

// unpack is the body of a fixed-width unpack: the decoder gets the field's
// bytes at the front of a by-value array, so nothing escapes and the
// unpack allocates nothing.
func unpack(width int64, decode func(r [16]byte) values.Value) twoFn {
	return func(ex *Exec, a []values.Value) (val, next values.Value, err error) {
		it := a[0].AsIterBytes()
		b := it.Bytes()
		if b == nil {
			return val, next, errNilIter()
		}
		var raw [16]byte
		if err = b.ReadAt(raw[:width], it); err != nil {
			return
		}
		return decode(raw), values.IterBytes(it.Plus(width)), nil
	}
}

// uintFormats are the fixed-width unsigned wire integers, named in layouts
// as their unpack ops are, with their overlay formats and widths: both
// unpack.uintN and unpack.fields decode through an overlayPlan.
var uintFormats = map[string]struct {
	format overlay.Format
	width  int
}{
	"uint8": {overlay.UInt8, 1}, "uint16be": {overlay.UInt16BE, 2}, "uint16le": {overlay.UInt16LE, 2},
	"uint32be": {overlay.UInt32BE, 4}, "uint32le": {overlay.UInt32LE, 4},
}

// uintPlan plans the named integer format at offset off.
func uintPlan(name string, off int) (overlayPlan, bool) {
	f, ok := uintFormats[name]
	return overlayPlan{off: off, end: off + f.width, format: f.format}, ok
}

func unpackUint(name string) twoFn {
	p, _ := uintPlan(name, 0)
	return func(ex *Exec, a []values.Value) (val, next values.Value, err error) {
		it := a[0].AsIterBytes()
		b := it.Bytes()
		if b == nil {
			return val, next, errNilIter()
		}
		var raw [4]byte
		if err = b.ReadAt(raw[:p.end], it); err != nil {
			return
		}
		return p.decode(raw[:]), values.IterBytes(it.Plus(int64(p.end))), nil
	}
}

// fieldLayout is the operand of unpack.fields, parsed at lowering from a
// constant string of "name:format" entries ("id:uint16be flags:uint16be";
// an empty name parses the field without storing it).
type fieldLayout struct {
	names []string
	plans []overlayPlan // offsets within the run
	size  int
	// slots caches the names resolved against the last struct definition
	// seen; a struct of another definition resolves by name again.
	slots atomic.Pointer[layoutSlots]
}

type layoutSlots struct {
	def *values.StructDef
	idx []int // -1: not stored
}

func parseLayout(spec string) (*fieldLayout, error) {
	l := &fieldLayout{}
	for _, e := range strings.Fields(spec) {
		i := strings.LastIndexByte(e, ':')
		p, ok := uintPlan(e[i+1:], l.size)
		if i < 0 || !ok {
			return nil, fmt.Errorf("unpack.fields: bad layout entry %q", e)
		}
		l.names, l.plans, l.size = append(l.names, e[:i]), append(l.plans, p), p.end
	}
	if l.size == 0 {
		return nil, fmt.Errorf("unpack.fields: empty layout")
	}
	return l, nil
}

func (l *fieldLayout) slotsFor(def *values.StructDef) []int {
	if s := l.slots.Load(); s != nil && s.def == def {
		return s.idx
	}
	s := &layoutSlots{def: def, idx: make([]int, len(l.names))}
	for i, n := range l.names {
		s.idx[i] = -1
		if n != "" {
			s.idx[i] = def.Index(n)
		}
	}
	l.slots.Store(s)
	return s.idx
}

func lowerUnpackFields(c *fnCompiler, in *ast.Instr) error {
	if len(in.Ops) != 3 || in.Ops[2].Kind != ast.Const || in.Ops[2].Val.K != values.KindString {
		return fmt.Errorf("unpack.fields needs struct, iterator and a constant layout")
	}
	l, err := parseLayout(in.Ops[2].Val.AsString())
	if err != nil {
		return err
	}
	srcs, err := c.srcsOf(in.Ops)
	if err != nil {
		return err
	}
	d, err := c.dstOf(in.Target)
	if err != nil {
		return err
	}
	c.emit(Instr{exec: execUnpackFields, d: d, srcs: srcs, aux: l})
	return nil
}

// execUnpackFields reads the whole run with one bounds check. Short of
// input, it reads field by field and stores the fields before the one that
// failed, as field-by-field code would have before raising or suspending
// there; a resumed run re-executes whole, which stores the same values again.
func execUnpackFields(ex *Exec, fr *Frame, in *Instr) int {
	l := in.aux.(*fieldLayout)
	it := ex.get(fr, &in.srcs[1]).AsIterBytes()
	b := it.Bytes()
	if b == nil {
		return ex.raiseErr(errNilIter())
	}
	var raw [64]byte // any header run; a longer one reads into the heap
	buf := raw[:min(l.size, len(raw))]
	if l.size > len(raw) {
		buf = make([]byte, l.size)
	}
	n, err := len(l.plans), b.ReadAt(buf, it)
	if err != nil {
		for n = 0; n < len(l.plans); n++ {
			p := &l.plans[n]
			if err = b.ReadAt(buf[p.off:p.end], it.Plus(int64(p.off))); err != nil {
				break
			}
		}
	}
	if n > 0 {
		s, serr := asStruct(ex.get(fr, &in.srcs[0]))
		if serr != nil {
			return ex.raiseErr(serr)
		}
		slots := l.slotsFor(s.Def)
		for i := range l.plans[:n] {
			s.Set(slots[i], l.plans[i].decode(buf))
		}
	}
	if err != nil {
		return ex.raiseErr(err)
	}
	ex.put(fr, in.d, values.IterBytes(it.Plus(int64(l.size))))
	return in.t1
}

// --- register-to-register iterator executors ---------------------------------
//
// The parse loops BinPAC++ generates advance, dereference, and test one
// iterator register per input byte; these skip both the simpleFn dispatch
// and Exec.get's kind switch.

func execIterIncrRR(ex *Exec, fr *Frame, in *Instr) int {
	fr.R[in.d.idx] = values.IterBytes(fr.R[in.srcs[0].idx].AsIterBytes().Next())
	return in.t1
}

func execIterDerefRR(ex *Exec, fr *Frame, in *Instr) int {
	c, err := fr.R[in.srcs[0].idx].AsIterBytes().Deref()
	if err != nil {
		return ex.raiseErr(err)
	}
	fr.R[in.d.idx] = values.Int(int64(c))
	return in.t1
}

func execIterAtEndNowRR(ex *Exec, fr *Frame, in *Instr) int {
	it := fr.R[in.srcs[0].idx].AsIterBytes()
	b := it.Bytes() == nil || it.AtEnd()
	fr.R[in.d.idx] = values.Bool(b)
	return in.branch(b)
}
