// Leaf layouts of the engine-state codec (state.go): the one encoder and
// one decoder each for a connection record, a flow key, a reassembly
// stream, HTTP parser state, and interpreter values including the single
// script-table entry layout. Nothing here decides *what* is serialized —
// that is state.go's products — only how one item looks on the wire.

package bro

import (
	"fmt"
	"math"

	"hilti/internal/analyzers"
	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/reassembly"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/timer"
)

// Val codec tags (engine-interpreter values).
const (
	valNil = iota
	valBool
	valCount
	valInt
	valDouble
	valString
	valAddr
	valSubnet
	valPort
	valTime
	valInterval
	valEnum
	valRecord
	valTable
	valVector
	valFunc
)

const valMaxDepth = 64

// conn flag bits.
const (
	cfTCP = 1 << iota
	cfStarted
	cfOrigSYN
	cfRespSYN
	cfRec
	cfStd
)

// inFlightParse reports whether the connection holds a BinPAC++ parse
// (vm.Resumable), which is not encoded yet (ROADMAP 1a); both products
// refuse to serialize such a connection. A parse starts at its direction's
// first byte, so a connection without payload yet is encoded.
func (c *conn) inFlightParse() bool {
	return c.origRun != nil || c.respRun != nil
}

// encodeConn writes one connection's analyzer state: instance-local ctx,
// TCP flags, reassembly streams, and parser state. Its identity — uid and
// flow key — lives in the enclosing flow frame's header.
func encodeConn(enc *snapshot.Encoder, c *conn) {
	enc.I64(c.ctx)
	enc.I64(int64(c.en.LastUse))
	var flags byte
	if c.isTCP {
		flags |= cfTCP
	}
	if c.started {
		flags |= cfStarted
	}
	if c.origSYN {
		flags |= cfOrigSYN
	}
	if c.respSYN {
		flags |= cfRespSYN
	}
	if c.recorded {
		flags |= cfRec
	}
	if c.std != nil {
		flags |= cfStd
	}
	enc.U8(flags)
	if c.recorded {
		enc.I64(c.start)
	}
	encodeStream(enc, &c.origStream)
	encodeStream(enc, &c.respStream)
	if c.std != nil {
		orig, resp, methods := c.std.SnapshotState()
		encodeHTTPDir(enc, orig)
		encodeHTTPDir(enc, resp)
		encodeStrings(enc, methods)
	}
	encodeStrings(enc, c.methods)
}

// decodeConn rebuilds the connection named uid/key from encodeConn's layout
// in a new entry, attaching analyzers and reassembly budget from e. The
// caller opens it (connTable.open).
func decodeConn(dec *snapshot.Decoder, e *Engine, uid string, key flow.Key) (*connEntry, error) {
	ctx := dec.I64()
	lastUse := dec.I64()
	flags := dec.U8()
	var start int64
	if flags&cfRec != 0 {
		start = dec.I64()
	}
	origSt := decodeStream(dec)
	respSt := decodeStream(dec)
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	en := &connEntry{LastUse: timer.Time(lastUse), V: conn{
		key:     key,
		uid:     uid,
		ctx:     ctx,
		isTCP:   flags&cfTCP != 0,
		started: flags&cfStarted != 0,
		origSYN: flags&cfOrigSYN != 0,
		respSYN: flags&cfRespSYN != 0,
		// The record itself is built again at the next event.
		recorded: flags&cfRec != 0,
		start:    start,
	}}
	c := &en.V
	if c.isTCP && e.reasm != nil {
		c.origStream.Budget = e.reasm
		c.respStream.Budget = e.reasm
	}
	c.origStream.RestoreState(origSt)
	c.respStream.RestoreState(respSt)
	if c.isTCP {
		e.attachTCPAnalyzer(c)
	}
	if flags&cfStd != 0 {
		orig := decodeHTTPDir(dec)
		resp := decodeHTTPDir(dec)
		methods := decodeStrings(dec)
		if dec.Err() != nil {
			return nil, dec.Err()
		}
		if c.std == nil {
			return nil, fmt.Errorf("bro: state has parser state for %s but no analyzer attached", uid)
		}
		if err := c.std.RestoreState(orig, resp, methods); err != nil {
			return nil, fmt.Errorf("bro: %s: %w", uid, err)
		}
	}
	c.methods = decodeStrings(dec)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return en, nil
}

// --- leaf codecs ---------------------------------------------------------------

func decodeKey(dec *snapshot.Decoder) flow.Key {
	k, err := flow.KeyFromWire(dec.Bytes())
	if err != nil && dec.Err() == nil {
		dec.Fail("bro: %v", err)
	}
	return k
}

func encodeStream(enc *snapshot.Encoder, s *reassembly.Stream) {
	st := s.SnapshotState()
	enc.Bool(st.Initialized)
	enc.U32(st.ISN)
	enc.U64(st.Next)
	enc.U64(st.FinRel)
	enc.Bool(st.FinSeen)
	enc.Bool(st.Closed)
	enc.U32(uint32(len(st.Pending)))
	for _, seg := range st.Pending {
		enc.U64(seg.Rel)
		enc.Bytes(seg.Data)
	}
}

func decodeStream(dec *snapshot.Decoder) reassembly.StreamState {
	var st reassembly.StreamState
	st.Initialized = dec.Bool()
	st.ISN = dec.U32()
	st.Next = dec.U64()
	st.FinRel = dec.U64()
	st.FinSeen = dec.Bool()
	st.Closed = dec.Bool()
	n := dec.Len(12)
	for i := 0; i < n && dec.Err() == nil; i++ {
		rel := dec.U64()
		data := dec.Bytes()
		st.Pending = append(st.Pending, reassembly.SegmentState{Rel: rel, Data: data})
	}
	return st
}

// encodeHTTPDir writes one direction of the hand-written HTTP parser. A body
// in progress is its digest state, length and head bytes, not the bytes
// received so far.
func encodeHTTPDir(enc *snapshot.Encoder, st analyzers.HTTPDirState) {
	enc.Bytes(st.Buf)
	enc.U8(byte(st.State))
	enc.I64(int64(st.Remain))
	enc.String(st.Ctype)
	enc.Bytes(st.Digest)
	enc.I64(int64(st.BodyLen))
	enc.Bytes(st.Head)
	enc.Bool(st.IsHead)
	enc.I64(int64(st.Status))
}

func decodeHTTPDir(dec *snapshot.Decoder) analyzers.HTTPDirState {
	var st analyzers.HTTPDirState
	st.Buf = dec.Bytes()
	st.State = int(dec.U8())
	st.Remain = int(dec.I64())
	st.Ctype = dec.String()
	st.Digest = dec.Bytes()
	st.BodyLen = int(dec.I64())
	st.Head = dec.Bytes()
	st.IsHead = dec.Bool()
	st.Status = int(dec.I64())
	return st
}

func encodeStrings(enc *snapshot.Encoder, ss []string) {
	enc.U32(uint32(len(ss)))
	for _, s := range ss {
		enc.String(s)
	}
}

func decodeStrings(dec *snapshot.Decoder) []string {
	n := dec.Len(4)
	var out []string
	for i := 0; i < n && dec.Err() == nil; i++ {
		out = append(out, dec.String())
	}
	return out
}

// --- interpreter Val codec -----------------------------------------------------

// tableEntryMin is the smallest encoded table entry: key width, a yield
// tag, touch time, seq.
const tableEntryMin = 2 + 1 + 8 + 8

// encodeTableEntry is the one script-table entry layout — keys, yield,
// expiry clock, insertion rank — shared by whole-table values, per-entry
// table diffs, and the entries a flow frame carries.
func encodeTableEntry(enc *snapshot.Encoder, en *tableEntry, depth int) {
	if len(en.V.key) > 0xFFFF {
		enc.Fail("bro: table key too wide")
		return
	}
	enc.U16(uint16(len(en.V.key)))
	for _, k := range en.V.key {
		encodeVal(enc, k, depth)
	}
	encodeVal(enc, en.V.yield, depth)
	enc.I64(int64(en.LastUse))
	enc.U64(en.V.seq)
}

// decodeEntries installs into t the count-prefixed encodeTableEntry
// records next in dec, stopping at the first error the decoder latches.
func decodeEntries(dec *snapshot.Decoder, ip *Interp, t *TableVal, depth int, adopt bool) {
	n := dec.Len(tableEntryMin)
	for i := 0; i < n && dec.Err() == nil; i++ {
		nk := int(dec.U16())
		if dec.Err() != nil || nk > dec.Remaining() {
			dec.Fail("bro: implausible table key width %d", nk)
			return
		}
		it := tableItem{key: make([]Val, nk)}
		for j := range it.key {
			if it.key[j] = decodeVal(dec, ip, depth); it.key[j] == nil {
				dec.Fail("bro: nil table index")
				return
			}
		}
		it.yield = decodeVal(dec, ip, depth)
		touched := dec.I64()
		if it.seq = dec.U64(); dec.Err() == nil {
			t.install(it, touched, adopt)
		}
	}
}

func encodeVal(enc *snapshot.Encoder, v Val, depth int) {
	if depth > valMaxDepth {
		enc.Fail("bro: script value nesting exceeds %d", valMaxDepth)
		return
	}
	switch x := v.(type) {
	case nil:
		enc.U8(valNil)
	case BoolVal:
		enc.U8(valBool)
		enc.Bool(bool(x))
	case CountVal:
		enc.U8(valCount)
		enc.U64(uint64(x))
	case IntVal:
		enc.U8(valInt)
		enc.I64(int64(x))
	case DoubleVal:
		enc.U8(valDouble)
		enc.U64(doubleBits(float64(x)))
	case StringVal:
		enc.U8(valString)
		enc.String(string(x))
	case AddrVal:
		enc.U8(valAddr)
		enc.Value(x.A)
	case SubnetVal:
		enc.U8(valSubnet)
		enc.Value(x.N)
	case PortVal:
		enc.U8(valPort)
		enc.U16(x.Num)
		enc.U8(x.Proto)
	case TimeVal:
		enc.U8(valTime)
		enc.I64(int64(x))
	case IntervalVal:
		enc.U8(valInterval)
		enc.I64(int64(x))
	case EnumVal:
		enc.U8(valEnum)
		enc.String(x.Name)
	case *RecordVal:
		enc.U8(valRecord)
		enc.String(x.T.Name)
		if len(x.T.Fields) > 0xFFFF {
			enc.Fail("bro: record %s has too many fields", x.T.Name)
			return
		}
		enc.U16(uint16(len(x.T.Fields)))
		for _, f := range x.T.Fields {
			enc.String(f)
		}
		for _, f := range x.F {
			encodeVal(enc, f, depth+1)
		}
	case *TableVal:
		enc.U8(valTable)
		enc.Bool(x.IsSet)
		enc.I64(x.ExpireInterval)
		enc.Bool(x.ExpireOnRead)
		enc.U64(x.nextSeq)
		enc.U32(uint32(x.Len()))
		x.tbl.Walk(func(e *tableEntry) bool {
			encodeTableEntry(enc, e, depth+1)
			return true
		})
	case *VectorVal:
		enc.U8(valVector)
		enc.U32(uint32(len(x.Elems)))
		for _, el := range x.Elems {
			encodeVal(enc, el, depth+1)
		}
	case *FuncVal:
		enc.U8(valFunc)
		enc.String(x.Name)
	default:
		enc.Fail("bro: cannot checkpoint script value of type %s", v.TypeName())
	}
}

func decodeVal(dec *snapshot.Decoder, ip *Interp, depth int) Val {
	if dec.Err() != nil {
		return nil
	}
	if depth > valMaxDepth {
		dec.Fail("bro: script value nesting exceeds %d", valMaxDepth)
		return nil
	}
	switch tag := dec.U8(); tag {
	case valNil:
		return nil
	case valBool:
		return BoolVal(dec.Bool())
	case valCount:
		return CountVal(dec.U64())
	case valInt:
		return IntVal(dec.I64())
	case valDouble:
		return DoubleVal(doubleFromBits(dec.U64()))
	case valString:
		return StringVal(dec.String())
	case valAddr:
		return AddrVal{A: dec.Value()}
	case valSubnet:
		return SubnetVal{N: dec.Value()}
	case valPort:
		num := dec.U16()
		return PortVal{Num: num, Proto: dec.U8()}
	case valTime:
		return TimeVal(dec.I64())
	case valInterval:
		return IntervalVal(dec.I64())
	case valEnum:
		return EnumVal{Name: dec.String()}
	case valRecord:
		name := dec.String()
		nf := int(dec.U16())
		if dec.Err() != nil || nf > dec.Remaining() {
			dec.Fail("bro: implausible record field count %d", nf)
			return nil
		}
		fields := make([]string, nf)
		for i := range fields {
			fields[i] = dec.String()
		}
		rt := ip.Records[name]
		if rt == nil || len(rt.Fields) != nf {
			rt = NewRecordType(name, fields...)
		}
		rec := NewRecord(rt)
		for i := 0; i < nf; i++ {
			rec.F[i] = decodeVal(dec, ip, depth+1)
		}
		return rec
	case valTable:
		isSet := dec.Bool()
		interval := dec.I64()
		t := ip.newTable(isSet, interval, dec.Bool())
		t.nextSeq = dec.U64()
		decodeEntries(dec, ip, t, depth+1, false)
		t.settle()
		return t
	case valVector:
		n := dec.Len(1)
		vec := &VectorVal{}
		for i := 0; i < n && dec.Err() == nil; i++ {
			vec.Elems = append(vec.Elems, decodeVal(dec, ip, depth+1))
		}
		return vec
	case valFunc:
		name := dec.String()
		if fd, ok := ip.Funcs[name]; ok {
			return &FuncVal{Name: name, Decl: fd}
		}
		return nil
	default:
		dec.Fail("bro: unknown script value tag %d", tag)
		return nil
	}
}

func doubleBits(f float64) uint64     { return math.Float64bits(f) }
func doubleFromBits(b uint64) float64 { return math.Float64frombits(b) }
