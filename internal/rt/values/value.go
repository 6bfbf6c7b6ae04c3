// Package values implements the runtime representation of HILTI values.
//
// HILTI's abstract machine is statically typed, with a set of domain-specific
// first-class types (paper §3.2): IP addresses transparently covering IPv4
// and IPv6, CIDR subnets, transport-layer ports, nanosecond-resolution times
// and intervals, raw bytes, Unicode strings, enums, bitsets, tuples and
// structs, plus reference types for the runtime-library objects (containers,
// channels, classifiers, regexps, timers, files, fibers).
//
// A Value is a small tagged struct: primitive payloads live unboxed in two
// 64-bit words (integers, booleans, doubles, times, intervals, ports, and
// full 128-bit addresses), while heap objects hang off an interface field.
// A string is a pointer and a length: its data pointer (a *byte, which an
// interface holds without a box) sits in O and its length in A, so making a
// string value copies no bytes and allocates nothing. This keeps per-packet
// hot paths (address compares, port checks, integer arithmetic, event
// strings handed to compiled scripts) free of allocations, matching the
// paper's emphasis on real-time performance.
package values

import (
	"math"
	"unsafe"

	"hilti/internal/rt/hbytes"
)

// Kind enumerates the runtime type tags of a Value.
type Kind uint8

// The value kinds. Kinds above KindRefBase carry their payload in Value.O.
const (
	KindVoid  Kind = iota
	KindUnset      // an unset struct field / absent optional
	KindBool
	KindInt
	KindDouble
	KindString
	KindAddr
	KindNet
	KindPort
	KindTime
	KindInterval
	KindEnum
	KindBitset
	KindIterBytes

	// Reference kinds: payload in O.
	KindBytes
	KindTuple
	KindStruct
	KindList
	KindVector
	KindSet
	KindMap
	KindIterList
	KindIterVector
	KindIterSet
	KindIterMap
	KindChannel
	KindClassifier
	KindRegExp
	KindMatchState
	KindTimer
	KindTimerMgr
	KindFile
	KindCallable
	KindException
	KindOverlay
	KindIOSrc
	KindProfiler
	KindFunction // a function reference (for call indirection / hooks)
	KindAny      // dynamic escape hatch for host glue
	KindDigest   // incremental hash state (digest.go)
)

var kindNames = [...]string{
	KindVoid: "void", KindUnset: "unset", KindBool: "bool", KindInt: "int",
	KindDouble: "double", KindString: "string", KindAddr: "addr",
	KindNet: "net", KindPort: "port", KindTime: "time",
	KindInterval: "interval", KindEnum: "enum", KindBitset: "bitset",
	KindIterBytes: "iterator<bytes>", KindBytes: "bytes",
	KindTuple: "tuple", KindStruct: "struct", KindList: "list",
	KindVector: "vector", KindSet: "set", KindMap: "map",
	KindIterList: "iterator<list>", KindIterVector: "iterator<vector>",
	KindIterSet: "iterator<set>", KindIterMap: "iterator<map>",
	KindChannel: "channel", KindClassifier: "classifier",
	KindRegExp: "regexp", KindMatchState: "match_state",
	KindTimer: "timer", KindTimerMgr: "timer_mgr", KindFile: "file",
	KindCallable: "callable", KindException: "exception",
	KindOverlay: "overlay", KindIOSrc: "iosrc", KindProfiler: "profiler",
	KindFunction: "function", KindAny: "any", KindDigest: "digest",
}

// String returns the HILTI-level name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Value is a single HILTI runtime value. See the package comment for the
// payload layout per kind.
type Value struct {
	K Kind
	A uint64 // primary scalar payload (int64 bits, float64 bits, addr hi, ...)
	B uint64 // secondary scalar payload (addr lo, port proto, iter offset, ...)
	// O is the heap payload for reference kinds. For KindString it is the
	// string's data pointer as a *byte (length in A): a real pointer, never
	// a uintptr, so the value keeps the bytes alive. Only String writes it
	// and only AsString reads it.
	O any
}

// Object is implemented by runtime-library heap objects carried in Value.O
// (containers, channels, classifiers, ...). The optional companion
// interfaces below let the values package dispatch generic operations
// without importing the packages that define the objects.
type Object interface {
	// TypeName returns the HILTI-level type name, e.g. "map" or "regexp".
	TypeName() string
}

// DeepCopier is implemented by objects supporting HILTI's deep-copy message
// passing semantics.
type DeepCopier interface{ DeepCopyObj() Object }

// Formatter is implemented by objects that can render themselves for
// Hilti::print and string interpolation.
type Formatter interface{ FormatObj() string }

// Nil is the zero Value (kind void).
var Nil = Value{}

// Unset is the distinguished unset-field value.
var Unset = Value{K: KindUnset}

// --- Constructors -----------------------------------------------------------

// Bool returns a boolean value.
func Bool(b bool) Value {
	var a uint64
	if b {
		a = 1
	}
	return Value{K: KindBool, A: a}
}

// Int returns a signed integer value. HILTI's int<N> widths are enforced by
// the type checker; the runtime computes in 64 bits.
func Int(i int64) Value { return Value{K: KindInt, A: uint64(i)} }

// Uint returns an integer value from an unsigned quantity.
func Uint(u uint64) Value { return Value{K: KindInt, A: u} }

// Double returns a floating-point value.
func Double(f float64) Value { return Value{K: KindDouble, A: math.Float64bits(f)} }

// String returns a Unicode string value. It shares s's bytes, which Go
// strings never change, and allocates nothing.
func String(s string) Value {
	return Value{K: KindString, A: uint64(len(s)), O: unsafe.StringData(s)}
}

// BytesVal wraps a byte rope.
func BytesVal(b *hbytes.Bytes) Value { return Value{K: KindBytes, O: b} }

// BytesFrom builds a frozen byte rope from raw data.
func BytesFrom(data []byte) Value {
	b := hbytes.NewFrom(data)
	b.Freeze()
	return BytesVal(b)
}

// IterBytes wraps a bytes iterator without allocation: the absolute offset
// lives in A (with the end sentinel mapped to MaxUint64) and the rope in O.
func IterBytes(it hbytes.Iter) Value {
	off := uint64(it.Offset())
	if it.IsEnd() {
		off = math.MaxUint64
	}
	return Value{K: KindIterBytes, A: off, O: it.Bytes()}
}

// TimeVal returns a time value from nanoseconds since the Unix epoch.
func TimeVal(ns int64) Value { return Value{K: KindTime, A: uint64(ns)} }

// IntervalVal returns an interval value from nanoseconds.
func IntervalVal(ns int64) Value { return Value{K: KindInterval, A: uint64(ns)} }

// Seconds converts a float seconds quantity into an interval value.
func Seconds(s float64) Value { return IntervalVal(int64(s * 1e9)) }

// PortVal returns a transport-layer port such as 80/tcp. proto uses IP
// protocol numbers (ProtoTCP, ProtoUDP, ProtoICMP).
func PortVal(port uint16, proto uint8) Value {
	return Value{K: KindPort, A: uint64(port), B: uint64(proto)}
}

// EnumVal returns an enum value of the given type definition.
func EnumVal(t *EnumType, v int64) Value {
	return Value{K: KindEnum, A: uint64(v), O: t}
}

// BitsetVal returns a bitset value of the given type definition.
func BitsetVal(t *BitsetType, bits uint64) Value {
	return Value{K: KindBitset, A: bits, O: t}
}

// Ref wraps a runtime-library object with the given kind tag.
func Ref(k Kind, o Object) Value { return Value{K: k, O: o} }

// Any wraps an arbitrary Go value for host-application glue.
func Any(o any) Value { return Value{K: KindAny, O: o} }

// --- Accessors --------------------------------------------------------------

// AsBool extracts a boolean payload.
func (v Value) AsBool() bool { return v.A != 0 }

// AsInt extracts a signed integer payload.
func (v Value) AsInt() int64 { return int64(v.A) }

// AsUint extracts an unsigned integer payload.
func (v Value) AsUint() uint64 { return v.A }

// AsDouble extracts a floating-point payload.
func (v Value) AsDouble() float64 { return math.Float64frombits(v.A) }

// AsString extracts a string payload, or "" when v is not a string value.
func (v Value) AsString() string {
	p, ok := v.O.(*byte)
	if !ok || v.K != KindString {
		return ""
	}
	return unsafe.String(p, int(v.A))
}

// AsBytes extracts a byte-rope payload.
func (v Value) AsBytes() *hbytes.Bytes {
	b, _ := v.O.(*hbytes.Bytes)
	return b
}

// AsIterBytes reconstructs a bytes iterator.
func (v Value) AsIterBytes() hbytes.Iter {
	b, _ := v.O.(*hbytes.Bytes)
	if b == nil {
		return hbytes.Iter{}
	}
	if v.A == math.MaxUint64 {
		return b.End()
	}
	return b.At(int64(v.A))
}

// AsTimeNs returns a time payload in nanoseconds since the epoch.
func (v Value) AsTimeNs() int64 { return int64(v.A) }

// AsIntervalNs returns an interval payload in nanoseconds.
func (v Value) AsIntervalNs() int64 { return int64(v.A) }

// AsPort returns the port number and IP protocol of a port value.
func (v Value) AsPort() (uint16, uint8) { return uint16(v.A), uint8(v.B) }

// AsObject returns the heap payload as an Object (nil when absent).
func (v Value) AsObject() Object {
	o, _ := v.O.(Object)
	return o
}

// IsNil reports whether the value is void/unset or a nil reference.
func (v Value) IsNil() bool {
	switch v.K {
	case KindVoid, KindUnset:
		return true
	}
	if v.K >= KindBytes {
		return v.O == nil
	}
	return false
}

// IP protocol numbers for port values.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// --- Named auxiliary types ---------------------------------------------------

// EnumType describes a HILTI enum type: a name plus labeled values. An
// additional implicit Undef label (value -1) exists on every enum, matching
// HILTI semantics.
type EnumType struct {
	Name   string
	Labels map[int64]string // value -> label
	Values map[string]int64 // label -> value
}

// NewEnumType builds an enum type from ordered labels (values 0..n-1).
func NewEnumType(name string, labels ...string) *EnumType {
	t := &EnumType{Name: name, Labels: map[int64]string{}, Values: map[string]int64{}}
	for i, l := range labels {
		t.Labels[int64(i)] = l
		t.Values[l] = int64(i)
	}
	return t
}

// Label returns the label for value v, or "Undef".
func (t *EnumType) Label(v int64) string {
	if t != nil {
		if l, ok := t.Labels[v]; ok {
			return l
		}
	}
	return "Undef"
}

// BitsetType describes a HILTI bitset type: named bit positions.
type BitsetType struct {
	Name string
	Bits map[string]uint // label -> bit position
}

// Tuple is the heap payload of a tuple value.
type Tuple struct{ Elems []Value }

// TypeName implements Object.
func (t *Tuple) TypeName() string { return "tuple" }

// TupleVal builds a tuple value holding a copy of elems.
func TupleVal(elems ...Value) Value {
	t := NewTuple(len(elems))
	copy(t.Elems, elems)
	return Value{K: KindTuple, O: t}
}

// NewTuple returns a tuple of n zero elements for the caller to fill. Up
// to 4 elements live in the tuple's own object; a longer tuple is a header
// and an array.
func NewTuple(n int) *Tuple {
	switch n {
	case 0:
		return &Tuple{}
	case 1:
		return NewInline(func(t *Tuple, a *[1]Value) { t.Elems = a[:] })
	case 2:
		return NewInline(func(t *Tuple, a *[2]Value) { t.Elems = a[:] })
	case 3:
		return NewInline(func(t *Tuple, a *[3]Value) { t.Elems = a[:] })
	case 4:
		return NewInline(func(t *Tuple, a *[4]Value) { t.Elems = a[:] })
	}
	return &Tuple{Elems: make([]Value, n)}
}

// NewInline allocates a header and the array A it points into as one
// object; slice points the header at the array. A constructor gives each
// inline size its own array type, so a value costs exactly its size.
func NewInline[H, A any](slice func(*H, *A)) *H {
	o := new(struct {
		h H
		a A
	})
	slice(&o.h, &o.a)
	return &o.h
}

// AsTuple extracts the tuple payload (nil if not a tuple).
func (v Value) AsTuple() *Tuple {
	t, _ := v.O.(*Tuple)
	return t
}

// StructDef describes a HILTI struct type.
type StructDef struct {
	Name   string
	Fields []StructField
	byName map[string]int
}

// StructField is one field of a struct definition.
type StructField struct {
	Name    string
	Default Value // KindUnset when no default
}

// NewStructDef builds a struct definition.
func NewStructDef(name string, fields ...StructField) *StructDef {
	d := &StructDef{Name: name, Fields: fields, byName: map[string]int{}}
	for i, f := range fields {
		d.byName[f.Name] = i
	}
	return d
}

// Index returns the positional index of a field name, or -1.
func (d *StructDef) Index(name string) int {
	if d == nil {
		return -1
	}
	if i, ok := d.byName[name]; ok {
		return i
	}
	return -1
}

// Struct is the heap payload of a struct value. Unset fields hold Unset.
type Struct struct {
	Def    *StructDef
	Fields []Value
}

// TypeName implements Object.
func (s *Struct) TypeName() string {
	if s.Def != nil && s.Def.Name != "" {
		return s.Def.Name
	}
	return "struct"
}

// NewStruct instantiates a struct with defaults applied.
func NewStruct(def *StructDef) *Struct {
	s := newStruct(def, len(def.Fields))
	for i, f := range def.Fields {
		if f.Default.K != KindUnset && f.Default.K != KindVoid {
			s.Fields[i] = f.Default
		} else {
			s.Fields[i] = Unset
		}
	}
	return s
}

// newStruct returns a struct of def with n zero fields. Up to 16 fields
// live in the struct's own object; a larger struct is a header and an
// array.
func newStruct(def *StructDef, n int) *Struct {
	var s *Struct
	switch n {
	case 0:
		s = &Struct{}
	case 1:
		s = NewInline(func(s *Struct, a *[1]Value) { s.Fields = a[:] })
	case 2:
		s = NewInline(func(s *Struct, a *[2]Value) { s.Fields = a[:] })
	case 3:
		s = NewInline(func(s *Struct, a *[3]Value) { s.Fields = a[:] })
	case 4:
		s = NewInline(func(s *Struct, a *[4]Value) { s.Fields = a[:] })
	case 5:
		s = NewInline(func(s *Struct, a *[5]Value) { s.Fields = a[:] })
	case 6:
		s = NewInline(func(s *Struct, a *[6]Value) { s.Fields = a[:] })
	case 7:
		s = NewInline(func(s *Struct, a *[7]Value) { s.Fields = a[:] })
	case 8:
		s = NewInline(func(s *Struct, a *[8]Value) { s.Fields = a[:] })
	case 9:
		s = NewInline(func(s *Struct, a *[9]Value) { s.Fields = a[:] })
	case 10:
		s = NewInline(func(s *Struct, a *[10]Value) { s.Fields = a[:] })
	case 11:
		s = NewInline(func(s *Struct, a *[11]Value) { s.Fields = a[:] })
	case 12:
		s = NewInline(func(s *Struct, a *[12]Value) { s.Fields = a[:] })
	case 13:
		s = NewInline(func(s *Struct, a *[13]Value) { s.Fields = a[:] })
	case 14:
		s = NewInline(func(s *Struct, a *[14]Value) { s.Fields = a[:] })
	case 15:
		s = NewInline(func(s *Struct, a *[15]Value) { s.Fields = a[:] })
	case 16:
		s = NewInline(func(s *Struct, a *[16]Value) { s.Fields = a[:] })
	default:
		s = &Struct{Fields: make([]Value, n)}
	}
	s.Def = def
	return s
}

// StructVal wraps a struct payload.
func StructVal(s *Struct) Value { return Value{K: KindStruct, O: s} }

// AsStruct extracts the struct payload (nil if not a struct).
func (v Value) AsStruct() *Struct {
	s, _ := v.O.(*Struct)
	return s
}

// Get returns field i and whether it is set.
func (s *Struct) Get(i int) (Value, bool) {
	if i < 0 || i >= len(s.Fields) {
		return Nil, false
	}
	f := s.Fields[i]
	return f, f.K != KindUnset
}

// GetName returns the named field and whether it is set.
func (s *Struct) GetName(name string) (Value, bool) {
	return s.Get(s.Def.Index(name))
}

// Set assigns field i.
func (s *Struct) Set(i int, v Value) {
	if i >= 0 && i < len(s.Fields) {
		s.Fields[i] = v
	}
}

// SetName assigns the named field.
func (s *Struct) SetName(name string, v Value) { s.Set(s.Def.Index(name), v) }

// Exception is the heap payload of a HILTI exception value.
type Exception struct {
	Name string // exception type, e.g. "Hilti::IndexError"
	Msg  string
	Arg  Value
}

// TypeName implements Object.
func (e *Exception) TypeName() string { return "exception" }

// Error implements error so exceptions propagate naturally through Go code.
func (e *Exception) Error() string {
	if e.Msg == "" {
		return e.Name
	}
	return e.Name + ": " + e.Msg
}

// AsException extracts an exception payload (nil if not an exception).
func (v Value) AsException() *Exception {
	e, _ := v.O.(*Exception)
	return e
}
