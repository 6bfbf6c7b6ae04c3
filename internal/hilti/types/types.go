// Package types implements HILTI's static type system (paper §3.2): the
// domain-specific first-class types, parameterized container and reference
// types, and named user types (structs, enums, overlays). All HILTI values
// are statically typed; containers, iterators and references are
// parameterized by element type, which is what makes the memory model
// type-safe and gives the compiler the context the paper's §7 optimization
// discussion builds on.
package types

import (
	"strconv"
	"strings"

	"hilti/internal/rt/overlay"
	"hilti/internal/rt/values"
)

// Kind enumerates HILTI's type constructors.
type Kind int

// The type kinds.
const (
	Void Kind = iota
	Any       // host-glue escape hatch
	Bool
	Int // width-parameterized: int<8>..int<64>
	Double
	String
	Bytes
	Addr
	Net
	Port
	Time
	Interval
	Enum
	Bitset
	Tuple // Params: element types
	Struct
	List       // Params[0]: element
	Vector     // Params[0]: element
	Set        // Params[0]: element
	Map        // Params[0]: key, Params[1]: value
	Iterator   // Params[0]: container type
	Ref        // Params[0]: referent
	Channel    // Params[0]: element
	Classifier // Params[0]: rule struct, Params[1]: value
	RegExp
	MatchState
	Timer
	TimerMgr
	File
	Callable // Params[0]: result, Params[1:]: args
	Exception
	Overlay
	IOSrc
	Profiler
	Function // function type for references; Params[0]: result, Params[1:]: args
	Hook
	Digest // incremental hash state (hash.new/update/final)
)

// Type is a HILTI type. Types are interned only informally: compare with
// Equal, not pointer identity.
type Type struct {
	Kind   Kind
	Width  int     // Int: bit width (8, 16, 32, 64)
	Params []*Type // type parameters, per Kind

	// Named types.
	Name       string
	EnumDef    *values.EnumType
	BitsetDef  *values.BitsetType
	StructDef  *StructDef
	OverlayDef *overlay.Overlay
	ExcName    string // Exception: qualified name, e.g. "Hilti::IndexError"
}

// StructDef describes a struct type's fields at the type level; the
// runtime-level values.StructDef is derived from it.
type StructDef struct {
	Name   string
	Fields []StructField
	RT     *values.StructDef // lazily built runtime definition
}

// StructField is one field of a struct type.
type StructField struct {
	Name    string
	Type    *Type
	Default values.Value // KindUnset when absent
}

// Runtime returns (building once) the runtime struct definition.
func (d *StructDef) Runtime() *values.StructDef {
	if d.RT == nil {
		fs := make([]values.StructField, len(d.Fields))
		for i, f := range d.Fields {
			fs[i] = values.StructField{Name: f.Name, Default: f.Default}
		}
		d.RT = values.NewStructDef(d.Name, fs...)
	}
	return d.RT
}

// Index returns the positional index of a field, or -1.
func (d *StructDef) Index(name string) int {
	for i, f := range d.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// --- Constructors ------------------------------------------------------------

// Singleton simple types.
var (
	VoidT     = &Type{Kind: Void}
	AnyT      = &Type{Kind: Any}
	BoolT     = &Type{Kind: Bool}
	DoubleT   = &Type{Kind: Double}
	StringT   = &Type{Kind: String}
	BytesT    = &Type{Kind: Bytes}
	AddrT     = &Type{Kind: Addr}
	NetT      = &Type{Kind: Net}
	PortT     = &Type{Kind: Port}
	TimeT     = &Type{Kind: Time}
	IntervalT = &Type{Kind: Interval}
	RegExpT   = &Type{Kind: RegExp}
	MatchT    = &Type{Kind: MatchState}
	TimerT    = &Type{Kind: Timer}
	TimerMgrT = &Type{Kind: TimerMgr}
	FileT     = &Type{Kind: File}
	IOSrcT    = &Type{Kind: IOSrc}
	ProfilerT = &Type{Kind: Profiler}
	DigestT   = &Type{Kind: Digest}
	ExcT      = &Type{Kind: Exception, ExcName: "Hilti::Exception"}
)

// IntT returns int<width>.
func IntT(width int) *Type { return &Type{Kind: Int, Width: width} }

// Int64T is the default integer type.
var Int64T = IntT(64)

// TupleT returns tuple<elems...>.
func TupleT(elems ...*Type) *Type { return &Type{Kind: Tuple, Params: elems} }

// ListT returns list<elem>.
func ListT(elem *Type) *Type { return &Type{Kind: List, Params: []*Type{elem}} }

// VectorT returns vector<elem>.
func VectorT(elem *Type) *Type { return &Type{Kind: Vector, Params: []*Type{elem}} }

// SetT returns set<elem>.
func SetT(elem *Type) *Type { return &Type{Kind: Set, Params: []*Type{elem}} }

// MapT returns map<key, value>.
func MapT(key, val *Type) *Type { return &Type{Kind: Map, Params: []*Type{key, val}} }

// RefT returns ref<t>.
func RefT(t *Type) *Type { return &Type{Kind: Ref, Params: []*Type{t}} }

// IterT returns iterator<container>.
func IterT(container *Type) *Type { return &Type{Kind: Iterator, Params: []*Type{container}} }

// ChannelT returns channel<elem>.
func ChannelT(elem *Type) *Type { return &Type{Kind: Channel, Params: []*Type{elem}} }

// ClassifierT returns classifier<rule, value>.
func ClassifierT(rule, val *Type) *Type {
	return &Type{Kind: Classifier, Params: []*Type{rule, val}}
}

// CallableT returns callable<result, args...>.
func CallableT(result *Type, args ...*Type) *Type {
	return &Type{Kind: Callable, Params: append([]*Type{result}, args...)}
}

// StructT returns a named struct type.
func StructT(def *StructDef) *Type {
	return &Type{Kind: Struct, Name: def.Name, StructDef: def}
}

// EnumT returns a named enum type.
func EnumT(def *values.EnumType) *Type {
	return &Type{Kind: Enum, Name: def.Name, EnumDef: def}
}

// OverlayT returns a named overlay type.
func OverlayT(def *overlay.Overlay) *Type {
	return &Type{Kind: Overlay, Name: def.Name, OverlayDef: def}
}

// ExceptionT returns an exception type with a qualified name.
func ExceptionT(name string) *Type { return &Type{Kind: Exception, ExcName: name} }

// --- Operations --------------------------------------------------------------

// Deref strips one level of ref<>.
func (t *Type) Deref() *Type {
	if t != nil && t.Kind == Ref && len(t.Params) == 1 {
		return t.Params[0]
	}
	return t
}

// Elem returns the element type of a container (map: the value type).
func (t *Type) Elem() *Type {
	u := t.Deref()
	switch u.Kind {
	case List, Vector, Set, Channel:
		return u.Params[0]
	case Map:
		return u.Params[1]
	case Tuple:
		return AnyT
	default:
		return AnyT
	}
}

// Equal reports structural type equality (named types by name).
func Equal(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Int:
		return a.Width == b.Width
	case Enum, Bitset, Struct, Overlay:
		return a.Name == b.Name
	case Exception:
		return a.ExcName == b.ExcName
	}
	if len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if !Equal(a.Params[i], b.Params[i]) {
			return false
		}
	}
	return true
}

// Compatible reports assignment compatibility: equal types, anything into
// any, and integer widths widen implicitly (the runtime computes in 64
// bits, as the paper's prototype does for overloaded int instructions).
func Compatible(dst, src *Type) bool {
	if dst == nil || src == nil {
		return true // unknown: defer to runtime
	}
	if dst.Kind == Any || src.Kind == Any {
		return true
	}
	if dst.Kind == Int && src.Kind == Int {
		return true
	}
	// ref<T> and T interconvert implicitly for the heap types, as HILTI
	// code manipulates heap objects only through references.
	return Equal(dst.Deref(), src.Deref())
}

// ValueKind maps a type to the runtime value kind it produces.
func (t *Type) ValueKind() values.Kind {
	switch t.Deref().Kind {
	case Bool:
		return values.KindBool
	case Int:
		return values.KindInt
	case Double:
		return values.KindDouble
	case String:
		return values.KindString
	case Bytes:
		return values.KindBytes
	case Addr:
		return values.KindAddr
	case Net:
		return values.KindNet
	case Port:
		return values.KindPort
	case Time:
		return values.KindTime
	case Interval:
		return values.KindInterval
	case Enum:
		return values.KindEnum
	case Bitset:
		return values.KindBitset
	case Tuple:
		return values.KindTuple
	case Struct:
		return values.KindStruct
	case List:
		return values.KindList
	case Vector:
		return values.KindVector
	case Set:
		return values.KindSet
	case Map:
		return values.KindMap
	case Channel:
		return values.KindChannel
	case Classifier:
		return values.KindClassifier
	case RegExp:
		return values.KindRegExp
	case MatchState:
		return values.KindMatchState
	case Timer:
		return values.KindTimer
	case TimerMgr:
		return values.KindTimerMgr
	case File:
		return values.KindFile
	case Callable:
		return values.KindCallable
	case Exception:
		return values.KindException
	case Overlay:
		return values.KindOverlay
	case IOSrc:
		return values.KindIOSrc
	case Profiler:
		return values.KindProfiler
	case Function:
		return values.KindFunction
	case Digest:
		return values.KindDigest
	default:
		return values.KindVoid
	}
}

// String renders the type in HILTI surface syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Void:
		return "void"
	case Any:
		return "any"
	case Bool:
		return "bool"
	case Int:
		return "int<" + strconv.Itoa(t.Width) + ">"
	case Double:
		return "double"
	case String:
		return "string"
	case Bytes:
		return "bytes"
	case Addr:
		return "addr"
	case Net:
		return "net"
	case Port:
		return "port"
	case Time:
		return "time"
	case Interval:
		return "interval"
	case Enum, Bitset, Struct, Overlay:
		if t.Name != "" {
			return t.Name
		}
		return strings.ToLower(kindName(t.Kind))
	case Exception:
		if t.ExcName != "" {
			return t.ExcName
		}
		return "exception"
	case RegExp:
		return "regexp"
	case MatchState:
		return "match_state"
	case Timer:
		return "timer"
	case TimerMgr:
		return "timer_mgr"
	case File:
		return "file"
	case IOSrc:
		return "iosrc"
	case Profiler:
		return "profiler"
	case Hook:
		return "hook"
	case Digest:
		return "digest"
	default:
		return kindName(t.Kind) + "<" + joinTypes(t.Params) + ">"
	}
}

func kindName(k Kind) string {
	switch k {
	case Tuple:
		return "tuple"
	case List:
		return "list"
	case Vector:
		return "vector"
	case Set:
		return "set"
	case Map:
		return "map"
	case Iterator:
		return "iterator"
	case Ref:
		return "ref"
	case Channel:
		return "channel"
	case Classifier:
		return "classifier"
	case Callable:
		return "callable"
	case Function:
		return "function"
	default:
		return "type"
	}
}

func joinTypes(ts []*Type) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}

// Hashable reports whether values of t may key maps/sets.
func (t *Type) Hashable() bool {
	switch t.Deref().Kind {
	case Bool, Int, Double, String, Bytes, Addr, Net, Port, Time, Interval, Enum, Bitset:
		return true
	case Tuple:
		for _, e := range t.Deref().Params {
			if !e.Hashable() {
				return false
			}
		}
		return true
	default:
		return false
	}
}
