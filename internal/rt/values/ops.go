// Generic value operations: equality, ordering, hashing/key encoding,
// formatting, and deep copying. These back HILTI's overloaded operators
// (equal, map/set keying, Hilti::print, and the deep-copy semantics of
// inter-thread message passing).

package values

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Equal reports whether two values are equal under HILTI's `equal`
// operator. Values of different kinds are unequal (the type checker
// prevents such comparisons statically; the runtime is simply safe).
func Equal(a, b Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case KindVoid, KindUnset:
		return true
	case KindBool, KindInt, KindDouble, KindTime, KindInterval, KindEnum, KindBitset:
		return a.A == b.A
	case KindAddr:
		return a.A == b.A && a.B == b.B
	case KindNet:
		return a.A == b.A && a.B == b.B && a.NetPrefixLen() == b.NetPrefixLen()
	case KindPort:
		return a.A == b.A && a.B == b.B
	case KindString:
		return a.AsString() == b.AsString()
	case KindBytes:
		ab, bb := a.AsBytes(), b.AsBytes()
		if ab == nil || bb == nil {
			return ab == bb
		}
		return ab.Equal(bb)
	case KindIterBytes:
		return a.O == b.O && a.A == b.A
	case KindTuple:
		at, bt := a.AsTuple(), b.AsTuple()
		if at == nil || bt == nil || len(at.Elems) != len(bt.Elems) {
			return false
		}
		for i := range at.Elems {
			if !Equal(at.Elems[i], bt.Elems[i]) {
				return false
			}
		}
		return true
	default:
		// Reference kinds compare by identity.
		return a.O == b.O
	}
}

// Compare orders two values of the same comparable kind: -1, 0 or +1.
func Compare(a, b Value) int {
	switch a.K {
	case KindInt, KindTime, KindInterval:
		x, y := int64(a.A), int64(b.A)
		return cmpI64(x, y)
	case KindBool, KindEnum, KindBitset:
		return cmpU64(a.A, b.A)
	case KindDouble:
		x, y := a.AsDouble(), b.AsDouble()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(a.AsString(), b.AsString())
	case KindBytes:
		return a.AsBytes().Compare(b.AsBytes())
	case KindAddr, KindNet:
		if c := cmpU64(a.A, b.A); c != 0 {
			return c
		}
		if c := cmpU64(a.B, b.B); c != 0 {
			return c
		}
		return cmpI64(int64(a.NetPrefixLen()), int64(b.NetPrefixLen()))
	case KindPort:
		if c := cmpU64(a.A, b.A); c != 0 {
			return c
		}
		return cmpU64(a.B, b.B)
	case KindTuple:
		at, bt := a.AsTuple(), b.AsTuple()
		n := len(at.Elems)
		if len(bt.Elems) < n {
			n = len(bt.Elems)
		}
		for i := 0; i < n; i++ {
			if c := Compare(at.Elems[i], bt.Elems[i]); c != 0 {
				return c
			}
		}
		return cmpI64(int64(len(at.Elems)), int64(len(bt.Elems)))
	default:
		return 0
	}
}

func cmpI64(x, y int64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	default:
		return 0
	}
}

func cmpU64(x, y uint64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	default:
		return 0
	}
}

// AppendKey appends a canonical byte encoding of v to dst, for use as a
// hash-map/set key. Two values encode identically iff Equal reports them
// equal. It returns false when the value's kind is not hashable.
func AppendKey(dst []byte, v Value) ([]byte, bool) {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindVoid, KindUnset:
		return dst, true
	case KindBool, KindInt, KindDouble, KindTime, KindInterval, KindEnum, KindBitset:
		return binary.BigEndian.AppendUint64(dst, v.A), true
	case KindAddr, KindPort:
		dst = binary.BigEndian.AppendUint64(dst, v.A)
		return binary.BigEndian.AppendUint64(dst, v.B), true
	case KindNet:
		dst = binary.BigEndian.AppendUint64(dst, v.A)
		dst = binary.BigEndian.AppendUint64(dst, v.B)
		return append(dst, byte(v.NetPrefixLen())), true
	case KindString:
		s := v.AsString()
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
		return append(dst, s...), true
	case KindBytes:
		b := v.AsBytes().Bytes()
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
		return append(dst, b...), true
	case KindTuple:
		t := v.AsTuple()
		dst = append(dst, byte(len(t.Elems)))
		ok := true
		for _, e := range t.Elems {
			if dst, ok = AppendKey(dst, e); !ok {
				return dst, false
			}
		}
		return dst, true
	default:
		return dst, false
	}
}

// Key returns the canonical string key of v (see AppendKey), panicking on
// unhashable kinds; the type checker rules those out statically.
func Key(v Value) string {
	b, ok := AppendKey(make([]byte, 0, 32), v)
	if !ok {
		panic(fmt.Sprintf("values: unhashable kind %v", v.K))
	}
	return string(b)
}

// DeepCopy produces an independent copy of v following HILTI's message
// passing semantics: all mutable data is duplicated so sender and receiver
// cannot observe each other's modifications.
func DeepCopy(v Value) Value {
	switch v.K {
	case KindBytes:
		if b := v.AsBytes(); b != nil {
			return BytesVal(b.Copy())
		}
		return v
	case KindTuple:
		t := v.AsTuple()
		nt := NewTuple(len(t.Elems))
		for i, e := range t.Elems {
			nt.Elems[i] = DeepCopy(e)
		}
		return Value{K: KindTuple, O: nt}
	case KindStruct:
		s := v.AsStruct()
		ns := newStruct(s.Def, len(s.Fields))
		for i, f := range s.Fields {
			ns.Fields[i] = DeepCopy(f)
		}
		return StructVal(ns)
	case KindDigest:
		// A SHA-1 state always round-trips.
		state, _ := DigestState(v)
		d, _ := DigestFromState(state)
		return d
	default:
		if dc, ok := v.O.(DeepCopier); ok {
			return Value{K: v.K, A: v.A, B: v.B, O: dc.DeepCopyObj()}
		}
		return v
	}
}

// Format renders v the way Hilti::print does.
func Format(v Value) string {
	switch v.K {
	case KindVoid:
		return "(void)"
	case KindUnset:
		return "(unset)"
	case KindBool:
		if v.AsBool() {
			return "True"
		}
		return "False"
	case KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case KindDouble:
		return strconv.FormatFloat(v.AsDouble(), 'g', -1, 64)
	case KindString:
		return v.AsString()
	case KindBytes:
		if b := v.AsBytes(); b != nil {
			return string(b.Bytes())
		}
		return "(null)"
	case KindAddr:
		return formatAddr(v)
	case KindNet:
		return formatNet(v)
	case KindPort:
		p, proto := v.AsPort()
		return strconv.Itoa(int(p)) + "/" + protoName(proto)
	case KindTime:
		ns := v.AsTimeNs()
		return time.Unix(ns/1e9, ns%1e9).UTC().Format("2006-01-02T15:04:05.000000Z")
	case KindInterval:
		return strconv.FormatFloat(float64(v.AsIntervalNs())/1e9, 'f', 6, 64) + "s"
	case KindEnum:
		t, _ := v.O.(*EnumType)
		if t != nil {
			return t.Name + "::" + t.Label(v.AsInt())
		}
		return "enum(" + strconv.FormatInt(v.AsInt(), 10) + ")"
	case KindBitset:
		t, _ := v.O.(*BitsetType)
		if t == nil {
			return "bitset(" + strconv.FormatUint(v.A, 16) + ")"
		}
		var set []string
		for label, bit := range t.Bits {
			if v.A&(1<<bit) != 0 {
				set = append(set, label)
			}
		}
		sort.Strings(set)
		return strings.Join(set, "|")
	case KindTuple:
		t := v.AsTuple()
		parts := make([]string, len(t.Elems))
		for i, e := range t.Elems {
			parts[i] = Format(e)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case KindStruct:
		s := v.AsStruct()
		var sb strings.Builder
		sb.WriteByte('<')
		for i, f := range s.Fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(s.Def.Fields[i].Name)
			sb.WriteByte('=')
			if f.K == KindUnset {
				sb.WriteString("(unset)")
			} else {
				sb.WriteString(Format(f))
			}
		}
		sb.WriteByte('>')
		return sb.String()
	case KindException:
		return v.AsException().Error()
	case KindIterBytes:
		return fmt.Sprintf("<bytes iterator @%d>", v.AsIterBytes().Offset())
	default:
		if f, ok := v.O.(Formatter); ok {
			return f.FormatObj()
		}
		if o := v.AsObject(); o != nil {
			return "<" + o.TypeName() + ">"
		}
		return "<" + v.K.String() + ">"
	}
}

func protoName(p uint8) string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoICMP:
		return "icmp"
	default:
		return "proto" + strconv.Itoa(int(p))
	}
}

// ParsePort parses "80/tcp" into a port value.
func ParsePort(s string) (Value, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Nil, fmt.Errorf("invalid port %q", s)
	}
	n, err := strconv.ParseUint(s[:slash], 10, 16)
	if err != nil {
		return Nil, fmt.Errorf("invalid port number in %q", s)
	}
	var proto uint8
	switch s[slash+1:] {
	case "tcp":
		proto = ProtoTCP
	case "udp":
		proto = ProtoUDP
	case "icmp":
		proto = ProtoICMP
	default:
		return Nil, fmt.Errorf("invalid protocol in %q", s)
	}
	return PortVal(uint16(n), proto), nil
}

// Hash returns a 64-bit FNV-1a hash of the canonical key encoding; HILTI
// uses it for the ID computation of hash-based thread scheduling.
func Hash(v Value) uint64 {
	key, ok := AppendKey(make([]byte, 0, 32), v)
	if !ok {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// IsTruthy implements HILTI's boolean coercion for conditional branches on
// non-bool operands (container emptiness, non-zero numbers).
func IsTruthy(v Value) bool {
	switch v.K {
	case KindBool, KindInt, KindEnum, KindBitset:
		return v.A != 0
	case KindDouble:
		return v.AsDouble() != 0
	case KindString:
		return v.AsString() != ""
	case KindBytes:
		return v.AsBytes() != nil && v.AsBytes().Len() > 0
	case KindVoid, KindUnset:
		return false
	default:
		return v.O != nil
	}
}

// NaN is a double NaN value, used by tests.
var NaN = Double(math.NaN())
