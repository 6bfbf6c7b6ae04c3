// Value codec: the recursive encoding of runtime values. Scalar layouts
// mirror values.AppendKey (kind tag + big-endian payload words) so the
// snapshot form and the canonical container-key form agree; containers
// extend the scheme with element last-use timestamps and expiration
// policy, which is what lets a restore re-arm per-element timers at the
// exact deadlines the checkpointed timers held.

package snapshot

import (
	"hilti/internal/rt/container"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

// Value encodes v recursively. Kinds with no serializable representation
// (channels, regexps, fibers, ...) latch an error: checkpoint callers must
// not hold such values in snapshotted state.
func (e *Encoder) Value(v values.Value) { e.value(v, 0) }

func (e *Encoder) value(v values.Value, depth int) {
	if e.err != nil {
		return
	}
	if depth > MaxDepth {
		e.Fail("snapshot: value nesting exceeds depth limit %d", MaxDepth)
		return
	}
	e.U8(byte(v.K))
	switch v.K {
	case values.KindVoid, values.KindUnset:
		// Tag only.
	case values.KindBool, values.KindInt, values.KindDouble,
		values.KindTime, values.KindInterval, values.KindBitset:
		e.U64(v.A)
	case values.KindEnum:
		e.U64(v.A)
		name := ""
		if t, ok := v.O.(*values.EnumType); ok && t != nil {
			name = t.Name
		}
		e.String(name)
	case values.KindAddr, values.KindPort:
		e.U64(v.A)
		e.U64(v.B)
	case values.KindNet:
		e.U64(v.A)
		e.U64(v.B)
		e.U8(byte(v.NetPrefixLen()))
	case values.KindString:
		e.String(v.AsString())
	case values.KindBytes:
		b := v.AsBytes()
		if b == nil {
			e.Bytes(nil)
			return
		}
		e.Bytes(b.Bytes())
	case values.KindTuple:
		t := v.AsTuple()
		if t == nil || len(t.Elems) > 255 {
			e.Fail("snapshot: unserializable tuple (nil or >255 elements)")
			return
		}
		e.U8(byte(len(t.Elems)))
		for _, el := range t.Elems {
			e.value(el, depth+1)
		}
	case values.KindStruct:
		s := v.AsStruct()
		if s == nil || s.Def == nil || len(s.Def.Fields) > 255 {
			e.Fail("snapshot: unserializable struct (nil or >255 fields)")
			return
		}
		e.String(s.Def.Name)
		e.U8(byte(len(s.Def.Fields)))
		for _, f := range s.Def.Fields {
			e.String(f.Name)
		}
		for _, f := range s.Fields {
			e.value(f, depth+1)
		}
	case values.KindVector:
		vec, _ := v.O.(*container.Vector)
		if vec == nil {
			e.Fail("snapshot: nil vector")
			return
		}
		// The element default participates in auto-extension semantics, so
		// it must survive the round trip.
		e.value(vec.Def(), depth+1)
		e.U32(uint32(vec.Len()))
		for _, el := range vec.Elems() {
			e.value(el, depth+1)
		}
	case values.KindList:
		l, _ := v.O.(*container.List)
		if l == nil {
			e.Fail("snapshot: nil list")
			return
		}
		e.U32(uint32(l.Len()))
		ok := true
		l.Each(func(el values.Value) bool {
			e.value(el, depth+1)
			ok = e.err == nil
			return ok
		})
	case values.KindMap:
		m, _ := v.O.(*container.Map)
		if m == nil {
			e.Fail("snapshot: nil map")
			return
		}
		strategy, timeout := m.Timeout()
		e.U8(byte(strategy))
		e.I64(int64(timeout))
		def, hasDef := m.Default()
		e.Bool(hasDef)
		if hasDef {
			e.value(def, depth+1)
		}
		e.U32(uint32(m.Len()))
		m.EachEntry(func(k, val values.Value, lastUse timer.Time) bool {
			e.value(k, depth+1)
			e.value(val, depth+1)
			e.I64(int64(lastUse))
			return e.err == nil
		})
	case values.KindSet:
		s, _ := v.O.(*container.Set)
		if s == nil {
			e.Fail("snapshot: nil set")
			return
		}
		strategy, timeout := s.Timeout()
		e.U8(byte(strategy))
		e.I64(int64(timeout))
		e.U32(uint32(s.Len()))
		s.EachEntry(func(el values.Value, lastUse timer.Time) bool {
			e.value(el, depth+1)
			e.I64(int64(lastUse))
			return e.err == nil
		})
	case values.KindDigest:
		state, err := values.DigestState(v)
		if err != nil {
			e.Fail("snapshot: %v", err)
			return
		}
		e.Bytes(state)
	default:
		e.Fail("snapshot: cannot serialize value of kind %v", v.K)
	}
}

// Value decodes one value. On corrupt input the error latches and the
// zero value is returned; the decoder never panics.
func (d *Decoder) Value() values.Value { return d.value(0) }

func (d *Decoder) value(depth int) values.Value {
	if d.err != nil {
		return values.Nil
	}
	if depth > MaxDepth {
		d.fail("snapshot: value nesting exceeds depth limit %d", MaxDepth)
		return values.Nil
	}
	k := values.Kind(d.U8())
	switch k {
	case values.KindVoid:
		return values.Nil
	case values.KindUnset:
		return values.Unset
	case values.KindBool, values.KindInt, values.KindDouble,
		values.KindTime, values.KindInterval, values.KindBitset:
		return values.Value{K: k, A: d.U64()}
	case values.KindEnum:
		a := d.U64()
		name := d.String()
		var t *values.EnumType
		if d.enums != nil {
			t = d.enums(name)
		}
		if t == nil {
			t = &values.EnumType{Name: name}
		}
		return values.EnumVal(t, int64(a))
	case values.KindAddr, values.KindPort:
		return values.Value{K: k, A: d.U64(), B: d.U64()}
	case values.KindNet:
		a, b := d.U64(), d.U64()
		prefix := d.U8()
		return values.Value{K: k, A: a, B: b, O: int(prefix)}
	case values.KindString:
		return values.String(d.String())
	case values.KindBytes:
		return values.BytesFrom(d.Bytes())
	case values.KindTuple:
		n := int(d.U8())
		if d.err != nil || n > d.Remaining() {
			d.fail("snapshot: implausible tuple arity %d", n)
			return values.Nil
		}
		t := values.NewTuple(n)
		for i := range t.Elems {
			t.Elems[i] = d.value(depth + 1)
		}
		return values.Ref(values.KindTuple, t)
	case values.KindStruct:
		name := d.String()
		n := int(d.U8())
		if d.err != nil || n > d.Remaining() {
			d.fail("snapshot: implausible struct field count %d", n)
			return values.Nil
		}
		fields := make([]string, n)
		for i := range fields {
			fields[i] = d.String()
		}
		var def *values.StructDef
		if d.structs != nil {
			def = d.structs(name, fields)
		}
		if def == nil || len(def.Fields) != n {
			sf := make([]values.StructField, n)
			for i, fn := range fields {
				sf[i] = values.StructField{Name: fn, Default: values.Unset}
			}
			def = values.NewStructDef(name, sf...)
		}
		s := values.NewStruct(def)
		for i := range s.Fields {
			s.Fields[i] = d.value(depth + 1)
		}
		return values.StructVal(s)
	case values.KindVector:
		def := d.value(depth + 1)
		n := d.Len(1)
		vec := container.NewVector(def)
		for i := 0; i < n && d.err == nil; i++ {
			vec.PushBack(d.value(depth + 1))
		}
		return values.Ref(values.KindVector, vec)
	case values.KindList:
		n := d.Len(1)
		l := container.NewList()
		for i := 0; i < n && d.err == nil; i++ {
			l.PushBack(d.value(depth + 1))
		}
		return values.Ref(values.KindList, l)
	case values.KindMap:
		strategy := container.ExpireStrategy(d.U8())
		timeout := timer.Interval(d.I64())
		m := container.NewMap()
		restoreExpiry := d.mgr != nil && strategy != container.ExpireNone && timeout > 0
		if restoreExpiry {
			m.SetTimeout(d.mgr, strategy, timeout)
		}
		if d.Bool() {
			m.SetDefault(d.value(depth + 1))
		}
		n := d.Len(10) // key tag + value tag + i64 lastUse, minimum
		for i := 0; i < n && d.err == nil; i++ {
			key := d.value(depth + 1)
			val := d.value(depth + 1)
			lastUse := timer.Time(d.I64())
			if d.err != nil {
				break
			}
			// Corrupt input could decode an unhashable key kind, which
			// Insert would panic on; reject it as a decode error instead.
			if _, ok := values.AppendKey(nil, key); !ok {
				d.fail("snapshot: unhashable map key kind %v", key.K)
				break
			}
			if restoreExpiry {
				m.InsertRestored(key, val, lastUse)
			} else {
				m.Insert(key, val)
			}
		}
		return values.Ref(values.KindMap, m)
	case values.KindSet:
		strategy := container.ExpireStrategy(d.U8())
		timeout := timer.Interval(d.I64())
		s := container.NewSet()
		restoreExpiry := d.mgr != nil && strategy != container.ExpireNone && timeout > 0
		if restoreExpiry {
			s.SetTimeout(d.mgr, strategy, timeout)
		}
		n := d.Len(9) // element tag + i64 lastUse, minimum
		for i := 0; i < n && d.err == nil; i++ {
			el := d.value(depth + 1)
			lastUse := timer.Time(d.I64())
			if d.err != nil {
				break
			}
			if _, ok := values.AppendKey(nil, el); !ok {
				d.fail("snapshot: unhashable set element kind %v", el.K)
				break
			}
			if restoreExpiry {
				s.InsertRestored(el, lastUse)
			} else {
				s.Insert(el)
			}
		}
		return values.Ref(values.KindSet, s)
	case values.KindDigest:
		v, err := values.DigestFromState(d.Bytes())
		if err != nil {
			d.fail("snapshot: digest state: %v", err)
			return values.Nil
		}
		return v
	default:
		d.fail("snapshot: cannot decode value of kind %d", k)
		return values.Nil
	}
}
