// Container and composite-type instructions: structs, tuples, lists,
// vectors, sets, maps with built-in state management, and their iterators.

package vm

import (
	"fmt"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/container"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

func asMap(v values.Value) (*container.Map, error) {
	m, _ := v.O.(*container.Map)
	if m == nil {
		return nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil map reference"}
	}
	return m, nil
}

func asSet(v values.Value) (*container.Set, error) {
	s, _ := v.O.(*container.Set)
	if s == nil {
		return nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil set reference"}
	}
	return s, nil
}

func asList(v values.Value) (*container.List, error) {
	l, _ := v.O.(*container.List)
	if l == nil {
		return nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil list reference"}
	}
	return l, nil
}

func asVector(v values.Value) (*container.Vector, error) {
	vec, _ := v.O.(*container.Vector)
	if vec == nil {
		return nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil vector reference"}
	}
	return vec, nil
}

func asStruct(v values.Value) (*values.Struct, error) {
	s := v.AsStruct()
	if s == nil {
		return nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil struct reference"}
	}
	return s, nil
}

func expireStrategy(v values.Value) container.ExpireStrategy {
	switch v.AsInt() {
	case 1:
		return container.ExpireCreate
	case 2:
		return container.ExpireAccess
	default:
		return container.ExpireNone
	}
}

var containerOps = []opRow{
	// new <type> [<n>]: explicit dynamic allocation (paper §3.2 memory
	// model); n sizes a vector for that many elements without adding any.
	{name: "new", lower: func(c *fnCompiler, in *ast.Instr) error {
		if len(in.Ops) < 1 || len(in.Ops) > 2 || in.Ops[0].Kind != ast.TypeOp {
			return fmt.Errorf("new needs a type operand and at most a size")
		}
		t := in.Ops[0].Type
		srcs, err := c.srcsOf(in.Ops[1:])
		if err != nil {
			return err
		}
		d, err := c.dstOf(in.Target)
		if err != nil {
			return err
		}
		c.emit(Instr{exec: execNew, d: d, srcs: srcs, aux: t})
		return nil
	}},

	// --- struct --------------------------------------------------------------
	{name: "struct.get", arity: 2, flags: opInline, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asStruct(a[0])
		if err != nil {
			return values.Nil, err
		}
		name := a[1].AsString()
		v, ok := s.GetName(name)
		if !ok {
			return values.Nil, &values.Exception{Name: "Hilti::UnsetField",
				Msg: fmt.Sprintf("field %q not set", name)}
		}
		return v, nil
	}, pick: func(srcs []src, d dst) execFn {
		if srcs[1].kind == srcConst && srcs[1].val.K == values.KindString {
			return execStructGet
		}
		return nil
	}},
	{name: "struct.get_default", arity: 3, flags: opInline, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asStruct(a[0])
		if err != nil {
			return values.Nil, err
		}
		if v, ok := s.GetName(a[1].AsString()); ok {
			return v, nil
		}
		return a[2], nil
	}},
	{name: "struct.set", arity: 3, flags: opInline, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asStruct(a[0])
		if err != nil {
			return values.Nil, err
		}
		s.SetName(a[1].AsString(), a[2])
		return values.Nil, nil
	}, pick: func(srcs []src, d dst) execFn {
		if srcs[1].kind == srcConst && srcs[1].val.K == values.KindString {
			return execStructSet
		}
		return nil
	}},
	{name: "struct.is_set", arity: 2, flags: opCmp | opInline, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asStruct(a[0])
		if err != nil {
			return values.Nil, err
		}
		_, ok := s.GetName(a[1].AsString())
		return values.Bool(ok), nil
	}},
	{name: "struct.unset", arity: 2, flags: opInline, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asStruct(a[0])
		if err != nil {
			return values.Nil, err
		}
		s.SetName(a[1].AsString(), values.Unset)
		return values.Nil, nil
	}},

	// --- tuple ----------------------------------------------------------------
	{name: "tuple.index", arity: 2, flags: opPure | opInline, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		t := a[0].AsTuple()
		if t == nil {
			return values.Nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil tuple"}
		}
		i := a[1].AsInt()
		if i < 0 || int(i) >= len(t.Elems) {
			return values.Nil, &values.Exception{Name: "Hilti::IndexError",
				Msg: fmt.Sprintf("tuple index %d out of range", i)}
		}
		return t.Elems[i], nil
	}},
	{name: "tuple.length", arity: 1, flags: opPure | opInline, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		t := a[0].AsTuple()
		if t == nil {
			return values.Int(0), nil
		}
		return values.Int(int64(len(t.Elems))), nil
	}},

	// --- list -----------------------------------------------------------------
	{name: "list.push_back", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return values.Nil, err
		}
		l.PushBack(a[1])
		return values.Nil, nil
	}},
	{name: "list.push_front", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return values.Nil, err
		}
		l.PushFront(a[1])
		return values.Nil, nil
	}},
	{name: "list.pop_front", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return values.Nil, err
		}
		v, ok := l.PopFront()
		if !ok {
			return values.Nil, &values.Exception{Name: "Hilti::Underflow", Msg: "pop from empty list"}
		}
		return v, nil
	}},
	{name: "list.size", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.Int(int64(l.Len())), nil
	}},
	{name: "list.front", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return values.Nil, err
		}
		v, ok := l.Front()
		if !ok {
			return values.Nil, &values.Exception{Name: "Hilti::Underflow", Msg: "front of empty list"}
		}
		return v, nil
	}},
	{name: "list.back", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return values.Nil, err
		}
		v, ok := l.Back()
		if !ok {
			return values.Nil, &values.Exception{Name: "Hilti::Underflow", Msg: "back of empty list"}
		}
		return v, nil
	}},
	{name: "list.begin", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.Ref(values.KindIterList, l.Begin()), nil
	}},

	// --- vector ----------------------------------------------------------------
	{name: "vector.push_back", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		v, err := asVector(a[0])
		if err != nil {
			return values.Nil, err
		}
		v.PushBack(a[1])
		return values.Nil, nil
	}},
	{name: "vector.get", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		v, err := asVector(a[0])
		if err != nil {
			return values.Nil, err
		}
		e, ok := v.Get(int(a[1].AsInt()))
		if !ok {
			return values.Nil, &values.Exception{Name: "Hilti::IndexError",
				Msg: fmt.Sprintf("vector index %d", a[1].AsInt())}
		}
		return e, nil
	}},
	{name: "vector.set", arity: 3, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		v, err := asVector(a[0])
		if err != nil {
			return values.Nil, err
		}
		if !v.Set(int(a[1].AsInt()), a[2]) {
			return values.Nil, &values.Exception{Name: "Hilti::IndexError",
				Msg: fmt.Sprintf("vector index %d", a[1].AsInt())}
		}
		return values.Nil, nil
	}},
	{name: "vector.size", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		v, err := asVector(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.Int(int64(v.Len())), nil
	}},
	{name: "vector.reserve", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		v, err := asVector(a[0])
		if err != nil {
			return values.Nil, err
		}
		v.Reserve(int(a[1].AsInt()))
		return values.Nil, nil
	}},

	// --- set -------------------------------------------------------------------
	{name: "set.insert", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asSet(a[0])
		if err != nil {
			return values.Nil, err
		}
		s.Insert(a[1])
		return values.Nil, nil
	}},
	{name: "set.exists", arity: 2, flags: opCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asSet(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.Bool(s.Exists(a[1])), nil
	}, exec: execSetExists},
	{name: "set.remove", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asSet(a[0])
		if err != nil {
			return values.Nil, err
		}
		s.Remove(a[1])
		return values.Nil, nil
	}},
	{name: "set.size", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asSet(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.Int(int64(s.Len())), nil
	}},
	{name: "set.clear", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asSet(a[0])
		if err != nil {
			return values.Nil, err
		}
		s.Clear()
		return values.Nil, nil
	}},
	// set.timeout <set> <ExpireStrategy enum> <interval>: attaches the
	// Exec's global timer manager (the paper's firewall example).
	{name: "set.timeout", arity: 3, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asSet(a[0])
		if err != nil {
			return values.Nil, err
		}
		s.SetTimeout(ex.GlobalTM, expireStrategy(a[1]), timer.Interval(a[2].AsIntervalNs()))
		return values.Nil, nil
	}},

	// --- map -------------------------------------------------------------------
	{name: "map.insert", arity: 3, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		m, err := asMap(a[0])
		if err != nil {
			return values.Nil, err
		}
		m.Insert(a[1], a[2])
		return values.Nil, nil
	}},
	{name: "map.get", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		m, err := asMap(a[0])
		if err != nil {
			return values.Nil, err
		}
		v, ok := m.Get(a[1])
		if !ok {
			return values.Nil, &values.Exception{Name: "Hilti::IndexError", Msg: "key not in map: " + values.Format(a[1])}
		}
		return v, nil
	}, exec: execMapGet},
	{name: "map.get_default", arity: 3, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		m, err := asMap(a[0])
		if err != nil {
			return values.Nil, err
		}
		if v, ok := m.Get(a[1]); ok {
			return v, nil
		}
		return a[2], nil
	}, exec: execMapGetDefault},
	{name: "map.exists", arity: 2, flags: opCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		m, err := asMap(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.Bool(m.Exists(a[1])), nil
	}, exec: execMapExists},
	{name: "map.remove", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		m, err := asMap(a[0])
		if err != nil {
			return values.Nil, err
		}
		m.Remove(a[1])
		return values.Nil, nil
	}},
	{name: "map.size", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		m, err := asMap(a[0])
		if err != nil {
			return values.Nil, err
		}
		return values.Int(int64(m.Len())), nil
	}},
	{name: "map.clear", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		m, err := asMap(a[0])
		if err != nil {
			return values.Nil, err
		}
		m.Clear()
		return values.Nil, nil
	}},
	{name: "map.default", arity: 2, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		m, err := asMap(a[0])
		if err != nil {
			return values.Nil, err
		}
		m.SetDefault(a[1])
		return values.Nil, nil
	}},
	{name: "map.timeout", arity: 3, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		m, err := asMap(a[0])
		if err != nil {
			return values.Nil, err
		}
		m.SetTimeout(ex.GlobalTM, expireStrategy(a[1]), timer.Interval(a[2].AsIntervalNs()))
		return values.Nil, nil
	}},
	// map.keys / set.elems materialize iteration as a vector snapshot (the
	// Bro compiler lowers `for (i in container)` onto these).
	{name: "map.keys", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		m, err := asMap(a[0])
		if err != nil {
			return values.Nil, err
		}
		vec := container.NewVector(values.Nil)
		for _, k := range m.Keys() {
			vec.PushBack(k)
		}
		return values.Ref(values.KindVector, vec), nil
	}},
	{name: "map.values", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		m, err := asMap(a[0])
		if err != nil {
			return values.Nil, err
		}
		vec := container.NewVector(values.Nil)
		m.Each(func(_, v values.Value) bool {
			vec.PushBack(v)
			return true
		})
		return values.Ref(values.KindVector, vec), nil
	}},
	{name: "set.elems", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		s, err := asSet(a[0])
		if err != nil {
			return values.Nil, err
		}
		vec := container.NewVector(values.Nil)
		for _, e := range s.Elems() {
			vec.PushBack(e)
		}
		return values.Ref(values.KindVector, vec), nil
	}},
	{name: "list.elems", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return values.Nil, err
		}
		vec := container.NewVector(values.Nil)
		l.Each(func(e values.Value) bool {
			vec.PushBack(e)
			return true
		})
		return values.Ref(values.KindVector, vec), nil
	}},
}

func execNew(ex *Exec, fr *Frame, in *Instr) int {
	n := 0
	if len(in.srcs) == 1 {
		n = int(ex.get(fr, &in.srcs[0]).AsInt())
	}
	v, err := newValueOfType(ex, in.aux.(*types.Type), n)
	if err != nil {
		return ex.raiseErr(err)
	}
	ex.put(fr, in.d, v)
	return in.t1
}

// --- dedicated container executors ------------------------------------------
//
// These skip the simpleFn dispatch (args boxing + closure type assertion)
// and, for lookups, the per-call values.Key allocation: the key is encoded
// into the Exec's scratch buffer and probed with the container's *Keyed
// methods. Tuple-constructor keys — the per-packet pattern of the firewall
// and session tables — never materialize a tuple at all. Each row's fn
// stays the reference semantics they are held to.

func execStructGet(ex *Exec, fr *Frame, in *Instr) int {
	s, err := asStruct(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	name := in.srcs[1].val.AsString()
	v, ok := s.GetName(name)
	if !ok {
		return ex.raise("Hilti::UnsetField", fmt.Sprintf("field %q not set", name))
	}
	ex.put(fr, in.d, v)
	return in.t1
}

func execStructSet(ex *Exec, fr *Frame, in *Instr) int {
	s, err := asStruct(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	s.SetName(in.srcs[1].val.AsString(), ex.get(fr, &in.srcs[2]))
	ex.put(fr, in.d, values.Nil)
	return in.t1
}

// mapGet looks up the key operand ks in m, honoring the map default.
func mapGet(ex *Exec, fr *Frame, m *container.Map, ks *src) (values.Value, bool) {
	if k, ok := ex.srcKey(fr, ks); ok {
		return m.GetKeyed(k)
	}
	return m.Get(ex.get(fr, ks))
}

func execSetExists(ex *Exec, fr *Frame, in *Instr) int {
	s, err := asSet(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	var b bool
	if k, ok := ex.srcKey(fr, &in.srcs[1]); ok {
		b = s.ExistsKeyed(k)
	} else {
		b = s.Exists(ex.get(fr, &in.srcs[1]))
	}
	ex.put(fr, in.d, values.Bool(b))
	return in.branch(b)
}

func execMapExists(ex *Exec, fr *Frame, in *Instr) int {
	m, err := asMap(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	var b bool
	if k, ok := ex.srcKey(fr, &in.srcs[1]); ok {
		b = m.ExistsKeyed(k)
	} else {
		b = m.Exists(ex.get(fr, &in.srcs[1]))
	}
	ex.put(fr, in.d, values.Bool(b))
	return in.branch(b)
}

func execMapGet(ex *Exec, fr *Frame, in *Instr) int {
	m, err := asMap(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	v, ok := mapGet(ex, fr, m, &in.srcs[1])
	if !ok {
		return ex.raise("Hilti::IndexError",
			"key not in map: "+values.Format(ex.get(fr, &in.srcs[1])))
	}
	ex.put(fr, in.d, v)
	return in.t1
}

func execMapGetDefault(ex *Exec, fr *Frame, in *Instr) int {
	m, err := asMap(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	v, ok := mapGet(ex, fr, m, &in.srcs[1])
	if !ok {
		v = ex.get(fr, &in.srcs[2])
	}
	ex.put(fr, in.d, v)
	return in.t1
}
