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
	// On a struct operand of known type, a field is an index (lowerField).
	// These bodies are the name path, for an `any` operand.
	{name: "struct.get", lower: lowerField, idx: execStructGetIdx, f2: func(ex *Exec, s, f values.Value) (values.Value, error) {
		st, i, err := fieldNamed(s, f)
		if err == nil && st.Fields[i].K == values.KindUnset {
			err = &values.Exception{Name: "Hilti::UnsetField", Msg: fmt.Sprintf("field %q not set", f.AsString())}
		}
		if err != nil {
			return values.Nil, err
		}
		return st.Fields[i], nil
	}},
	fieldOp("struct.get_default", 0, 3, func(s *values.Struct, i int, d values.Value) values.Value {
		if v := s.Fields[i]; v.K != values.KindUnset {
			return v
		}
		return d
	}),
	fieldOp("struct.set", 0, 3, func(s *values.Struct, i int, v values.Value) values.Value {
		s.Fields[i] = v
		return values.Nil
	}),
	fieldOp("struct.is_set", opCmp, 2, func(s *values.Struct, i int, _ values.Value) values.Value {
		return values.Bool(s.Fields[i].K != values.KindUnset)
	}),
	fieldOp("struct.unset", 0, 2, func(s *values.Struct, i int, _ values.Value) values.Value {
		s.Fields[i] = values.Unset
		return values.Nil
	}),

	// --- tuple ----------------------------------------------------------------
	{name: "tuple.index", flags: opPure, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		t := a.AsTuple()
		if t == nil {
			return values.Nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil tuple"}
		}
		i := b.AsInt()
		if i < 0 || int(i) >= len(t.Elems) {
			return values.Nil, &values.Exception{Name: "Hilti::IndexError",
				Msg: fmt.Sprintf("tuple index %d out of range", i)}
		}
		return t.Elems[i], nil
	}},
	{name: "tuple.length", flags: opPure, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		t := a.AsTuple()
		if t == nil {
			return values.Int(0), nil
		}
		return values.Int(int64(len(t.Elems))), nil
	}},

	// --- list -----------------------------------------------------------------
	{name: "list.push_back", flags: opRetains, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		l, err := asList(a)
		if err != nil {
			return values.Nil, err
		}
		l.PushBack(b)
		return values.Nil, nil
	}},
	{name: "list.push_front", flags: opRetains, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		l, err := asList(a)
		if err != nil {
			return values.Nil, err
		}
		l.PushFront(b)
		return values.Nil, nil
	}},
	{name: "list.pop_front", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		l, err := asList(a)
		if err != nil {
			return values.Nil, err
		}
		v, ok := l.PopFront()
		if !ok {
			return values.Nil, &values.Exception{Name: "Hilti::Underflow", Msg: "pop from empty list"}
		}
		return v, nil
	}},
	{name: "list.size", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		l, err := asList(a)
		if err != nil {
			return values.Nil, err
		}
		return values.Int(int64(l.Len())), nil
	}},
	{name: "list.front", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		l, err := asList(a)
		if err != nil {
			return values.Nil, err
		}
		v, ok := l.Front()
		if !ok {
			return values.Nil, &values.Exception{Name: "Hilti::Underflow", Msg: "front of empty list"}
		}
		return v, nil
	}},
	{name: "list.back", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		l, err := asList(a)
		if err != nil {
			return values.Nil, err
		}
		v, ok := l.Back()
		if !ok {
			return values.Nil, &values.Exception{Name: "Hilti::Underflow", Msg: "back of empty list"}
		}
		return v, nil
	}},
	{name: "list.begin", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		l, err := asList(a)
		if err != nil {
			return values.Nil, err
		}
		return values.Ref(values.KindIterList, l.Begin()), nil
	}},

	// --- vector ----------------------------------------------------------------
	{name: "vector.push_back", f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		v, err := asVector(a)
		if err != nil {
			return values.Nil, err
		}
		v.PushBack(b)
		return values.Nil, nil
	}},
	{name: "vector.get", f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		v, err := asVector(a)
		if err != nil {
			return values.Nil, err
		}
		e, ok := v.Get(int(b.AsInt()))
		if !ok {
			return values.Nil, &values.Exception{Name: "Hilti::IndexError",
				Msg: fmt.Sprintf("vector index %d", b.AsInt())}
		}
		return e, nil
	}},
	{name: "vector.set", f3: func(ex *Exec, a, b, c values.Value) (values.Value, error) {
		v, err := asVector(a)
		if err != nil {
			return values.Nil, err
		}
		if !v.Set(int(b.AsInt()), c) {
			return values.Nil, &values.Exception{Name: "Hilti::IndexError",
				Msg: fmt.Sprintf("vector index %d", b.AsInt())}
		}
		return values.Nil, nil
	}},
	{name: "vector.size", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		v, err := asVector(a)
		if err != nil {
			return values.Nil, err
		}
		return values.Int(int64(v.Len())), nil
	}},
	{name: "vector.reserve", f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		v, err := asVector(a)
		if err != nil {
			return values.Nil, err
		}
		if !v.Reserve(int(b.AsInt())) {
			return values.Nil, &values.Exception{Name: "Hilti::IndexError",
				Msg: fmt.Sprintf("vector reserve %d", b.AsInt())}
		}
		return values.Nil, nil
	}},

	// --- set -------------------------------------------------------------------
	{name: "set.insert", flags: opRetains, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		s, err := asSet(a)
		if err != nil {
			return values.Nil, err
		}
		s.Insert(b)
		return values.Nil, nil
	}},
	{name: "set.exists", flags: opCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		s, err := asSet(a)
		if err != nil {
			return values.Nil, err
		}
		return values.Bool(s.Exists(b)), nil
	}, exec: execSetExists},
	{name: "set.remove", f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		s, err := asSet(a)
		if err != nil {
			return values.Nil, err
		}
		s.Remove(b)
		return values.Nil, nil
	}},
	{name: "set.size", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		s, err := asSet(a)
		if err != nil {
			return values.Nil, err
		}
		return values.Int(int64(s.Len())), nil
	}},
	{name: "set.clear", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		s, err := asSet(a)
		if err != nil {
			return values.Nil, err
		}
		s.Clear()
		return values.Nil, nil
	}},
	// set.timeout <set> <ExpireStrategy enum> <interval>: attaches the
	// Exec's global timer manager (the paper's firewall example).
	{name: "set.timeout", f3: func(ex *Exec, a, b, c values.Value) (values.Value, error) {
		s, err := asSet(a)
		if err != nil {
			return values.Nil, err
		}
		s.SetTimeout(ex.GlobalTM, expireStrategy(b), timer.Interval(c.AsIntervalNs()))
		return values.Nil, nil
	}},

	// --- map -------------------------------------------------------------------
	{name: "map.insert", flags: opRetains, f3: func(ex *Exec, a, b, c values.Value) (values.Value, error) {
		m, err := asMap(a)
		if err != nil {
			return values.Nil, err
		}
		m.Insert(b, c)
		return values.Nil, nil
	}},
	{name: "map.get", f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		m, err := asMap(a)
		if err != nil {
			return values.Nil, err
		}
		v, ok := m.Get(b)
		if !ok {
			return values.Nil, &values.Exception{Name: "Hilti::IndexError", Msg: "key not in map: " + values.Format(b)}
		}
		return v, nil
	}, exec: execMapGet},
	{name: "map.get_default", f3: func(ex *Exec, a, b, c values.Value) (values.Value, error) {
		m, err := asMap(a)
		if err != nil {
			return values.Nil, err
		}
		if v, ok := m.Get(b); ok {
			return v, nil
		}
		return c, nil
	}, exec: execMapGetDefault},
	{name: "map.exists", flags: opCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		m, err := asMap(a)
		if err != nil {
			return values.Nil, err
		}
		return values.Bool(m.Exists(b)), nil
	}, exec: execMapExists},
	{name: "map.remove", f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		m, err := asMap(a)
		if err != nil {
			return values.Nil, err
		}
		m.Remove(b)
		return values.Nil, nil
	}},
	{name: "map.size", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		m, err := asMap(a)
		if err != nil {
			return values.Nil, err
		}
		return values.Int(int64(m.Len())), nil
	}},
	{name: "map.clear", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		m, err := asMap(a)
		if err != nil {
			return values.Nil, err
		}
		m.Clear()
		return values.Nil, nil
	}},
	{name: "map.default", flags: opRetains, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		m, err := asMap(a)
		if err != nil {
			return values.Nil, err
		}
		m.SetDefault(b)
		return values.Nil, nil
	}},
	{name: "map.timeout", f3: func(ex *Exec, a, b, c values.Value) (values.Value, error) {
		m, err := asMap(a)
		if err != nil {
			return values.Nil, err
		}
		m.SetTimeout(ex.GlobalTM, expireStrategy(b), timer.Interval(c.AsIntervalNs()))
		return values.Nil, nil
	}},
	// map.keys / set.elems materialize iteration as a vector snapshot (the
	// Bro compiler lowers `for (i in container)` onto these).
	{name: "map.keys", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		m, err := asMap(a)
		if err != nil {
			return values.Nil, err
		}
		vec := container.NewVector(values.Nil)
		for _, k := range m.Keys() {
			vec.PushBack(k)
		}
		return values.Ref(values.KindVector, vec), nil
	}},
	{name: "map.values", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		m, err := asMap(a)
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
	{name: "set.elems", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		s, err := asSet(a)
		if err != nil {
			return values.Nil, err
		}
		vec := container.NewVector(values.Nil)
		for _, e := range s.Elems() {
			vec.PushBack(e)
		}
		return values.Ref(values.KindVector, vec), nil
	}},
	{name: "list.elems", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		l, err := asList(a)
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
	v, err := ex.newValue(in.aux.(*types.Type), n)
	if err != nil {
		return ex.raiseErr(err)
	}
	ex.put(fr, in.d, v)
	return in.t1
}

// --- struct fields -------------------------------------------------------------

// lowerField lowers a struct op. On an operand of known struct type the
// field is resolved here — one the type lacks is a link error — and the op
// becomes its _idx form, with the index in t2 and the type's Def in aux.
// Only an `any` operand keeps the name path, and all code at O0, the
// reference the index form is tested against.
func lowerField(c *fnCompiler, in *ast.Instr) error {
	r := c.cur
	if err := c.lowerRow(r, in); err != nil {
		return err
	}
	t := c.typeOfOperand(in.Ops[0]).Deref()
	if t == nil || t.Kind != types.Struct || t.StructDef == nil {
		return nil
	}
	sd, f := t.StructDef, in.Ops[1]
	if f.Kind != ast.FieldOp {
		return fmt.Errorf("%s on struct %s needs a field name", r.name, sd.Name)
	}
	i := sd.Index(f.Name)
	if i < 0 {
		return fmt.Errorf("struct %s has no field %s", sd.Name, f.Name)
	}
	if c.lk.opt > 0 {
		x := &c.out.Code[len(c.out.Code)-1]
		x.exec, x.opID, x.aux, x.t2 = r.idx, idOf(r.indexed), sd.Runtime(), i
	}
	return nil
}

// fieldNamed resolves field f of struct s by name.
func fieldNamed(s, f values.Value) (*values.Struct, int, error) {
	st, err := asStruct(s)
	if err != nil {
		return nil, 0, err
	}
	i := st.Def.Index(f.AsString())
	if i < 0 {
		return nil, 0, &values.Exception{Name: "Hilti::UnknownField",
			Msg: fmt.Sprintf("struct %s has no field %s", st.TypeName(), f.AsString())}
	}
	return st, i, nil
}

// FieldGuardMisses returns how many field accesses on an operand of known
// struct type found a struct of another Def and took the name path.
func (ex *Exec) FieldGuardMisses() uint64 { return ex.fieldMisses }

// The _idx forms read the index lowerField put in t2 from a struct that has
// the Def in aux. Anything else — a nil struct, a struct of another Def
// (a guard miss, counted), an unset field struct.get raises on — takes the
// op's name path (fieldSlow).

func execStructGetIdx(ex *Exec, fr *Frame, in *Instr) int {
	if s := ex.get(fr, &in.srcs[0]).AsStruct(); s != nil && s.Def == in.aux {
		if v := s.Fields[in.t2]; v.K != values.KindUnset {
			ex.put(fr, in.d, v)
			return in.t1
		}
	}
	return ex.fieldSlow(fr, in)
}

// fieldOp is a struct op given by its semantics on a resolved field (v:
// the third operand, if any), from which the name path's body and the _idx
// form's executor derive.
func fieldOp(name string, flags opFlags, arity int, op func(s *values.Struct, i int, v values.Value) values.Value) opRow {
	named := func(s, f, v values.Value) (values.Value, error) {
		st, i, err := fieldNamed(s, f)
		if err != nil {
			return values.Nil, err
		}
		return op(st, i, v), nil
	}
	r := opRow{name: name, flags: flags, lower: lowerField, idx: func(ex *Exec, fr *Frame, in *Instr) int {
		s := ex.get(fr, &in.srcs[0]).AsStruct()
		if s == nil || s.Def != in.aux {
			return ex.fieldSlow(fr, in)
		}
		v := values.Nil
		if arity == 3 {
			v = ex.get(fr, &in.srcs[2])
		}
		ex.put(fr, in.d, op(s, in.t2, v))
		return in.t1
	}}
	if arity == 2 {
		r.f2 = func(_ *Exec, s, f values.Value) (values.Value, error) { return named(s, f, values.Nil) }
	} else {
		r.f3 = func(_ *Exec, s, f, v values.Value) (values.Value, error) { return named(s, f, v) }
	}
	return r
}

// fieldSlow runs an _idx instruction on its op's name path.
func (ex *Exec) fieldSlow(fr *Frame, in *Instr) int {
	args := ex.operands(fr, in.srcs)
	if s := args[0].AsStruct(); s != nil && s.Def != in.aux {
		ex.fieldMisses++
	}
	v, err := rowOf(in.opID).indexed.fn(ex, args)
	return ex.store(fr, in, v, err)
}

// --- dedicated container executors ------------------------------------------
//
// These skip the per-call values.Key allocation of a lookup: the key is
// encoded into the Exec's scratch buffer and probed with the container's
// *Keyed methods. Tuple-constructor keys — the per-packet pattern of the
// firewall and session tables — never materialize a tuple at all. Each
// row's body stays the reference semantics they are held to.

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
