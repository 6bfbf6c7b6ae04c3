// Container and composite-type instructions: structs, tuples, lists,
// vectors, sets, maps with built-in state management, and their iterators.

package vm

import (
	"sync/atomic"

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
	{name: "set.exists", arity: 2, flags: opCmp, exec: execSetExists},
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
	{name: "map.get", arity: 2, exec: execMapGet},
	{name: "map.get_default", arity: 3, exec: execMapGetDefault},
	{name: "map.exists", arity: 2, flags: opCmp, exec: execMapExists},
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
	v, err := newValueOfType(ex, in.aux.(*types.Type))
	if err != nil {
		return ex.raiseErr(err)
	}
	if vec, ok := v.O.(*container.Vector); ok && len(in.srcs) == 1 {
		vec.Grow(int(ex.get(fr, &in.srcs[0]).AsInt()))
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
// and session tables — never materialize a tuple at all.

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

// --- tier-2 monomorphic inline caches ----------------------------------------
//
// Installed by tier-2 lowering (tier2.go). A struct IC caches the
// (StructDef → field index) resolution so the steady state skips the
// by-name map lookup; a map IC caches the key operand's observed shape
// (value kind + whether it scratch-encodes) so the steady state skips
// re-probing the encodability of every key. Both demote the whole
// function back to tier-1 when the monomorphic assumption breaks — the
// current activation still completes correctly through the slow path.

// structICEntry is the cached field resolution for one struct shape.
type structICEntry struct {
	def *values.StructDef
	idx int
}

// structIC is the shared inline-cache state of one struct.get/set site.
// First-generation tier code uses the monomorphic entry; re-promoted code
// sets wide and grows ways copy-on-write up to icWays shapes.
type structIC struct {
	name  string
	fn    *CompiledFunc
	wide  bool
	entry atomic.Pointer[structICEntry]
	ways  atomic.Pointer[[]structICEntry]
}

// lookup resolves the field index for s, filling the cache on first use
// and demoting the function when the site outgrows it. The returned index
// is -1 for an unknown field (matching StructDef.Index).
func (ic *structIC) lookup(s *values.Struct) int {
	if ic.wide {
		return ic.lookupWide(s)
	}
	if e := ic.entry.Load(); e != nil {
		if e.def == s.Def {
			return e.idx
		}
		// Second shape at this site: tier-2 specialized on a monomorphic
		// world that no longer exists. Re-promotion widens the cache.
		demoteTier2(ic.fn)
	}
	idx := s.Def.Index(ic.name)
	if idx >= 0 {
		ic.entry.Store(&structICEntry{def: s.Def, idx: idx})
	}
	return idx
}

// lookupWide is the polymorphic path of a re-promoted function: a linear
// scan over at most icWays cached shapes, still far cheaper than the
// by-name map probe. A shape beyond capacity marks the site megamorphic
// and demotes for good.
func (ic *structIC) lookupWide(s *values.Struct) int {
	var es []structICEntry
	if p := ic.ways.Load(); p != nil {
		es = *p
		for i := range es {
			if es[i].def == s.Def {
				return es[i].idx
			}
		}
	}
	idx := s.Def.Index(ic.name)
	if len(es) >= icWays {
		demoteTier2Mega(ic.fn)
		return idx
	}
	if idx >= 0 {
		grown := make([]structICEntry, len(es)+1)
		copy(grown, es)
		grown[len(es)] = structICEntry{def: s.Def, idx: idx}
		ic.ways.Store(&grown)
	}
	return idx
}

func execStructGetIC(ex *Exec, fr *Frame, in *Instr) int {
	s, err := asStruct(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	ic := in.aux.(*structIC)
	v, ok := s.Get(ic.lookup(s))
	if !ok {
		return ex.raise("Hilti::UnsetField", fmt.Sprintf("field %q not set", ic.name))
	}
	ex.put(fr, in.d, v)
	return in.t1
}

func execStructSetIC(ex *Exec, fr *Frame, in *Instr) int {
	s, err := asStruct(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	ic := in.aux.(*structIC)
	s.Set(ic.lookup(s), ex.get(fr, &in.srcs[2]))
	ex.put(fr, in.d, values.Nil)
	return in.t1
}

// mapIC caches the shape of one map lookup site's key operand: the value
// kind plus whether that kind scratch-encodes via values.AppendKey. Shape
// 0 means unfilled. Re-promoted (wide) sites hold up to icWays shapes in
// a copy-on-write slice instead of the single shape word.
type mapIC struct {
	fn     *CompiledFunc
	wide   bool
	shape  atomic.Int64
	shapes atomic.Pointer[[]int64]
}

func mapKeyShape(k values.Kind, keyed bool) int64 {
	s := 1 + int64(k)*2
	if keyed {
		s++
	}
	return s
}

// icMapKey resolves the cached lookup path for kv, returning the encoded
// key when the keyed fast path applies. A shape change (or a same-kind key
// that stops encoding, e.g. heterogeneous tuples) demotes the function.
func icMapKey(ex *Exec, ic *mapIC, kv values.Value) (k []byte, keyed bool) {
	if ic.wide {
		return icMapKeyWide(ex, ic, kv)
	}
	shape := ic.shape.Load()
	switch shape {
	case mapKeyShape(kv.K, false):
		return nil, false
	case mapKeyShape(kv.K, true):
		if k, ok := values.AppendKey(ex.keyBuf[:0], kv); ok {
			ex.keyBuf = k
			return k, true
		}
		demoteTier2(ic.fn)
		ex.keyBuf = ex.keyBuf[:0]
		return nil, false
	}
	if shape != 0 {
		demoteTier2(ic.fn)
	}
	k, ok := values.AppendKey(ex.keyBuf[:0], kv)
	if ok {
		ex.keyBuf = k
		ic.shape.Store(mapKeyShape(kv.K, true))
		return k, true
	}
	ex.keyBuf = k[:0]
	ic.shape.Store(mapKeyShape(kv.K, false))
	return nil, false
}

// icMapKeyWide is the polymorphic key path of a re-promoted function:
// up to icWays cached key shapes, scanned linearly. A same-kind key that
// stops encoding breaks an assumption no amount of widening can express,
// and a shape past capacity makes the site megamorphic — both demote the
// function permanently.
func icMapKeyWide(ex *Exec, ic *mapIC, kv values.Value) (k []byte, keyed bool) {
	var shapes []int64
	if p := ic.shapes.Load(); p != nil {
		shapes = *p
	}
	for _, sh := range shapes {
		switch sh {
		case mapKeyShape(kv.K, false):
			return nil, false
		case mapKeyShape(kv.K, true):
			if k, ok := values.AppendKey(ex.keyBuf[:0], kv); ok {
				ex.keyBuf = k
				return k, true
			}
			demoteTier2Mega(ic.fn)
			ex.keyBuf = ex.keyBuf[:0]
			return nil, false
		}
	}
	k, ok := values.AppendKey(ex.keyBuf[:0], kv)
	if ok {
		ex.keyBuf = k
	} else {
		ex.keyBuf = k[:0]
	}
	if len(shapes) >= icWays {
		demoteTier2Mega(ic.fn)
	} else {
		grown := make([]int64, len(shapes)+1)
		copy(grown, shapes)
		grown[len(shapes)] = mapKeyShape(kv.K, ok)
		ic.shapes.Store(&grown)
	}
	if ok {
		return k, true
	}
	return nil, false
}

func execMapGetIC(ex *Exec, fr *Frame, in *Instr) int {
	m, err := asMap(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	kv := ex.get(fr, &in.srcs[1])
	var v values.Value
	var ok bool
	if k, keyed := icMapKey(ex, in.aux.(*mapIC), kv); keyed {
		v, ok = m.GetKeyed(k)
	} else {
		v, ok = m.Get(kv)
	}
	if !ok {
		return ex.raise("Hilti::IndexError", "key not in map: "+values.Format(kv))
	}
	ex.put(fr, in.d, v)
	return in.t1
}

func execMapExistsIC(ex *Exec, fr *Frame, in *Instr) int {
	m, err := asMap(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	kv := ex.get(fr, &in.srcs[1])
	var b bool
	if k, keyed := icMapKey(ex, in.aux.(*mapIC), kv); keyed {
		b = m.ExistsKeyed(k)
	} else {
		b = m.Exists(kv)
	}
	ex.put(fr, in.d, values.Bool(b))
	return in.branch(b)
}
