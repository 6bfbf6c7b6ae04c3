// Recycling: a call whose values die when it returns takes them from free
// lists. A DNS datagram's parse builds a Message, its questions and records,
// their vectors and name ropes, hands the Message to its %done hook, and
// returns; an HTTP message's parse (one element of a connection's list of
// messages) builds the message, its header structs and its token views,
// hands them to its hooks, and returns to the list loop. The host converts
// what it keeps while the hooks run. Nothing the call built is reachable
// after it. The host asks for such a function with Exec.Recycle once its
// host functions are registered. A static rule over the function's call
// closure then decides whether the closure can keep any of its values. If
// it cannot, a call of the function opens a recycling scope: the struct,
// vector and bytes objects it builds come from per-Exec free lists and are
// recorded in an arena in take order, and the call's end releases what the
// scope took (DESIGN "A message's parse is borrowed, then recycled").
//
// A parse that parks keeps its arena: a Resumable carries its own, as it
// carries its own budget, and Resume swaps it in.

package vm

import (
	"errors"
	"fmt"
	"slices"

	"hilti/internal/hilti/types"
	"hilti/internal/rt/container"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// RegisterBorrowingHost is RegisterHost for a host function that borrows
// its arguments. It reads them only during the call, copies whatever it
// keeps, and passes none of them to HILTI code it re-enters. A recycling
// closure may call only such host functions.
func (ex *Exec) RegisterBorrowingHost(name string, fn HostFunc) {
	ex.setHost(name, fn)
	if ex.borrowing == nil {
		ex.borrowing = map[string]bool{}
	}
	ex.borrowing[name] = true
}

// Recycle decides whether a call of fn recycles, and records the answer for
// this Exec. It returns nil when fn recycles. Otherwise it returns why not,
// naming the first instruction or type that fails the rule.
//
// The rule covers fn and every function and hook body it can call. It
// fails an instruction that:
//   - reads or writes a global, since a global outlives the call;
//   - has an opRetains row and an operand that is not a constant;
//   - has an opReenters row, unless it is a call of a compiled function, a
//     builtin or a borrowing host, or a hook.run with no host bodies;
//   - is not stamped with an op row at all.
//
// It also fails fn when its declared result can carry an object out of the
// scope (carries). An iterator<bytes> result is admitted: it points into
// the caller's input, and under the hiltipoison tag the release checks that
// it does not point into an object the scope frees.
//
// A CallFn of fn then opens a scope unless one is active, and so does a
// HILTI call of fn, provided no declared parameter type can carry an object
// out either: a caller's struct handed in could keep what fn stores in it.
// Nested scopes release in the order they close. A parse that parks inside
// one keeps its objects in its Resumable until that call returns; one arena
// tracks at most maxPinned objects, and a scope takes any further ones from
// the heap, untracked.
//
// The caller keeps two rules. First, objects reachable from the arguments of
// a CallFn of fn may refer to recycled values once the call returns. The
// host must reset or drop them before it reads them again. Second, the
// answer describes the host functions and host hook bodies registered now.
// Re-registering a borrowing host through RegisterHost drops every answer.
// Hook bodies added later are not seen.
func (ex *Exec) Recycle(fn *CompiledFunc) error {
	if carries(fn.Result) {
		return fmt.Errorf("%s does not recycle: its result %s can carry an object out", fn.Name, fn.Result)
	}
	if err := ex.recyclable(fn); err != nil {
		return err
	}
	if ex.rec == nil {
		ex.rec = &recycler{}
	}
	for len(ex.rec.entries) <= fn.ID {
		ex.rec.entries = append(ex.rec.entries, 0)
	}
	ex.rec.entries[fn.ID] = recEntry
	if !fn.paramsCarry {
		ex.rec.entries[fn.ID] = recCalled
	}
	return nil
}

// How a function Recycle accepted recycles (recycler.entries).
const (
	recEntry  uint8 = 1 + iota // a CallFn of it opens a scope
	recCalled                  // a HILTI call of it opens one too
)

// carries reports whether a value of declared type t can hold an object a
// recycling scope took: anything but a scalar, a string or an
// iterator<bytes>. An undeclared type can.
func carries(t *types.Type) bool {
	if t == nil {
		return true
	}
	switch t.Kind {
	case types.Void, types.Bool, types.Int, types.Double, types.String, types.Addr, types.Net,
		types.Port, types.Time, types.Interval, types.Enum, types.Bitset:
		return false
	case types.Iterator:
		return len(t.Params) != 1 || t.Params[0].Deref().Kind != types.Bytes
	case types.Tuple:
		return slices.ContainsFunc(t.Params, carries)
	}
	return true
}

// recyclable applies the rule to entry's call closure.
func (ex *Exec) recyclable(entry *CompiledFunc) error {
	seen := map[*CompiledFunc]bool{entry: true}
	work := []*CompiledFunc{entry}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for pc := range fn.Code {
			in := &fn.Code[pc]
			callees, err := ex.recyclableInstr(in)
			if err != nil {
				return fmt.Errorf("%s does not recycle: %s at %04d %w", entry.Name, fn.Name, pc, err)
			}
			for _, c := range callees {
				if !seen[c] {
					seen[c] = true
					work = append(work, c)
				}
			}
		}
	}
	return nil
}

// recyclableInstr applies the rule to one instruction and returns the
// compiled functions it enters.
func (ex *Exec) recyclableInstr(in *Instr) ([]*CompiledFunc, error) {
	r := rowOf(in.opID)
	switch {
	case in.opID == 0:
		return nil, errors.New("is unclassified")
	case in.d.kind == srcGlobal || anySrc(in.srcs, func(s *src) bool { return s.kind == srcGlobal }):
		return nil, fmt.Errorf("%s: touches a global", r.name)
	case r.is(opRetains) && anySrc(in.srcs, func(s *src) bool { return s.kind != srcConst }):
		return nil, fmt.Errorf("%s: may retain an operand", r.name)
	case !r.is(opReenters):
		return nil, nil
	}
	switch t := in.aux.(type) {
	case *callTarget:
		switch {
		case t.fn != nil:
			return []*CompiledFunc{t.fn}, nil
		case t.builtin != nil: // the Hilti:: builtins copy what they format
			return nil, nil
		case ex.borrowing[t.name]:
			return nil, nil
		}
		return nil, fmt.Errorf("call: host %q does not borrow its arguments", t.name)
	case *hookTarget:
		if ex.Hooks != nil && ex.Hooks.Exists(t.name) {
			return nil, fmt.Errorf("hook.run: %s has host bodies", t.name)
		}
		return t.bodies, nil
	}
	return nil, fmt.Errorf("%s: re-enters the dispatcher", r.name)
}

// anySrc reports whether f holds for any of srcs, tuple elements included.
func anySrc(srcs []src, f func(*src) bool) bool {
	for i := range srcs {
		s := &srcs[i]
		if s.kind == srcCtor {
			if anySrc(s.subs, f) {
				return true
			}
		} else if f(s) {
			return true
		}
	}
	return false
}

const (
	// maxRecycled bounds each free list: an object released while its list
	// is full is left to the garbage collector.
	maxRecycled = 256
	// maxPinned bounds the objects an arena tracks, and so what one parked
	// parse pins for the free lists: a take past it comes from the heap and
	// is not tracked.
	maxPinned = 512
	// maxSpare bounds the arena buffers an Exec keeps for the next
	// Resumable that takes an object.
	maxSpare = 16
)

// recycler is an Exec's recycling state: the functions Recycle accepted,
// the running context's arena and scope, and the free lists.
type recycler struct {
	entries []uint8 // by CompiledFunc.ID: 0, recEntry or recCalled
	recState

	structs []structPool
	vectors pool[*container.Vector]
	ropes   pool[*hbytes.Bytes] // new bytes
	views   pool[*hbytes.Bytes] // bytes.sub, unpack.bytes
	spare   [][]taken           // empty arena buffers
}

// recState is one context's recycling state: the Exec's own, or a parked
// Resumable's, which Resume swaps in.
type recState struct {
	arena []taken // the objects its open scopes took, in take order
	scope recScope
}

// recScope says whether the code running now is in a recycling scope. A
// non-recycling CallFn nested in one, such as a compiled event handler a
// borrowing host dispatches, clears it until it returns, so it allocates as
// usual.
type recScope struct{ active bool }

// taken is one object of an arena and the free list it goes back to.
type taken struct {
	obj  any // *values.Struct, *container.Vector or *hbytes.Bytes
	list int // an index into recycler.structs, or listVectors, listRopes, listViews
}

const (
	listVectors = -1 - iota
	listRopes
	listViews
)

// enter adjusts the scope for a CallFn of fn. It returns the scope to
// restore when the call ends and the arena mark of the scope it opened, or
// -1. A recycling fn opens a scope when none is active and joins an active
// one; any other call runs outside the scope.
func (r *recycler) enter(fn *CompiledFunc) (recScope, int) {
	outer := r.scope
	switch {
	case fn.ID >= len(r.entries) || r.entries[fn.ID] == 0:
		r.scope.active = false
	case !outer.active:
		r.scope.active = true
		return outer, len(r.arena)
	}
	return outer, -1
}

// exit ends a CallFn: it releases the scope the call opened at mark, if
// any, and restores outer.
func (r *recycler) exit(outer recScope, mark int) {
	if mark >= 0 {
		r.release(&r.arena, mark)
	}
	r.scope = outer
}

// open is the scope a HILTI call of fn opens, as its caller's activation
// records it: 1 + the arena mark, or 0 when it opens none.
func (r *recycler) open(fn *CompiledFunc) int32 {
	if r.scope.active || fn.ID >= len(r.entries) || r.entries[fn.ID] != recCalled {
		return 0
	}
	r.scope.active = true
	return int32(len(r.arena)) + 1
}

// close ends the scope a HILTI call opened (open's answer, nonzero).
func (r *recycler) close(scope int32) {
	r.release(&r.arena, int(scope-1))
	r.scope.active = false
}

// swap installs st as the running context's state and returns the one it
// replaces.
func (r *recycler) swap(st recState) recState {
	out := r.recState
	r.recState = st
	return out
}

// stash keeps the buffer of an empty arena for the next context that
// takes an object, so a connection's parse does not grow one of its own.
func (r *recycler) stash(st *recState) {
	if len(st.arena) == 0 && cap(st.arena) > 0 {
		if len(r.spare) < maxSpare {
			r.spare = append(r.spare, st.arena)
		}
		st.arena = nil
	}
}

// track records o in the running arena, unless it is full.
func (r *recycler) track(o any, list int) bool {
	if len(r.arena) >= maxPinned {
		return false
	}
	if cap(r.arena) == 0 {
		if n := len(r.spare); n > 0 {
			r.arena, r.spare = r.spare[n-1], r.spare[:n-1]
		}
	}
	r.arena = append(r.arena, taken{o, list})
	return true
}

// release frees (*arena)[mark:]: every object is reset, or poisoned under
// the hiltipoison tag, and goes back to its free list while that has room.
func (r *recycler) release(arena *[]taken, mark int) {
	objs := *arena
	if mark >= len(objs) {
		return
	}
	for _, t := range objs[mark:] {
		switch t.list {
		case listVectors:
			v := t.obj.(*container.Vector)
			releaseVector(v)
			r.vectors.put(v)
		case listRopes:
			b := t.obj.(*hbytes.Bytes)
			releaseRope(b)
			r.ropes.put(b)
		case listViews:
			b := t.obj.(*hbytes.Bytes)
			releaseView(b)
			r.views.put(b)
		default:
			s := t.obj.(*values.Struct)
			releaseStruct(s)
			r.structs[t.list].put(s)
		}
	}
	clear(objs[mark:])
	*arena = objs[:mark]
}

// holds reports whether v is one of the objects arena[mark:] holds, or an
// iterator into one.
func (r *recycler) holds(mark int, v values.Value) bool {
	if v.O == nil {
		return false
	}
	for _, t := range r.arena[mark:] {
		if t.obj == any(v.O) {
			return true
		}
	}
	return false
}

// pool is one kind's free list.
type pool[T any] struct {
	free []T // released objects, at most maxRecycled
	used int // objects taken into an arena and not yet released
}

// take returns a free object, if there is one.
func (p *pool[T]) take() (T, bool) {
	if n := len(p.free); n > 0 {
		o := p.free[n-1]
		p.free = p.free[:n-1]
		return o, true
	}
	var zero T
	return zero, false
}

// put returns a released object.
func (p *pool[T]) put(o T) {
	p.used--
	if len(p.free) < maxRecycled {
		p.free = append(p.free, o)
	}
}

type structPool struct {
	def *values.StructDef
	pool[*values.Struct]
}

func (r *recycler) newStruct(def *values.StructDef) *values.Struct {
	list := -1
	for i := range r.structs {
		if r.structs[i].def == def {
			list = i
			break
		}
	}
	if list < 0 {
		r.structs = append(r.structs, structPool{def: def})
		list = len(r.structs) - 1
	}
	p := &r.structs[list].pool
	s, ok := p.take()
	switch {
	case !ok:
		s = values.NewStruct(def)
	case poisoned:
		s.Reset()
	}
	if r.track(s, list) {
		p.used++
	}
	return s
}

func (r *recycler) newVector(n int) *container.Vector {
	v, ok := r.vectors.take()
	if ok {
		v.Reset(values.Nil, n)
	} else {
		v = container.NewVectorSized(values.Nil, n)
	}
	if r.track(v, listVectors) {
		r.vectors.used++
	}
	return v
}

func (r *recycler) newBytes() *hbytes.Bytes {
	b, ok := r.ropes.take()
	switch {
	case !ok:
		b = hbytes.NewWithTail()
	case poisoned:
		b.ResetEmpty()
	}
	if r.track(b, listRopes) {
		r.ropes.used++
	}
	return b
}

func (r *recycler) view() *hbytes.Bytes {
	b, ok := r.views.take()
	if !ok {
		b = new(hbytes.Bytes)
	}
	if r.track(b, listViews) {
		r.views.used++
	}
	return b
}

// recycling reports whether the code running now is in a recycling scope.
func (ex *Exec) recycling() bool { return ex.rec != nil && ex.rec.scope.active }

// newValue is newValueOfType in a recycling scope: structs, vectors and
// bytes come from the free lists.
func (ex *Exec) newValue(t *types.Type, n int) (values.Value, error) {
	if !ex.recycling() {
		return newValueOfType(ex, t, n)
	}
	switch u := t.Deref(); {
	case u.Kind == types.Struct && u.StructDef != nil:
		return values.StructVal(ex.rec.newStruct(u.StructDef.Runtime())), nil
	case u.Kind == types.Vector:
		return values.Ref(values.KindVector, ex.rec.newVector(n)), nil
	case u.Kind == types.Bytes:
		return values.BytesVal(ex.rec.newBytes()), nil
	}
	return newValueOfType(ex, t, n)
}

// subBytes is b.SubBytes(from, to), with the view from the free list in a
// recycling scope. A view of lent bytes is recorded for Settle (lend.go).
func (ex *Exec) subBytes(b *hbytes.Bytes, from, to hbytes.Iter) (*hbytes.Bytes, error) {
	var nb *hbytes.Bytes
	if !ex.recycling() {
		var err error
		if nb, err = b.SubBytes(from, to); err != nil {
			return nil, err
		}
	} else {
		nb = ex.rec.view()
		if err := b.SubBytesInto(nb, from, to); err != nil {
			return nil, err
		}
	}
	ex.noteLent(nb)
	return nb, nil
}
