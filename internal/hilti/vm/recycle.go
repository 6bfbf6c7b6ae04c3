// Recycling: a call whose values die when it returns takes them from free
// lists. A DNS datagram's parse builds a Message, its questions and records,
// their vectors and name ropes, hands the Message to its %done hook, and
// returns; the host converts what it keeps while the hook runs. Nothing the
// parse built is reachable after it. The host asks for such an entry with
// Exec.Recycle once its host functions are registered. A static rule over
// the entry's call closure then decides whether the closure can keep any of
// its values. If it cannot, every CallFn of the entry takes the struct,
// vector and bytes objects it builds from per-Exec free lists, and returns
// them when the outermost such call ends (DESIGN "A datagram's parse is
// borrowed, then recycled").

package vm

import (
	"errors"
	"fmt"

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
	ex.HostFns[name] = fn
	if ex.borrowing == nil {
		ex.borrowing = map[string]bool{}
	}
	ex.borrowing[name] = true
}

// Recycle decides whether CallFn of entry recycles, and records the answer
// for this Exec. It returns nil when the entry recycles. Otherwise it
// returns why not, naming the first instruction that fails the rule.
//
// The rule covers entry and every function and hook body it can call. It
// fails an instruction that:
//   - reads or writes a global, since a global outlives the call;
//   - has an opRetains row and an operand that is not a constant;
//   - has an opReenters row, unless it is a call of a compiled function, a
//     builtin or a borrowing host, or a hook.run with no host bodies;
//   - is not stamped with an op row at all.
//
// Suspension needs no check: only CallFn recycles, and under CallFn a
// would-block raises Hilti::WouldBlock instead of parking. A Resumable never
// recycles.
//
// The caller keeps two rules. First, objects reachable from the entry's
// arguments may refer to recycled values once the call returns, and so may
// its result. The host must reset or drop them before it reads them again.
// Second, the answer describes the host functions and host hook bodies
// registered now. Re-registering a borrowing host through RegisterHost
// drops every answer. Hook bodies added later are not seen.
func (ex *Exec) Recycle(entry *CompiledFunc) error {
	if err := ex.recyclable(entry); err != nil {
		return err
	}
	if ex.rec == nil {
		ex.rec = &recycler{}
	}
	for len(ex.rec.entries) <= entry.ID {
		ex.rec.entries = append(ex.rec.entries, false)
	}
	ex.rec.entries[entry.ID] = true
	return nil
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

// maxRecycled bounds each free list: a datagram that builds more objects
// than this gets the rest from the heap, and they are not kept.
const maxRecycled = 256

// recycler is an Exec's recycling state: the entries Recycle accepted, the
// scope of the outermost recycling call, and the free lists.
type recycler struct {
	entries []bool // by CompiledFunc.ID
	scope   recScope

	structs []structPool
	vectors pool[*container.Vector]
	ropes   pool[*hbytes.Bytes] // new bytes
	views   pool[*hbytes.Bytes] // bytes.sub, unpack.bytes
}

// recScope says whether a recycling call is running (open) and whether the
// code running now is in its closure (active). A non-recycling CallFn nested
// in it, such as a compiled event handler a borrowing host dispatches,
// clears active until it returns, so it allocates as usual.
type recScope struct{ open, active bool }

// enter adjusts the scope for a CallFn of fn and returns the scope to
// restore when it ends. A recycling entry opens a scope when none is open,
// and joins an active one. Any other call runs outside the scope.
func (r *recycler) enter(fn *CompiledFunc) recScope {
	outer := r.scope
	switch {
	case fn.ID >= len(r.entries) || !r.entries[fn.ID]:
		r.scope.active = false
	case !outer.open:
		r.scope = recScope{open: true, active: true}
	}
	return outer
}

// exit ends a CallFn: the call that opened the scope releases it.
func (r *recycler) exit(outer recScope) {
	if r.scope.open && !outer.open {
		r.release()
	}
	r.scope = outer
}

// pool is one free list: objs[:used] are in the open scope, the rest free.
type pool[T any] struct {
	objs []T
	used int
}

func (p *pool[T]) take() (T, bool) {
	if p.used < len(p.objs) {
		p.used++
		return p.objs[p.used-1], true
	}
	var zero T
	return zero, false
}

// keep records an object built because the list was empty.
func (p *pool[T]) keep(o T) {
	if len(p.objs) < maxRecycled {
		p.objs = append(p.objs, o)
		p.used++
	}
}

// inUse returns the objects in the scope and frees them.
func (p *pool[T]) inUse() []T {
	objs := p.objs[:p.used]
	p.used = 0
	return objs
}

type structPool struct {
	def *values.StructDef
	pool[*values.Struct]
}

func (r *recycler) newStruct(def *values.StructDef) *values.Struct {
	var p *pool[*values.Struct]
	for i := range r.structs {
		if r.structs[i].def == def {
			p = &r.structs[i].pool
			break
		}
	}
	if p == nil {
		r.structs = append(r.structs, structPool{def: def})
		p = &r.structs[len(r.structs)-1].pool
	}
	if s, ok := p.take(); ok {
		if poisoned {
			s.Reset()
		}
		return s
	}
	s := values.NewStruct(def)
	p.keep(s)
	return s
}

func (r *recycler) newVector(n int) *container.Vector {
	if v, ok := r.vectors.take(); ok {
		v.Reset(values.Nil, n)
		return v
	}
	v := container.NewVectorSized(values.Nil, n)
	r.vectors.keep(v)
	return v
}

func (r *recycler) newBytes() *hbytes.Bytes {
	if b, ok := r.ropes.take(); ok {
		if poisoned {
			b.ResetEmpty()
		}
		return b
	}
	b := hbytes.NewWithTail()
	r.ropes.keep(b)
	return b
}

func (r *recycler) view() *hbytes.Bytes {
	if b, ok := r.views.take(); ok {
		return b
	}
	b := new(hbytes.Bytes)
	r.views.keep(b)
	return b
}

// release ends the scope: every object it took is reset, or poisoned under
// the hiltipoison tag, and free again.
func (r *recycler) release() {
	for i := range r.structs {
		for _, s := range r.structs[i].inUse() {
			releaseStruct(s)
		}
	}
	for _, v := range r.vectors.inUse() {
		releaseVector(v)
	}
	for _, b := range r.ropes.inUse() {
		releaseRope(b)
	}
	for _, b := range r.views.inUse() {
		releaseView(b)
	}
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
// recycling scope.
func (ex *Exec) subBytes(b *hbytes.Bytes, from, to hbytes.Iter) (*hbytes.Bytes, error) {
	if !ex.recycling() {
		return b.SubBytes(from, to)
	}
	nb := ex.rec.view()
	if err := b.SubBytesInto(nb, from, to); err != nil {
		return nil, err
	}
	return nb, nil
}
