// Sequence containers: List (doubly linked, with stable iterators) and
// Vector (growable array). These back HILTI's list<T> and vector<T> types
// and their iterator instructions.

package container

import (
	"slices"
	"strings"

	"hilti/internal/rt/values"
)

// List is HILTI's list<T>: a doubly linked list whose iterators stay valid
// across insertions and across erasure of other elements.
type List struct {
	head, tail *node
	size       int
}

type node struct {
	prev, next *node
	val        values.Value
	list       *List // nil after erase; lets iterators detect invalidation
}

// NewList creates an empty list.
func NewList() *List { return &List{} }

// TypeName implements values.Object.
func (l *List) TypeName() string { return "list" }

// Len returns the number of elements.
func (l *List) Len() int { return l.size }

// PushBack appends v (HILTI's list.push_back).
func (l *List) PushBack(v values.Value) *ListIter {
	n := &node{val: v, list: l, prev: l.tail}
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
	}
	l.tail = n
	l.size++
	return &ListIter{n: n, l: l}
}

// PushFront prepends v (HILTI's list.push_front).
func (l *List) PushFront(v values.Value) *ListIter {
	n := &node{val: v, list: l, next: l.head}
	if l.head != nil {
		l.head.prev = n
	} else {
		l.tail = n
	}
	l.head = n
	l.size++
	return &ListIter{n: n, l: l}
}

// PopFront removes and returns the first element.
func (l *List) PopFront() (values.Value, bool) {
	if l.head == nil {
		return values.Nil, false
	}
	v := l.head.val
	l.eraseNode(l.head)
	return v, true
}

// PopBack removes and returns the last element.
func (l *List) PopBack() (values.Value, bool) {
	if l.tail == nil {
		return values.Nil, false
	}
	v := l.tail.val
	l.eraseNode(l.tail)
	return v, true
}

// Front returns the first element.
func (l *List) Front() (values.Value, bool) {
	if l.head == nil {
		return values.Nil, false
	}
	return l.head.val, true
}

// Back returns the last element.
func (l *List) Back() (values.Value, bool) {
	if l.tail == nil {
		return values.Nil, false
	}
	return l.tail.val, true
}

func (l *List) eraseNode(n *node) {
	if n.list != l {
		return
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.list = nil
	l.size--
}

// Erase removes the element at it (HILTI's list.erase).
func (l *List) Erase(it *ListIter) bool {
	if it == nil || it.n == nil || it.n.list != l {
		return false
	}
	l.eraseNode(it.n)
	return true
}

// Begin returns an iterator at the first element (or the end iterator for
// an empty list).
func (l *List) Begin() *ListIter { return &ListIter{n: l.head, l: l} }

// End returns the end iterator.
func (l *List) End() *ListIter { return &ListIter{l: l} }

// Each iterates front to back; fn returning false stops.
func (l *List) Each(fn func(values.Value) bool) {
	for n := l.head; n != nil; n = n.next {
		if !fn(n.val) {
			return
		}
	}
}

// DeepCopyObj implements values.DeepCopier.
func (l *List) DeepCopyObj() values.Object {
	nl := NewList()
	l.Each(func(v values.Value) bool {
		nl.PushBack(values.DeepCopy(v))
		return true
	})
	return nl
}

// FormatObj implements values.Formatter.
func (l *List) FormatObj() string { return formatSeq("[", "]", l.Each) }

// ListIter is an iterator into a List. The end position has a nil node.
type ListIter struct {
	n *node
	l *List
}

// TypeName implements values.Object.
func (it *ListIter) TypeName() string { return "iterator<list>" }

// AtEnd reports whether the iterator is at the end (or invalidated).
func (it *ListIter) AtEnd() bool { return it.n == nil || it.n.list != it.l }

// Deref returns the element at the iterator.
func (it *ListIter) Deref() (values.Value, bool) {
	if it.AtEnd() {
		return values.Nil, false
	}
	return it.n.val, true
}

// Next returns an iterator advanced by one.
func (it *ListIter) Next() *ListIter {
	if it.AtEnd() {
		return &ListIter{l: it.l}
	}
	return &ListIter{n: it.n.next, l: it.l}
}

// Eq reports whether two iterators address the same position.
func (it *ListIter) Eq(o *ListIter) bool {
	return it.l == o.l && it.n == o.n
}

// Vector is HILTI's vector<T>: a growable array with O(1) indexing.
// Reading beyond the current size auto-extends with the element default,
// matching HILTI's vector semantics.
type Vector struct {
	elems []values.Value
	def   values.Value
}

// NewVector creates an empty vector whose implicit elements are def.
func NewVector(def values.Value) *Vector { return &Vector{def: def} }

// NewVectorSized creates an empty vector with room for n elements (at most
// MaxGrow, as Grow). Room for up to 4 lives in the vector's own object, so
// a vector built to a count read off the wire is one allocation.
func NewVectorSized(def values.Value, n int) *Vector {
	var v *Vector
	switch n {
	case 1:
		v = values.NewInline(func(v *Vector, a *[1]values.Value) { v.elems = a[:0] })
	case 2:
		v = values.NewInline(func(v *Vector, a *[2]values.Value) { v.elems = a[:0] })
	case 3:
		v = values.NewInline(func(v *Vector, a *[3]values.Value) { v.elems = a[:0] })
	case 4:
		v = values.NewInline(func(v *Vector, a *[4]values.Value) { v.elems = a[:0] })
	default:
		v = &Vector{}
		v.Grow(n)
	}
	v.def = def
	return v
}

// Reset empties the vector for reuse as NewVectorSized(def, n) would build
// it, keeping its storage: the elements it held are cleared, so it pins
// none of them.
func (v *Vector) Reset(def values.Value, n int) {
	clear(v.elems)
	v.elems, v.def = v.elems[:0], def
	v.Grow(n)
}

// TypeName implements values.Object.
func (v *Vector) TypeName() string { return "vector" }

// Len returns the current size.
func (v *Vector) Len() int { return len(v.elems) }

// PushBack appends an element.
func (v *Vector) PushBack(x values.Value) { v.elems = append(v.elems, x) }

// Get returns element i; past the end it reports false and leaves the
// vector as it is.
func (v *Vector) Get(i int) (values.Value, bool) {
	if i < 0 || i >= len(v.elems) {
		return values.Nil, false
	}
	return v.elems[i], true
}

// Set assigns element i, extending the vector with its default element to
// include it — by at most MaxGrow elements past the end, as an index read
// off the wire must not buy memory the input has not backed; farther, it
// reports false.
func (v *Vector) Set(i int, x values.Value) bool {
	if i < 0 || i-len(v.elems) > MaxGrow {
		return false
	}
	v.reserve(i + 1)
	v.elems[i] = x
	return true
}

// Reserve pre-extends the vector to at least n elements (HILTI's
// vector.reserve) and reports true — if that reaches no farther than
// Set(n-1) may; else it reports false and leaves the vector as it is.
func (v *Vector) Reserve(n int) bool {
	if n-1-len(v.elems) > MaxGrow {
		return false
	}
	v.reserve(n)
	return true
}

// MaxGrow bounds Grow and how far past its end Set and Reserve extend a
// vector: a count or an index read off the wire must not buy memory the
// input has not backed.
const MaxGrow = 64

// Grow makes room for n more elements, up to MaxGrow, without changing
// the vector.
func (v *Vector) Grow(n int) {
	if n = min(n, MaxGrow); n > cap(v.elems)-len(v.elems) {
		v.elems = slices.Grow(v.elems, n)
	}
}

func (v *Vector) reserve(n int) {
	for len(v.elems) < n {
		v.elems = append(v.elems, v.def)
	}
}

// Each iterates in index order; fn returning false stops.
func (v *Vector) Each(fn func(values.Value) bool) {
	for _, e := range v.elems {
		if !fn(e) {
			return
		}
	}
}

// Elems exposes the backing slice (read-only by convention; used by glue).
func (v *Vector) Elems() []values.Value { return v.elems }

// Def returns the element default used for auto-extension (for
// checkpointing).
func (v *Vector) Def() values.Value { return v.def }

// DeepCopyObj implements values.DeepCopier.
func (v *Vector) DeepCopyObj() values.Object {
	nv := NewVector(values.DeepCopy(v.def))
	for _, e := range v.elems {
		nv.PushBack(values.DeepCopy(e))
	}
	return nv
}

// FormatObj implements values.Formatter.
func (v *Vector) FormatObj() string { return formatSeq("[", "]", v.Each) }

func formatSeq(open, close string, each func(func(values.Value) bool)) string {
	var sb strings.Builder
	sb.WriteString(open)
	first := true
	each(func(e values.Value) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(values.Format(e))
		return true
	})
	sb.WriteString(close)
	return sb.String()
}
