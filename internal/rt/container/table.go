package container

import (
	"cmp"
	"fmt"
	"slices"

	"hilti/internal/rt/timer"
)

// Table is the keyed core of every expiring table in the runtime: HILTI's
// Map and Set, the script engine's tables, its connections and the
// pipeline's flows. It holds their index by canonical key K, insertion
// order, last-use queue and dirty marks. The owner embeds it, keeps its
// payload P, key encoding and expiry policy, and pops due entries (PopDue).
//
// The queue holds the entries the owner queued, in ascending LastUse, ties
// in touch order. A live insert or refresh walks back from the tail: a
// table's clock may be network time, which can step backwards, if rarely
// far. A restored or adopted entry is appended, and an append older than
// the tail leaves the queue unsorted until its head is next read, so a
// restored batch costs one sort.
//
// Marks are inert until ClearMarks starts tracking. From then on, every
// entry added, dropped or refreshed since the last ClearMarks is in Marks
// once; the owner marks the changes of its own payload.
type Table[K comparable, P any] struct {
	idx        map[K]*Entry[K, P]
	order      []*Entry[K, P] // insertion order; dropped entries linger until compaction
	dead       int            // dropped entries in order
	iter       int            // running Walks; compaction waits for the outermost
	head, tail *Entry[K, P]   // the queue; head is the stalest entry
	unsorted   bool           // an append was older than the tail; Stalest sorts
	tracking   bool
	marks      []*Entry[K, P]
}

// Entry is one element of a Table: the core's header, then the owner's
// payload.
type Entry[K comparable, P any] struct {
	k K // canonical key
	// LastUse is the expiry clock. Once the entry is queued, only Touch
	// writes it: the queue is ordered by it.
	LastUse                 timer.Time
	prev, next              *Entry[K, P] // queue links
	queued, deleted, marked bool
	V                       P
}

// Key returns the entry's canonical key.
func (e *Entry[K, P]) Key() K { return e.k }

// MakeTable returns an empty table.
func MakeTable[K comparable, P any]() Table[K, P] { return Table[K, P]{idx: make(map[K]*Entry[K, P])} }

// Len returns the number of live entries.
func (t *Table[K, P]) Len() int { return len(t.idx) }

// Find returns the live entry with canonical key k, or nil.
func (t *Table[K, P]) Find(k K) *Entry[K, P] { return t.idx[k] }

// FindBytes is Find on a string-keyed table, probing with a buffer: no allocation.
func FindBytes[P any](t *Table[string, P], k []byte) *Entry[string, P] { return t.idx[string(k)] }

// Add appends a live entry under k, which must be absent; the caller
// queues it if it may expire.
func (t *Table[K, P]) Add(k K, lastUse timer.Time, v P) *Entry[K, P] {
	e := &Entry[K, P]{LastUse: lastUse, V: v}
	t.Insert(k, e)
	return e
}

// Insert is Add for an entry the owner allocated, its LastUse and payload
// set: for a payload whose address must be known before it goes live.
func (t *Table[K, P]) Insert(k K, e *Entry[K, P]) {
	e.k = k
	t.idx[k] = e
	t.order = append(t.order, e)
	t.Mark(e)
}

// Drop removes the live entry e.
func (t *Table[K, P]) Drop(e *Entry[K, P]) {
	if e.queued {
		t.unlink(e)
	}
	e.deleted = true
	t.dead++
	delete(t.idx, e.k)
	t.Mark(e)
	t.compact()
}

// compact drops the tombstones from the insertion order once they are as
// many as the live entries, unless a Walk is ranging over it: rewriting
// its backing array under the loop would skip or repeat entries. The loop
// compacts on exit.
func (t *Table[K, P]) compact() {
	if t.iter > 0 || t.dead <= 16 || t.dead*2 < len(t.order) {
		return
	}
	live := t.order[:0]
	for _, e := range t.order {
		if !e.deleted {
			live = append(live, e)
		}
	}
	clear(t.order[len(live):])
	t.order = live
	t.dead = 0
}

// Walk calls fn for every live entry in insertion order until fn returns
// false. fn may drop entries, the current one included.
func (t *Table[K, P]) Walk(fn func(e *Entry[K, P]) bool) {
	t.iter++
	defer func() {
		t.iter--
		t.compact()
	}()
	for _, e := range t.order {
		if !e.deleted && !fn(e) {
			return
		}
	}
}

// SortOrder puts the insertion order in cmp's order, for an owner whose
// order is data and arrives out of turn.
func (t *Table[K, P]) SortOrder(cmp func(a, b *Entry[K, P]) int) {
	if !slices.IsSortedFunc(t.order, cmp) {
		slices.SortStableFunc(t.order, cmp)
	}
}

// Queue threads e, live and not queued, into the queue. A live insert
// walks back from the tail to its place; a restored one is appended.
func (t *Table[K, P]) Queue(e *Entry[K, P], restored bool) {
	at := t.tail
	if restored {
		t.unsorted = t.unsorted || at != nil && at.LastUse > e.LastUse
	} else {
		for at != nil && at.LastUse > e.LastUse {
			at = at.prev
		}
	}
	e.prev, e.queued = at, true
	if at == nil {
		e.next, t.head = t.head, e
	} else {
		e.next, at.next = at.next, e
	}
	if e.next == nil {
		t.tail = e
	} else {
		e.next.prev = e
	}
}

// Touch sets e's last use to at, reporting whether it changed; a queued e
// moves as Queue places it, restored or live. A live touch that leaves
// LastUse as it was still moves e behind the entries last used then too.
func (t *Table[K, P]) Touch(e *Entry[K, P], at timer.Time, restored bool) bool {
	changed := e.LastUse != at
	if changed {
		e.LastUse = at
		t.Mark(e)
	} else if restored || e.next == nil || e.next.LastUse != at {
		return false
	}
	if e.queued {
		t.unlink(e)
		t.Queue(e, restored)
	}
	return changed
}

// unlink takes e off the queue.
func (t *Table[K, P]) unlink(e *Entry[K, P]) {
	if e.prev == nil {
		t.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		t.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	e.prev, e.next, e.queued = nil, nil, false
}

// Stalest returns the head of the queue (nil when it is empty), sorting
// the queue first if an append left it unsorted: a restored batch costs
// one sort.
func (t *Table[K, P]) Stalest() *Entry[K, P] {
	if t.unsorted {
		t.unsorted = false
		q := make([]*Entry[K, P], 0, len(t.idx))
		for e := t.head; e != nil; e = e.next {
			q = append(q, e)
		}
		slices.SortStableFunc(q, func(a, b *Entry[K, P]) int { return cmp.Compare(a.LastUse, b.LastUse) })
		t.head, t.tail = nil, nil
		for _, e := range q {
			t.Queue(e, true)
		}
	}
	return t.head
}

// Later returns the entry queued after e: the queue is Stalest, Later, ….
func (e *Entry[K, P]) Later() *Entry[K, P] { return e.next }

// PopDue drops and returns the head of the queue if it was last used no
// later than cutoff, else returns nil; an owner expires entries by calling
// it until it returns nil.
func (t *Table[K, P]) PopDue(cutoff timer.Time) *Entry[K, P] {
	e := t.Stalest()
	if e == nil || e.LastUse > cutoff {
		return nil
	}
	t.Drop(e)
	return e
}

// Queued returns the queue as it stands, stalest first, without sorting
// it, and an error at its first fault: a link that does not lead back, an
// entry that is not queued, live and indexed, or an order broken while the
// queue is not flagged unsorted. Tests check the queue through it.
func (t *Table[K, P]) Queued() ([]*Entry[K, P], error) {
	var q []*Entry[K, P]
	var prev *Entry[K, P]
	for e := t.head; e != nil; prev, e = e, e.next {
		switch {
		case e.prev != prev:
			return q, fmt.Errorf("queue position %d links back to the wrong entry", len(q))
		case !e.queued || e.deleted || t.idx[e.k] != e:
			return q, fmt.Errorf("queue position %d holds %v, not queued and live", len(q), e.k)
		case !t.unsorted && prev != nil && prev.LastUse > e.LastUse:
			return q, fmt.Errorf("queue position %d was last used at %d, before %d", len(q), e.LastUse, prev.LastUse)
		}
		q = append(q, e)
	}
	if t.tail != prev {
		return q, fmt.Errorf("the tail is not the last of %d queued entries", len(q))
	}
	return q, nil
}

// Mark notes that e changed since the last ClearMarks, if tracking.
func (t *Table[K, P]) Mark(e *Entry[K, P]) {
	if t.tracking && !e.marked {
		e.marked = true
		t.marks = append(t.marks, e)
	}
}

// ClearMarks makes the table as it stands the base the marks are kept
// against, and starts tracking.
func (t *Table[K, P]) ClearMarks() {
	for _, e := range t.marks {
		e.marked = false
	}
	clear(t.marks)
	t.marks = t.marks[:0]
	t.tracking = true
}

// Marks returns the entries marked since ClearMarks, dropped ones too.
func (t *Table[K, P]) Marks() []*Entry[K, P] { return t.marks }
