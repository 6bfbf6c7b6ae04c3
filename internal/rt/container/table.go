package container

import (
	"cmp"
	"fmt"
	"slices"

	"hilti/internal/rt/timer"
)

// Table is the keyed core of every expiring table in the runtime: HILTI's
// Map and Set, and the script engine's tables. It holds what they share:
// the index by canonical key, insertion order, the last-use queue and the
// dirty marks. The owner embeds it and keeps its payload P, its key
// encoding and its expiry policy, and decides when to expire: it pops the
// due entries (PopDue) on access, or from a timer.
//
// The queue holds the entries the owner queued, in ascending LastUse. A
// live insert or refresh walks back from the tail: a table's clock may be
// network time, which can step backwards, if rarely far. A restored or
// adopted entry is appended, and an append older than the tail leaves the
// queue unsorted until its head is next read, so a restored batch costs
// one sort.
//
// Marks are inert until ClearMarks starts tracking. From then on, every
// entry added, dropped or refreshed since the last ClearMarks is in Marks
// once; the owner marks the changes of its own payload.
type Table[P any] struct {
	idx        map[string]*Entry[P]
	order      []*Entry[P] // insertion order; dropped entries linger until compaction
	dead       int         // dropped entries in order
	iter       int         // running Walks; compaction waits for the outermost
	head, tail *Entry[P]   // the queue; head is the stalest entry
	unsorted   bool        // an append was older than the tail; Stalest sorts
	tracking   bool
	marks      []*Entry[P]
}

// Entry is one element of a Table: the core's header, then the owner's
// payload.
type Entry[P any] struct {
	k string // canonical key
	// LastUse is the expiry clock. Once the entry is queued, only Touch
	// writes it: the queue is ordered by it.
	LastUse                 timer.Time
	prev, next              *Entry[P] // queue links
	queued, deleted, marked bool
	V                       P
}

// Key returns the entry's canonical key.
func (e *Entry[P]) Key() string { return e.k }

// MakeTable returns an empty table.
func MakeTable[P any]() Table[P] { return Table[P]{idx: make(map[string]*Entry[P])} }

// Len returns the number of live entries.
func (t *Table[P]) Len() int { return len(t.idx) }

// Find returns the live entry with canonical key k, or nil.
func (t *Table[P]) Find(k string) *Entry[P] { return t.idx[k] }

// FindBytes is Find for a key in a buffer; it allocates nothing.
func (t *Table[P]) FindBytes(k []byte) *Entry[P] { return t.idx[string(k)] }

// Add appends a live entry under k, which must be absent; the caller
// queues it if it may expire.
func (t *Table[P]) Add(k string, lastUse timer.Time, v P) *Entry[P] {
	e := &Entry[P]{LastUse: lastUse, V: v}
	t.Insert(k, e)
	return e
}

// Insert is Add for an entry the owner allocated, its LastUse and payload
// set: for a payload whose address must be known before it goes live.
func (t *Table[P]) Insert(k string, e *Entry[P]) {
	e.k = k
	t.idx[k] = e
	t.order = append(t.order, e)
	t.Mark(e)
}

// Drop removes the live entry e.
func (t *Table[P]) Drop(e *Entry[P]) {
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
func (t *Table[P]) compact() {
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
func (t *Table[P]) Walk(fn func(e *Entry[P]) bool) {
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
func (t *Table[P]) SortOrder(cmp func(a, b *Entry[P]) int) {
	if !slices.IsSortedFunc(t.order, cmp) {
		slices.SortStableFunc(t.order, cmp)
	}
}

// Queue threads e, live and not queued, into the queue. A live insert
// walks back from the tail to its place; a restored one is appended.
func (t *Table[P]) Queue(e *Entry[P], restored bool) {
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
// moves as Queue places it, restored or live.
func (t *Table[P]) Touch(e *Entry[P], at timer.Time, restored bool) bool {
	if e.LastUse == at {
		return false
	}
	e.LastUse = at
	t.Mark(e)
	if e.queued {
		t.unlink(e)
		t.Queue(e, restored)
	}
	return true
}

// unlink takes e off the queue.
func (t *Table[P]) unlink(e *Entry[P]) {
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
func (t *Table[P]) Stalest() *Entry[P] {
	if t.unsorted {
		t.unsorted = false
		q := make([]*Entry[P], 0, len(t.idx))
		for e := t.head; e != nil; e = e.next {
			q = append(q, e)
		}
		slices.SortStableFunc(q, func(a, b *Entry[P]) int { return cmp.Compare(a.LastUse, b.LastUse) })
		t.head, t.tail = nil, nil
		for _, e := range q {
			t.Queue(e, true)
		}
	}
	return t.head
}

// PopDue drops and returns the head of the queue if it was last used no
// later than cutoff, else returns nil; an owner expires entries by calling
// it until it returns nil.
func (t *Table[P]) PopDue(cutoff timer.Time) *Entry[P] {
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
func (t *Table[P]) Queued() ([]*Entry[P], error) {
	var q []*Entry[P]
	var prev *Entry[P]
	for e := t.head; e != nil; prev, e = e, e.next {
		switch {
		case e.prev != prev:
			return q, fmt.Errorf("queue position %d links back to the wrong entry", len(q))
		case !e.queued || e.deleted || t.idx[e.k] != e:
			return q, fmt.Errorf("queue position %d holds %q, not queued and live", len(q), e.k)
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
func (t *Table[P]) Mark(e *Entry[P]) {
	if t.tracking && !e.marked {
		e.marked = true
		t.marks = append(t.marks, e)
	}
}

// ClearMarks makes the table as it stands the base the marks are kept
// against, and starts tracking.
func (t *Table[P]) ClearMarks() {
	for _, e := range t.marks {
		e.marked = false
	}
	clear(t.marks)
	t.marks = t.marks[:0]
	t.tracking = true
}

// Marks returns the entries marked since ClearMarks, dropped ones too.
func (t *Table[P]) Marks() []*Entry[P] { return t.marks }
