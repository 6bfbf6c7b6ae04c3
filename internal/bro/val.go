// Package bro implements a miniature but complete Bro-style NIDS host
// application — the paper's fourth exemplar's host (§4 "Bro Script
// Compiler") and the driver of its evaluation (§6): connection management
// over pcap input, protocol analyzers (hand-written "standard" parsers in
// internal/analyzers, or BinPAC++/HILTI parsers), an event engine, a
// Bro-like scripting language with both a tree-walking interpreter (the
// baseline) and a compiler to HILTI, a logging framework writing http.log
// / files.log / dns.log, and the Val<->HILTI glue layer whose cost Figure
// 9/10 accounts separately.
//
// This file defines the interpreter's value representation. Like Bro, the
// engine represents script values as instances of a Val class hierarchy
// that the rest of the system also passes around — which is exactly why
// the paper's plugin needs conversion glue at every HILTI boundary (§5
// "Bro Interface").
package bro

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hilti/internal/rt/metrics"
	"hilti/internal/rt/values"
)

// Val is a Bro script value.
type Val interface {
	TypeName() string
	Render() string // log/print representation
}

// BoolVal is a boolean.
type BoolVal bool

// CountVal is an unsigned count.
type CountVal uint64

// IntVal is a signed integer.
type IntVal int64

// DoubleVal is a floating-point number.
type DoubleVal float64

// StringVal is a string.
type StringVal string

// AddrVal is an IP address (wrapping the runtime addr representation).
type AddrVal struct{ A values.Value }

// SubnetVal is a CIDR subnet.
type SubnetVal struct{ N values.Value }

// PortVal is a transport port.
type PortVal struct {
	Num   uint16
	Proto uint8
}

// TimeVal is an absolute time in ns.
type TimeVal int64

// IntervalVal is a duration in ns.
type IntervalVal int64

// EnumVal is an enum label.
type EnumVal struct{ Name string }

// TypeName implementations.
func (BoolVal) TypeName() string     { return "bool" }
func (CountVal) TypeName() string    { return "count" }
func (IntVal) TypeName() string      { return "int" }
func (DoubleVal) TypeName() string   { return "double" }
func (StringVal) TypeName() string   { return "string" }
func (AddrVal) TypeName() string     { return "addr" }
func (SubnetVal) TypeName() string   { return "subnet" }
func (PortVal) TypeName() string     { return "port" }
func (TimeVal) TypeName() string     { return "time" }
func (IntervalVal) TypeName() string { return "interval" }
func (EnumVal) TypeName() string     { return "enum" }

// Render implementations (Bro-log style).
func (v BoolVal) Render() string {
	if v {
		return "T"
	}
	return "F"
}
func (v CountVal) Render() string  { return strconv.FormatUint(uint64(v), 10) }
func (v IntVal) Render() string    { return strconv.FormatInt(int64(v), 10) }
func (v DoubleVal) Render() string { return strconv.FormatFloat(float64(v), 'f', 6, 64) }
func (v StringVal) Render() string { return string(v) }
func (v AddrVal) Render() string   { return values.Format(v.A) }
func (v SubnetVal) Render() string { return values.Format(v.N) }
func (v PortVal) Render() string {
	return strconv.Itoa(int(v.Num)) + "/" + protoName(v.Proto)
}
func (v TimeVal) Render() string {
	return strconv.FormatFloat(float64(v)/1e9, 'f', 6, 64)
}
func (v IntervalVal) Render() string {
	return strconv.FormatFloat(float64(v)/1e9, 'f', 6, 64)
}
func (v EnumVal) Render() string { return v.Name }

func protoName(p uint8) string {
	switch p {
	case values.ProtoTCP:
		return "tcp"
	case values.ProtoUDP:
		return "udp"
	case values.ProtoICMP:
		return "icmp"
	default:
		return "unknown"
	}
}

// RecordType describes a record's fields.
type RecordType struct {
	Name   string
	Fields []string
	index  map[string]int

	// def is the type's HILTI struct definition (see hiltiDef), built on
	// first conversion. Record types are shared by pipeline workers, hence
	// the Once; it also means a RecordType must not be copied.
	defOnce sync.Once
	def     *values.StructDef
}

// hiltiDef returns the one HILTI struct definition every converted value of
// this record type carries: the linked program's, when the engine adopted
// it, else one built on first use. Sharing it saves building a field slice
// and a name index per conversion, and keeps the definition pointer stable
// across values, which LogSet's column plans key on.
func (rt *RecordType) hiltiDef() *values.StructDef {
	rt.defOnce.Do(func() {
		fields := make([]values.StructField, len(rt.Fields))
		for i, f := range rt.Fields {
			fields[i] = values.StructField{Name: f, Default: values.Unset}
		}
		rt.def = values.NewStructDef(rt.Name, fields...)
	})
	return rt.def
}

// adoptDef makes d the definition rt's converted values carry, if d
// describes rt. A program compiled against the linked definition reads
// their fields by index. It must come before rt's first conversion.
func (rt *RecordType) adoptDef(d *values.StructDef) {
	if sameFields(d, rt.Fields) {
		rt.defOnce.Do(func() { rt.def = d })
	}
}

// sameFields reports whether d has exactly the named fields, in order,
// none with a default: a struct of d then holds what a record of those
// fields holds.
func sameFields(d *values.StructDef, names []string) bool {
	if d == nil || len(d.Fields) != len(names) {
		return false
	}
	for i, f := range d.Fields {
		if f.Name != names[i] || f.Default.K != values.KindUnset {
			return false
		}
	}
	return true
}

// NewRecordType builds a record type.
func NewRecordType(name string, fields ...string) *RecordType {
	rt := &RecordType{Name: name, Fields: fields, index: map[string]int{}}
	for i, f := range fields {
		rt.index[f] = i
	}
	return rt
}

// Index returns the field index or -1.
func (rt *RecordType) Index(name string) int {
	if i, ok := rt.index[name]; ok {
		return i
	}
	return -1
}

// RecordVal is a record instance; unset fields are nil.
type RecordVal struct {
	T *RecordType
	F []Val
}

// NewRecord instantiates an empty record.
func NewRecord(t *RecordType) *RecordVal {
	return &RecordVal{T: t, F: make([]Val, len(t.Fields))}
}

// TypeName implements Val.
func (r *RecordVal) TypeName() string { return r.T.Name }

// Get returns a field by name (nil when unset or unknown).
func (r *RecordVal) Get(name string) Val {
	if i := r.T.Index(name); i >= 0 {
		return r.F[i]
	}
	return nil
}

// Set assigns a field by name.
func (r *RecordVal) Set(name string, v Val) {
	if i := r.T.Index(name); i >= 0 {
		r.F[i] = v
	}
}

// Render implements Val.
func (r *RecordVal) Render() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, f := range r.T.Fields {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(f)
		sb.WriteByte('=')
		if r.F[i] == nil {
			sb.WriteString("<unset>")
		} else {
			sb.WriteString(r.F[i].Render())
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

// TableVal is a Bro table or set (sets have nil yields). Entries keep
// insertion order for deterministic iteration; expiration follows the
// &create_expire / &read_expire attributes, driven by network time.
//
// Two intrusive structures keep a table's cost independent of its size.
// Live entries are threaded on a queue ordered by touched, so expire only
// ever looks at the head. And while the engine re-bases (clearMarks starts
// tracking; see state.go), every entry whose flow frame the next re-base
// must encode again is marked once: inserted, overwritten, removed,
// refreshed by a &read_expire read, or its aggregate yield handed to a
// script, which may mutate it through the reference without the table
// hearing of it.
//
// An entry whose first index is a string is labelled by it (state.go files
// the entry in the flow frame of that name); labelled finds a label's
// entries without looking at the others. For a one-index table the label
// is the key. Entries with further indices are found through labels, an
// index kept only while tracking is on — its per-insert cost is then paid
// by the runs that re-base, migrate and forget flows by the hundred, and
// by nobody else; without it they are found by a walk, and multi says
// whether there can be any.
type TableVal struct {
	IsSet    bool
	multi    bool // some entry has had more than one index
	entries  map[string]*tableEntry
	order    []*tableEntry // ascending seq; deleted entries linger until compaction
	nextSeq  uint64        // seq the next inserted entry gets
	unsorted bool          // install appended out of seq or touched order; settle pending

	ExpireInterval int64 // ns; 0 = no expiration
	ExpireOnRead   bool  // &read_expire vs &create_expire

	q       tableEntry               // expiry queue sentinel: q.next is the stalest live entry
	expired *metrics.Counter         // entries expire removed; nil outside an interpreter
	labels  map[string][]*tableEntry // non-nil = tracking: live several-index entries by label
	marks   []*tableEntry            // entries changed since the last re-base, each once
}

type tableEntry struct {
	key     []Val
	keyStr  string
	yield   Val
	touched int64
	seq     uint64 // insertion rank: iteration order is data, so an entry can travel alone
	deleted bool

	prev, next *tableEntry // expiry queue links (nil once deleted)
	marked     bool        // in marks
}

// NewTable creates a table (or set).
func NewTable(isSet bool) *TableVal {
	t := &TableVal{IsSet: isSet, entries: map[string]*tableEntry{}}
	t.q.prev, t.q.next = &t.q, &t.q
	return t
}

// TypeName implements Val.
func (t *TableVal) TypeName() string {
	if t.IsSet {
		return "set"
	}
	return "table"
}

// KeyString canonicalizes an index tuple.
func KeyString(key []Val) string {
	if len(key) == 1 {
		return key[0].TypeName() + "\x00" + key[0].Render()
	}
	var sb strings.Builder
	for i, k := range key {
		if i > 0 {
			sb.WriteByte('\x01')
		}
		sb.WriteString(k.TypeName())
		sb.WriteByte(0)
		sb.WriteString(k.Render())
	}
	return sb.String()
}

// isAggregate reports whether a script holding v can mutate it in place.
func isAggregate(v Val) bool {
	switch v.(type) {
	case *RecordVal, *VectorVal, *TableVal:
		return true
	}
	return false
}

// linkAfter threads e onto the expiry queue behind at.
func linkAfter(at, e *tableEntry) {
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
}

// enqueue threads e behind every entry touched no later than it. Network
// time rarely runs backwards, so the walk from the tail is short.
func (t *TableVal) enqueue(e *tableEntry) {
	at := t.q.prev
	for at != &t.q && at.touched > e.touched {
		at = at.prev
	}
	linkAfter(at, e)
}

// touch sets e's expiry clock and moves it to its place in the queue.
func (t *TableVal) touch(e *tableEntry, now int64) {
	if e.touched == now {
		return
	}
	e.touched = now
	e.prev.next, e.next.prev = e.next, e.prev
	t.enqueue(e)
}

// mark notes that the next re-base must encode e's flow frame again.
func (t *TableVal) mark(e *tableEntry) {
	if t.labels != nil && !e.marked {
		e.marked = true
		t.marks = append(t.marks, e)
	}
}

// clearMarks makes the table as it stands the re-base's base and
// (re)starts tracking against it.
func (t *TableVal) clearMarks() {
	for _, e := range t.marks {
		e.marked = false
	}
	clear(t.marks)
	t.marks = t.marks[:0]
	if t.labels == nil {
		t.labels = map[string][]*tableEntry{}
		for _, e := range t.order {
			if !e.deleted {
				t.index(e)
			}
		}
	}
}

// label is the name of the flow frame e travels in: its first index when
// that is a string, else "" (e is engine-global).
func (e *tableEntry) label() string {
	if len(e.key) > 0 {
		if s, ok := e.key[0].(StringVal); ok {
			return string(s)
		}
	}
	return ""
}

// index files the live entry e under its label if it has further indices.
func (t *TableVal) index(e *tableEntry) {
	if l := e.label(); l != "" && len(e.key) > 1 {
		t.labels[l] = append(t.labels[l], e)
	}
}

// labelled appends to dst the live entries labelled uid, in seq order.
// oneKey is the canonical key string of the one-index key [uid], which a
// caller asking many tables builds once.
func (t *TableVal) labelled(dst []*tableEntry, uid string, oneKey []byte) []*tableEntry {
	n := len(dst)
	if e := t.entries[string(oneKey)]; e != nil {
		dst = append(dst, e)
	}
	switch {
	case t.labels != nil:
		dst = append(dst, t.labels[uid]...)
	case t.multi:
		for _, e := range t.order {
			if !e.deleted && len(e.key) > 1 && e.label() == uid {
				dst = append(dst, e)
			}
		}
	}
	if len(dst)-n > 1 {
		slices.SortFunc(dst[n:], func(a, b *tableEntry) int { return cmp.Compare(a.seq, b.seq) })
	}
	return dst
}

// add makes the new entry e live; the caller has queued it.
func (t *TableVal) add(e *tableEntry) {
	t.entries[e.keyStr] = e
	t.order = append(t.order, e)
	if len(e.key) > 1 {
		t.multi = true
		if t.labels != nil {
			t.index(e)
		}
	}
	t.mark(e)
}

// remove takes the live entry e out of the table.
func (t *TableVal) remove(e *tableEntry) {
	e.deleted = true
	delete(t.entries, e.keyStr)
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	if t.labels != nil && len(e.key) > 1 {
		l := e.label()
		if s := slices.DeleteFunc(t.labels[l], func(x *tableEntry) bool { return x == e }); len(s) > 0 {
			t.labels[l] = s
		} else {
			delete(t.labels, l)
		}
	}
	t.mark(e)
}

// expire drops stale entries (called on access with current network time):
// the queue is ordered by touched, so they are all at its head.
func (t *TableVal) expire(now int64) {
	if t.ExpireInterval <= 0 {
		return
	}
	for e := t.q.next; e != &t.q && now-e.touched >= t.ExpireInterval; e = t.q.next {
		t.remove(e)
		t.expired.Inc()
	}
}

// Put inserts or updates an entry.
func (t *TableVal) Put(now int64, key []Val, yield Val) {
	t.expire(now)
	ks := KeyString(key)
	if e, ok := t.entries[ks]; ok {
		e.yield = yield
		t.touch(e, now)
		t.mark(e)
		return
	}
	e := &tableEntry{key: key, keyStr: ks, yield: yield, touched: now, seq: t.nextSeq}
	t.nextSeq++
	t.enqueue(e)
	t.add(e)
	if len(t.order) > 2*len(t.entries)+16 {
		live := t.order[:0]
		for _, oe := range t.order {
			if !oe.deleted {
				live = append(live, oe)
			}
		}
		t.order = live
	}
}

// find expires stale entries, then returns key's entry (nil when absent),
// refreshed if the table is &read_expire.
func (t *TableVal) find(now int64, key []Val) *tableEntry {
	t.expire(now)
	e := t.entries[KeyString(key)]
	if e != nil && t.ExpireOnRead && e.touched != now {
		t.touch(e, now)
		t.mark(e)
	}
	return e
}

// Get looks up an entry.
func (t *TableVal) Get(now int64, key []Val) (Val, bool) {
	e := t.find(now, key)
	if e == nil {
		return nil, false
	}
	if isAggregate(e.yield) {
		t.mark(e)
	}
	return e.yield, true
}

// Has reports membership.
func (t *TableVal) Has(now int64, key []Val) bool { return t.find(now, key) != nil }

// Delete removes an entry.
func (t *TableVal) Delete(now int64, key []Val) { t.drop(KeyString(key)) }

// drop removes the entry with canonical key ks, if present.
func (t *TableVal) drop(ks string) {
	if e, ok := t.entries[ks]; ok {
		t.remove(e)
	}
}

// install places a decoded entry. A replayed entry keeps its recorded seq
// and joins the end of both orders (settle then puts it at the matching
// positions); an adopted one (live migration: the seq is the source
// instance's) updates its key in place or joins the end of this table's
// order, and is queued at once, as no settle follows.
func (t *TableVal) install(en *tableEntry, adopt bool) {
	old, had := t.entries[en.keyStr]
	if had && (adopt || old.seq == en.seq) {
		old.key, old.yield = en.key, en.yield
		t.touch(old, en.touched)
		t.mark(old)
		return
	}
	if had {
		t.remove(old)
	}
	if adopt {
		en.seq = t.nextSeq
		t.nextSeq++
		t.enqueue(en)
	} else {
		if last := t.q.prev; last != &t.q && last.touched > en.touched {
			t.unsorted = true
		}
		linkAfter(t.q.prev, en)
	}
	if n := len(t.order); n > 0 && t.order[n-1].seq > en.seq {
		t.unsorted = true
	}
	t.add(en)
}

// settle restores ascending-seq order, and the expiry queue's order by
// touched, once a batch of installs is done.
func (t *TableVal) settle() {
	if !t.unsorted {
		return
	}
	t.unsorted = false
	sort.SliceStable(t.order, func(i, j int) bool { return t.order[i].seq < t.order[j].seq })
	queue := make([]*tableEntry, 0, len(t.entries))
	for e := t.q.next; e != &t.q; e = e.next {
		queue = append(queue, e)
	}
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].touched < queue[j].touched })
	t.q.prev, t.q.next = &t.q, &t.q
	for _, e := range queue {
		linkAfter(t.q.prev, e)
	}
}

// Len returns the number of live entries.
func (t *TableVal) Len() int { return len(t.entries) }

// Each iterates live entries in insertion order.
func (t *TableVal) Each(fn func(key []Val, yield Val) bool) { t.each(false, fn) }

// each is Each; handOut says fn passes the yields on to a script.
func (t *TableVal) each(handOut bool, fn func(key []Val, yield Val) bool) {
	for _, e := range t.order {
		if e.deleted {
			continue
		}
		if handOut && isAggregate(e.yield) {
			t.mark(e)
		}
		if !fn(e.key, e.yield) {
			return
		}
	}
}

// Render implements Val.
func (t *TableVal) Render() string {
	var parts []string
	t.Each(func(key []Val, yield Val) bool {
		ks := make([]string, len(key))
		for i, k := range key {
			ks[i] = k.Render()
		}
		s := strings.Join(ks, ",")
		if !t.IsSet && yield != nil {
			s += " -> " + yield.Render()
		}
		parts = append(parts, s)
		return true
	})
	return "{" + strings.Join(parts, ", ") + "}"
}

// VectorVal is a growable vector.
type VectorVal struct{ Elems []Val }

// TypeName implements Val.
func (*VectorVal) TypeName() string { return "vector" }

// Render implements Val.
func (v *VectorVal) Render() string {
	parts := make([]string, len(v.Elems))
	for i, e := range v.Elems {
		if e == nil {
			parts[i] = "<unset>"
		} else {
			parts[i] = e.Render()
		}
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// FuncVal is a script function reference.
type FuncVal struct {
	Name string
	Decl *FuncDecl
}

// TypeName implements Val.
func (*FuncVal) TypeName() string { return "func" }

// Render implements Val.
func (f *FuncVal) Render() string { return f.Name }

// Equal compares two Vals for the == operator and table keys.
func Equal(a, b Val) bool {
	switch x := a.(type) {
	case AddrVal:
		y, ok := b.(AddrVal)
		return ok && values.Equal(x.A, y.A)
	case SubnetVal:
		y, ok := b.(SubnetVal)
		return ok && values.Equal(x.N, y.N)
	default:
		if a == nil || b == nil {
			return a == b
		}
		return a.TypeName() == b.TypeName() && a.Render() == b.Render()
	}
}

// errVal formats a runtime type error.
func errVal(op string, v Val) error {
	return fmt.Errorf("bro: invalid operand for %s: %s", op, v.TypeName())
}
