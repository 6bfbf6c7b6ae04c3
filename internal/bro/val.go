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
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"hilti/internal/rt/container"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

// Val is a Bro script value. Append is its one rendering (log, print,
// fmt, table key); Render is that rendering as a string.
type Val interface {
	TypeName() string
	Render() string
	Append(dst []byte) []byte
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

// Append implementations (Bro-log style).
func (v BoolVal) Append(dst []byte) []byte {
	if v {
		return append(dst, 'T')
	}
	return append(dst, 'F')
}
func (v CountVal) Append(dst []byte) []byte  { return strconv.AppendUint(dst, uint64(v), 10) }
func (v IntVal) Append(dst []byte) []byte    { return strconv.AppendInt(dst, int64(v), 10) }
func (v DoubleVal) Append(dst []byte) []byte { return strconv.AppendFloat(dst, float64(v), 'f', 6, 64) }
func (v StringVal) Append(dst []byte) []byte { return append(dst, v...) }
func (v AddrVal) Append(dst []byte) []byte   { return values.AppendAddr(dst, v.A) }
func (v SubnetVal) Append(dst []byte) []byte { return append(dst, values.Format(v.N)...) }
func (v PortVal) Append(dst []byte) []byte {
	dst = strconv.AppendUint(dst, uint64(v.Num), 10)
	return append(append(dst, '/'), protoName(v.Proto)...)
}
func (v TimeVal) Append(dst []byte) []byte {
	return strconv.AppendFloat(dst, float64(v)/1e9, 'f', 6, 64)
}
func (v IntervalVal) Append(dst []byte) []byte {
	return strconv.AppendFloat(dst, float64(v)/1e9, 'f', 6, 64)
}
func (v EnumVal) Append(dst []byte) []byte { return append(dst, v.Name...) }

// Render implementations: Append as a string.
func (v BoolVal) Render() string     { return string(v.Append(nil)) }
func (v CountVal) Render() string    { return string(v.Append(nil)) }
func (v IntVal) Render() string      { return string(v.Append(nil)) }
func (v DoubleVal) Render() string   { return string(v.Append(nil)) }
func (v StringVal) Render() string   { return string(v.Append(nil)) }
func (v AddrVal) Render() string     { return string(v.Append(nil)) }
func (v SubnetVal) Render() string   { return string(v.Append(nil)) }
func (v PortVal) Render() string     { return string(v.Append(nil)) }
func (v TimeVal) Render() string     { return string(v.Append(nil)) }
func (v IntervalVal) Render() string { return string(v.Append(nil)) }
func (v EnumVal) Render() string     { return string(v.Append(nil)) }

// appendOr appends v, or placeholder where v is nil (unset): "-" in a log
// column or fmt, "<unset>" inside a composite or a print.
func appendOr(dst []byte, v Val, placeholder string) []byte {
	if v == nil {
		return append(dst, placeholder...)
	}
	return v.Append(dst)
}

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

// Append implements Val.
func (r *RecordVal) Append(dst []byte) []byte {
	dst = append(dst, '[')
	for i, f := range r.T.Fields {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(append(dst, f...), '=')
		dst = appendOr(dst, r.F[i], "<unset>")
	}
	return append(dst, ']')
}

// Render implements Val.
func (r *RecordVal) Render() string { return string(r.Append(nil)) }

// TableVal is a Bro table or set (sets have nil yields). Entries keep
// insertion order; &create_expire / &read_expire expire them in network
// time, as each access first pops the due ones off the Table's queue.
//
// While the engine re-bases (clearMarks starts tracking; see state.go),
// every entry whose flow frame the next re-base must encode again is
// marked once: inserted, overwritten, removed, refreshed by a &read_expire
// read, or its aggregate yield handed to a script, which may mutate it
// through the reference without the table hearing of it.
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
	tbl     container.Table[string, tableItem]
	IsSet   bool
	multi   bool   // some entry has had more than one index
	nextSeq uint64 // seq the next inserted entry gets
	kbuf    []byte // scratch a probe's key is built in

	ExpireInterval int64 // ns; 0 = no expiration
	ExpireOnRead   bool  // &read_expire vs &create_expire

	expired *metrics.Counter         // entries expire removed; nil outside an interpreter
	labels  map[string][]*tableEntry // non-nil = tracking: live several-index entries by label
}

// tableItem is a script-table entry's payload; LastUse is network time.
type tableItem struct {
	key   []Val
	yield Val
	seq   uint64 // insertion rank: iteration order is data, so an entry can travel alone
}

type tableEntry = container.Entry[string, tableItem]

// NewTable creates a table (or set).
func NewTable(isSet bool) *TableVal {
	return &TableVal{tbl: container.MakeTable[string, tableItem](), IsSet: isSet}
}

// TypeName implements Val.
func (t *TableVal) TypeName() string {
	if t.IsSet {
		return "set"
	}
	return "table"
}

// Len returns the number of live entries.
func (t *TableVal) Len() int { return t.tbl.Len() }

// KeyString canonicalizes an index tuple.
func KeyString(key []Val) string { return string(appendKey(nil, key)) }

// appendKey appends key's canonical form: each index's type name, a NUL
// and its rendering, the indices separated by \x01.
func appendKey(dst []byte, key []Val) []byte {
	for i, k := range key {
		if i > 0 {
			dst = append(dst, '\x01')
		}
		dst = append(append(dst, k.TypeName()...), 0)
		dst = k.Append(dst)
	}
	return dst
}

// probe returns key's canonical form, built in the table's scratch: it is
// good until the next probe.
func (t *TableVal) probe(key []Val) []byte {
	t.kbuf = appendKey(t.kbuf[:0], key)
	return t.kbuf
}

// isAggregate reports whether a script holding v can mutate it in place.
func isAggregate(v Val) bool {
	switch v.(type) {
	case *RecordVal, *VectorVal, *TableVal:
		return true
	}
	return false
}

// clearMarks makes the table as it stands the re-base's base and
// (re)starts tracking against it.
func (t *TableVal) clearMarks() {
	t.tbl.ClearMarks()
	if t.labels == nil {
		t.labels = map[string][]*tableEntry{}
		t.tbl.Walk(func(e *tableEntry) bool {
			t.index(e)
			return true
		})
	}
}

// label is the name of the flow frame an entry travels in: its first
// index when that is a string, else "" (the entry is engine-global).
func (it *tableItem) label() string {
	if len(it.key) > 0 {
		if s, ok := it.key[0].(StringVal); ok {
			return string(s)
		}
	}
	return ""
}

// index files the live entry e under its label if it has further indices.
func (t *TableVal) index(e *tableEntry) {
	if l := e.V.label(); l != "" && len(e.V.key) > 1 {
		t.labels[l] = append(t.labels[l], e)
	}
}

// labelled appends to dst the live entries labelled uid, in seq order.
// oneKey is the canonical key string of the one-index key [uid], which a
// caller asking many tables builds once.
func (t *TableVal) labelled(dst []*tableEntry, uid string, oneKey []byte) []*tableEntry {
	n := len(dst)
	if e := container.FindBytes(&t.tbl, oneKey); e != nil {
		dst = append(dst, e)
	}
	switch {
	case t.labels != nil:
		dst = append(dst, t.labels[uid]...)
	case t.multi:
		t.tbl.Walk(func(e *tableEntry) bool {
			if len(e.V.key) > 1 && e.V.label() == uid {
				dst = append(dst, e)
			}
			return true
		})
	}
	if len(dst)-n > 1 {
		slices.SortFunc(dst[n:], bySeq)
	}
	return dst
}

func bySeq(a, b *tableEntry) int { return cmp.Compare(a.V.seq, b.V.seq) }

// add makes a new entry live at the end of the order and queues it.
func (t *TableVal) add(ks string, touched int64, it tableItem, restored bool) {
	e := t.tbl.Add(ks, timer.Time(touched), it)
	t.tbl.Queue(e, restored)
	if len(it.key) > 1 {
		t.multi = true
		if t.labels != nil {
			t.index(e)
		}
	}
}

// remove takes the live entry e out of the table.
func (t *TableVal) remove(e *tableEntry) {
	t.tbl.Drop(e)
	t.unindex(e)
}

// unindex takes the removed entry e out of the label index.
func (t *TableVal) unindex(e *tableEntry) {
	if t.labels != nil && len(e.V.key) > 1 {
		l := e.V.label()
		if s := slices.DeleteFunc(t.labels[l], func(x *tableEntry) bool { return x == e }); len(s) > 0 {
			t.labels[l] = s
		} else {
			delete(t.labels, l)
		}
	}
}

// expire drops stale entries (called on access with current network time):
// the queue is ordered by last use, so they are all at its head.
func (t *TableVal) expire(now int64) {
	if t.ExpireInterval <= 0 {
		return
	}
	cutoff := timer.Time(now - t.ExpireInterval)
	for e := t.tbl.PopDue(cutoff); e != nil; e = t.tbl.PopDue(cutoff) {
		t.unindex(e)
		t.expired.Inc()
	}
}

// Put inserts or updates an entry. Only an insert keeps key, as a copy:
// the caller may reuse it.
func (t *TableVal) Put(now int64, key []Val, yield Val) {
	t.expire(now)
	k := t.probe(key)
	if e := container.FindBytes(&t.tbl, k); e != nil {
		e.V.yield = yield
		t.tbl.Touch(e, timer.Time(now), false)
		t.tbl.Mark(e)
		return
	}
	t.add(string(k), now, tableItem{slices.Clone(key), yield, t.nextSeq}, false)
	t.nextSeq++
}

// find expires stale entries, then returns key's entry (nil when absent),
// refreshed if the table is &read_expire.
func (t *TableVal) find(now int64, key []Val) *tableEntry {
	t.expire(now)
	e := container.FindBytes(&t.tbl, t.probe(key))
	if e != nil && t.ExpireOnRead {
		t.tbl.Touch(e, timer.Time(now), false)
	}
	return e
}

// Get looks up an entry.
func (t *TableVal) Get(now int64, key []Val) (Val, bool) {
	e := t.find(now, key)
	if e == nil {
		return nil, false
	}
	if isAggregate(e.V.yield) {
		t.tbl.Mark(e)
	}
	return e.V.yield, true
}

// Has reports membership.
func (t *TableVal) Has(now int64, key []Val) bool { return t.find(now, key) != nil }

// Delete removes an entry.
func (t *TableVal) Delete(now int64, key []Val) {
	if e := container.FindBytes(&t.tbl, t.probe(key)); e != nil {
		t.remove(e)
	}
}

// install places a decoded entry, last touched at touched. A replayed
// entry keeps its recorded seq and joins the end of the order (settle then
// puts it at its place); an adopted one (live migration: the seq is the
// source instance's) updates its key in place or joins the end of this
// table's order under a fresh seq.
func (t *TableVal) install(it tableItem, touched int64, adopt bool) {
	ks := KeyString(it.key)
	old := t.tbl.Find(ks)
	if old != nil && (adopt || old.V.seq == it.seq) {
		old.V.key, old.V.yield = it.key, it.yield
		t.tbl.Touch(old, timer.Time(touched), true)
		t.tbl.Mark(old)
		return
	}
	if old != nil {
		t.remove(old)
	}
	if adopt {
		it.seq = t.nextSeq
		t.nextSeq++
	}
	t.add(ks, touched, it, true)
}

// settle restores ascending-seq order once a batch of installs is done.
func (t *TableVal) settle() { t.tbl.SortOrder(bySeq) }

// Each iterates live entries in insertion order.
func (t *TableVal) Each(fn func(key []Val, yield Val) bool) { t.each(false, fn) }

// each is Each; handOut says fn passes the yields on to a script.
func (t *TableVal) each(handOut bool, fn func(key []Val, yield Val) bool) {
	t.tbl.Walk(func(e *tableEntry) bool {
		if handOut && isAggregate(e.V.yield) {
			t.tbl.Mark(e)
		}
		return fn(e.V.key, e.V.yield)
	})
}

// Append implements Val.
func (t *TableVal) Append(dst []byte) []byte {
	dst = append(dst, '{')
	first := true
	t.Each(func(key []Val, yield Val) bool {
		if !first {
			dst = append(dst, ", "...)
		}
		first = false
		for i, k := range key {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = k.Append(dst)
		}
		if !t.IsSet && yield != nil {
			dst = yield.Append(append(dst, " -> "...))
		}
		return true
	})
	return append(dst, '}')
}

// Render implements Val.
func (t *TableVal) Render() string { return string(t.Append(nil)) }

// VectorVal is a growable vector.
type VectorVal struct{ Elems []Val }

// TypeName implements Val.
func (*VectorVal) TypeName() string { return "vector" }

// Append implements Val.
func (v *VectorVal) Append(dst []byte) []byte {
	dst = append(dst, '[')
	for i, e := range v.Elems {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendOr(dst, e, "<unset>")
	}
	return append(dst, ']')
}

// Render implements Val.
func (v *VectorVal) Render() string { return string(v.Append(nil)) }

// FuncVal is a script function reference.
type FuncVal struct {
	Name string
	Decl *FuncDecl
}

// TypeName implements Val.
func (*FuncVal) TypeName() string { return "func" }

// Append implements Val.
func (f *FuncVal) Append(dst []byte) []byte { return append(dst, f.Name...) }

// Render implements Val.
func (f *FuncVal) Render() string { return string(f.Append(nil)) }

// Equal compares two Vals for the == operator and table keys: addresses
// and subnets by value, anything else by type name and rendering. The
// kinds that render every value distinctly compare without rendering.
func Equal(a, b Val) bool {
	switch x := a.(type) {
	case AddrVal:
		y, ok := b.(AddrVal)
		return ok && values.Equal(x.A, y.A)
	case SubnetVal:
		y, ok := b.(SubnetVal)
		return ok && values.Equal(x.N, y.N)
	case BoolVal, CountVal, IntVal, StringVal, EnumVal:
		return a == b
	case PortVal:
		y, ok := b.(PortVal)
		return ok && x.Num == y.Num && protoName(x.Proto) == protoName(y.Proto)
	default:
		if a == nil || b == nil {
			return a == b
		}
		return a.TypeName() == b.TypeName() && bytes.Equal(a.Append(nil), b.Append(nil))
	}
}

// errVal formats a runtime type error.
func errVal(op string, v Val) error {
	return fmt.Errorf("bro: invalid operand for %s: %s", op, typeName(v))
}

// typeName is v's type name, "unset" for a value never set.
func typeName(v Val) string {
	if v == nil {
		return "unset"
	}
	return v.TypeName()
}
