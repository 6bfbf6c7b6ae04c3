// Package container implements HILTI's high-level container types — lists,
// vectors, sets, and maps — including the built-in state management that
// automatically expires elements according to a configured policy (paper
// §2 "State Management", §3.2 "Rich Data Types").
//
// Sets and maps support create- and access-based expiration: once a timeout
// is attached, each new element joins the last-use queue of the Table,
// and one timer per container is due at the head's deadline. This is the
// mechanism behind the paper's stateful-firewall example, which keeps
// dynamic allow rules in a set with a five-minute inactivity timeout.
//
// Iteration order of sets and maps is insertion order, which makes program
// output deterministic for testing while matching HILTI's "unspecified but
// stable" contract.
package container

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

// ExpireStrategy selects which touches refresh an element's deadline.
type ExpireStrategy int

// Expiration strategies, mirroring HILTI's ExpireStrategy enum.
const (
	ExpireNone   ExpireStrategy = iota
	ExpireCreate                // fixed lifetime from insertion
	ExpireAccess                // lifetime refreshed by reads and writes
)

// ExpireStrategyEnum is the HILTI-level enum type for expiration strategies.
var ExpireStrategyEnum = values.NewEnumType("ExpireStrategy", "None", "Create", "Access")

func (m *Map) active() bool {
	return m.strategy != ExpireNone && m.timeout > 0 && m.mgr != nil
}

// deadline is the time e expires.
func (m *Map) deadline(e *entry) timer.Time { return e.LastUse + timer.Time(m.timeout) }

// mapItem is the payload of a map or set element.
type mapItem struct{ key, val values.Value }

type entry = Entry[string, mapItem]

// Map is HILTI's map<K,V>: a hash map with optional element expiration and
// an optional default value for misses.
//
// Keys are canonicalized with values.AppendKey into a per-map scratch
// buffer, so steady-state lookups allocate nothing: the buffer is reused
// across calls and Go's map[string(b)] access pattern avoids the string
// copy. The encoded key is materialized as a string only when a new entry
// is inserted. The scratch buffer is claimed with a CAS per operation, so
// concurrent *read-only* access (Get/Exists with no access-based expiry
// configured) is safe: the single-threaded winner keeps the buffer and
// pays no allocation, a concurrent loser encodes into a fresh buffer.
// Mutations still require external serialization (one Exec owns the map).
type Map struct {
	mapTable
	def    values.Value
	hasDef bool
	kbuf   []byte      // scratch for key encoding; grows to the largest key
	kbusy  atomic.Bool // claims kbuf for the duration of one encode+lookup

	// The expiry policy and its one timer, which is due no later than the
	// deadline of the queue's head while the queue is non-empty, and unarmed
	// while it is empty. Elements inserted while expiry is off are never
	// queued, so they never expire.
	strategy ExpireStrategy
	timeout  timer.Interval
	mgr      *timer.Mgr
	tm       *timer.Timer // made by the first SetTimeout
}

// mapTable is the core's fields without its methods, so that Map's API is
// its own; Map reaches the methods through tbl.
type mapTable Table[string, mapItem]

// tbl is m's core.
func (m *Map) tbl() *Table[string, mapItem] { return (*Table[string, mapItem])(&m.mapTable) }

// NewMap creates an empty map.
func NewMap() *Map { return &Map{mapTable: mapTable(MakeTable[string, mapItem]())} }

// TypeName implements values.Object.
func (m *Map) TypeName() string { return "map" }

// Len returns the number of live elements.
func (m *Map) Len() int { return len(m.idx) }

// SetDefault installs a default value returned by Get for missing keys.
func (m *Map) SetDefault(v values.Value) {
	m.def, m.hasDef = v, true
}

// SetTimeout configures element expiration (HILTI's map.timeout). Elements
// already present never expire, but those queued under an earlier timeout
// are re-armed on the new manager and timeout.
func (m *Map) SetTimeout(mgr *timer.Mgr, strategy ExpireStrategy, timeout timer.Interval) {
	if m.tm == nil {
		m.tm = timer.NewTimer(m.fire)
	}
	m.tm.Cancel()
	m.mgr, m.strategy, m.timeout = mgr, strategy, timeout
	m.arm()
}

// encKey encodes key, panicking on unhashable kinds exactly as values.Key
// did. The returned owned flag reports whether the per-map scratch buffer
// was claimed (CAS won) and must be released with releaseKey once the
// encoded bytes are no longer referenced; a losing racer gets a freshly
// allocated buffer instead, keeping concurrent readers safe without
// adding allocations to the uncontended path.
func (m *Map) encKey(key values.Value) (b []byte, owned bool) {
	var ok bool
	if m.kbusy.CompareAndSwap(false, true) {
		b, ok = values.AppendKey(m.kbuf[:0], key)
		m.kbuf = b[:0]
		owned = true
	} else {
		b, ok = values.AppendKey(nil, key)
	}
	if !ok {
		m.releaseKey(owned)
		panic(fmt.Sprintf("container: unhashable kind %v", key.K))
	}
	return b, owned
}

// releaseKey returns the scratch buffer claimed by encKey.
func (m *Map) releaseKey(owned bool) {
	if owned {
		m.kbusy.Store(false)
	}
}

// Insert adds or replaces the value for key (HILTI's map.insert).
func (m *Map) Insert(key, val values.Value) {
	b, owned := m.encKey(key)
	if e, ok := m.idx[string(b)]; ok {
		m.releaseKey(owned)
		e.V.val = val
		m.touch(e)
		return
	}
	k := string(b)
	m.releaseKey(owned)
	if !m.active() {
		m.tbl().Add(k, 0, mapItem{key, val})
		return
	}
	e := m.tbl().Add(k, m.mgr.Now(), mapItem{key, val})
	m.tbl().Queue(e, false)
	m.schedule(e)
}

// InsertRestored re-inserts an element from a checkpoint, preserving its
// recorded last-use timestamp so the expiration deadline after restore
// matches the one the checkpointed container would have enforced.
func (m *Map) InsertRestored(key, val values.Value, lastUse timer.Time) {
	b, owned := m.encKey(key)
	e := m.idx[string(b)]
	if e == nil {
		e = m.tbl().Add(string(b), lastUse, mapItem{key, val})
		if m.active() {
			m.tbl().Queue(e, true)
		}
		m.schedule(e)
	} else {
		e.V.val = val
		// An element restored at the last use it has is not queued again,
		// so a timer Expire(false) disarmed stays disarmed.
		if m.tbl().Touch(e, lastUse, true) {
			m.schedule(e)
		}
	}
	m.releaseKey(owned)
}

// schedule keeps the timer due by the deadline of e, if queued.
func (m *Map) schedule(e *entry) {
	switch {
	case !e.queued:
	case !m.tm.Armed():
		m.arm()
	case m.deadline(e) < m.tm.FireTime():
		m.tm.Update(m.deadline(e))
	}
}

// arm schedules the unarmed timer at the head's deadline. It leaves the
// timer unarmed when the queue is empty or expiry is off.
func (m *Map) arm() {
	if !m.active() {
		return
	}
	if e := m.tbl().Stalest(); e != nil {
		m.mgr.Schedule(m.deadline(e), m.tm) //nolint:errcheck // unarmed: callers cancel first
	}
}

// lookup probes the index by encoded key, applying access-expiry policy.
func (m *Map) lookup(b []byte) (*entry, bool) {
	e, ok := m.idx[string(b)] // compiler-recognized: no string allocation
	if ok && m.strategy == ExpireAccess {
		m.touch(e)
	}
	return e, ok
}

// Get returns the value for key. When the key is missing and a default is
// configured, the default is returned with ok=true (as HILTI's map.get
// with a default type parameter); otherwise ok is false.
func (m *Map) Get(key values.Value) (values.Value, bool) {
	b, owned := m.encKey(key)
	v, ok := m.GetKeyed(b)
	m.releaseKey(owned)
	return v, ok
}

// GetKeyed is Get for a caller-encoded key (values.AppendKey form). It is
// the zero-allocation path the VM uses for per-packet lookups.
func (m *Map) GetKeyed(k []byte) (values.Value, bool) {
	if e, ok := m.lookup(k); ok {
		return e.V.val, true
	}
	if m.hasDef {
		return m.def, true
	}
	return values.Nil, false
}

// Exists reports whether key is present (HILTI's map.exists). It counts as
// an access for access-based expiration.
func (m *Map) Exists(key values.Value) bool {
	b, owned := m.encKey(key)
	ok := m.ExistsKeyed(b)
	m.releaseKey(owned)
	return ok
}

// ExistsKeyed is Exists for a caller-encoded key.
func (m *Map) ExistsKeyed(k []byte) bool {
	_, ok := m.lookup(k)
	return ok
}

// Remove deletes key (HILTI's map.remove), returning whether it was present.
func (m *Map) Remove(key values.Value) bool {
	b, owned := m.encKey(key)
	e, ok := m.idx[string(b)]
	m.releaseKey(owned)
	if !ok {
		return false
	}
	m.drop(e)
	return true
}

// Clear removes all elements.
func (m *Map) Clear() {
	for _, e := range m.idx {
		m.drop(e)
	}
}

// drop removes e, cancelling the timer once the queue is empty.
func (m *Map) drop(e *entry) {
	m.tbl().Drop(e)
	if m.head == nil && m.tm != nil {
		m.tm.Cancel()
	}
}

// touch refreshes e's last use under expiry. The timer stays where it is:
// if e was the head, the timer fires early, finds the new head not yet due
// and re-arms for it.
func (m *Map) touch(e *entry) {
	if m.active() && m.tbl().Touch(e, m.mgr.Now(), false) {
		m.schedule(e)
	}
}

// fire is the timer's callback: it drops the head while it is due (every
// queued element when Expire(true) flushes it), then re-arms for the new
// head.
func (m *Map) fire() {
	cutoff := m.mgr.Now() - timer.Time(m.timeout)
	if m.tm.Flushing() {
		cutoff = math.MaxInt64
	}
	for m.tbl().PopDue(cutoff) != nil {
		expirations.Add(1)
	}
	m.arm()
}

// expirations counts idle-timeout evictions process-wide. Expiry is a cold
// path (at most one per element lifetime), so a single shared atomic is
// fine; a per-container counter would complicate the checkpoint codec for
// no observability gain.
var expirations atomic.Uint64

// Expirations returns the total number of elements evicted by the state
// management policy (paper §3.3) since process start, across all
// containers.
func Expirations() uint64 { return expirations.Load() }

// Each calls fn for every live element in insertion order; fn returning
// false stops iteration. fn may remove entries (including the current
// one): compaction is deferred until the outermost iteration finishes.
func (m *Map) Each(fn func(key, val values.Value) bool) {
	m.tbl().Walk(func(e *entry) bool { return fn(e.V.key, e.V.val) })
}

// Timeout returns the configured expiration policy (for checkpointing).
func (m *Map) Timeout() (ExpireStrategy, timer.Interval) {
	return m.strategy, m.timeout
}

// Default returns the configured miss default (for checkpointing).
func (m *Map) Default() (values.Value, bool) { return m.def, m.hasDef }

// EachEntry iterates live elements in insertion order, exposing each
// element's last-use timestamp alongside key and value (for checkpointing).
// Like Each, it tolerates removals by the callback.
func (m *Map) EachEntry(fn func(key, val values.Value, lastUse timer.Time) bool) {
	m.tbl().Walk(func(e *entry) bool { return fn(e.V.key, e.V.val, e.LastUse) })
}

// Keys returns the live keys in insertion order.
func (m *Map) Keys() []values.Value {
	out := make([]values.Value, 0, m.Len())
	m.Each(func(k, _ values.Value) bool { out = append(out, k); return true })
	return out
}

// DeepCopyObj implements values.DeepCopier. Expiration configuration does
// not transfer: the copy lives in the receiving thread, which attaches its
// own timer manager if desired.
func (m *Map) DeepCopyObj() values.Object {
	nm := NewMap()
	nm.def, nm.hasDef = m.def, m.hasDef
	m.Each(func(k, v values.Value) bool {
		nm.Insert(values.DeepCopy(k), values.DeepCopy(v))
		return true
	})
	return nm
}

// FormatObj implements values.Formatter.
func (m *Map) FormatObj() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	m.Each(func(k, v values.Value) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%s: %s", values.Format(k), values.Format(v))
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}

// Set is HILTI's set<T>: a hash set with optional element expiration.
// It is a thin view over Map with void values.
type Set struct{ m Map }

// NewSet creates an empty set.
func NewSet() *Set { return &Set{m: Map{mapTable: mapTable(MakeTable[string, mapItem]())}} }

// TypeName implements values.Object.
func (s *Set) TypeName() string { return "set" }

// SetTimeout configures element expiration (HILTI's set.timeout).
func (s *Set) SetTimeout(mgr *timer.Mgr, strategy ExpireStrategy, timeout timer.Interval) {
	s.m.SetTimeout(mgr, strategy, timeout)
}

// Len returns the number of live elements.
func (s *Set) Len() int { return s.m.Len() }

// Insert adds an element (HILTI's set.insert).
func (s *Set) Insert(v values.Value) { s.m.Insert(v, values.Nil) }

// InsertRestored re-inserts an element from a checkpoint with its recorded
// last-use timestamp (see Map.InsertRestored).
func (s *Set) InsertRestored(v values.Value, lastUse timer.Time) {
	s.m.InsertRestored(v, values.Nil, lastUse)
}

// Timeout returns the configured expiration policy (for checkpointing).
func (s *Set) Timeout() (ExpireStrategy, timer.Interval) { return s.m.Timeout() }

// EachEntry iterates live elements in insertion order with their last-use
// timestamps (for checkpointing).
func (s *Set) EachEntry(fn func(v values.Value, lastUse timer.Time) bool) {
	s.m.tbl().Walk(func(e *entry) bool { return fn(e.V.key, e.LastUse) })
}

// Exists reports membership (HILTI's set.exists).
func (s *Set) Exists(v values.Value) bool { return s.m.Exists(v) }

// ExistsKeyed is Exists for a caller-encoded key (values.AppendKey form).
func (s *Set) ExistsKeyed(k []byte) bool { return s.m.ExistsKeyed(k) }

// Remove deletes an element (HILTI's set.remove).
func (s *Set) Remove(v values.Value) bool { return s.m.Remove(v) }

// Clear removes all elements.
func (s *Set) Clear() { s.m.Clear() }

// Each iterates live elements in insertion order.
func (s *Set) Each(fn func(v values.Value) bool) {
	s.m.tbl().Walk(func(e *entry) bool { return fn(e.V.key) })
}

// Elems returns the live elements in insertion order.
func (s *Set) Elems() []values.Value { return s.m.Keys() }

// DeepCopyObj implements values.DeepCopier.
func (s *Set) DeepCopyObj() values.Object {
	ns := NewSet()
	s.Each(func(v values.Value) bool {
		ns.Insert(values.DeepCopy(v))
		return true
	})
	return ns
}

// FormatObj implements values.Formatter.
func (s *Set) FormatObj() string { return formatSeq("{", "}", s.Each) }
