// Package container implements HILTI's high-level container types — lists,
// vectors, sets, and maps — including the built-in state management that
// automatically expires elements according to a configured policy (paper
// §2 "State Management", §3.2 "Rich Data Types").
//
// Sets and maps support create- and access-based expiration: once a timeout
// is attached, each new element joins a queue ordered by last use, and each
// touch (policy-dependent) moves it to the tail. One timer per container,
// through a timer manager, is due at the head's deadline. This is the
// mechanism behind the paper's stateful-firewall example, which keeps
// dynamic allow rules in a set with a five-minute inactivity timeout.
//
// Iteration order of sets and maps is insertion order, which makes program
// output deterministic for testing while matching HILTI's "unspecified but
// stable" contract.
package container

import (
	"cmp"
	"fmt"
	"slices"
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

// expiry is the shared expiration bookkeeping of sets and maps: the policy,
// and the queue of the elements it can expire, in ascending lastUse. The
// one timer is due no later than the head's deadline while the queue is
// non-empty, and unarmed while it is empty. Elements inserted while expiry
// is off are never queued, so they never expire.
type expiry struct {
	strategy   ExpireStrategy
	timeout    timer.Interval
	mgr        *timer.Mgr
	head, tail *entry       // the queue; head is the stalest element
	unsorted   bool         // an append was older than the tail; settle pending
	tm         *timer.Timer // made by the first SetTimeout
}

func (x *expiry) active() bool {
	return x.strategy != ExpireNone && x.timeout > 0 && x.mgr != nil
}

// deadline is the time e expires.
func (x *expiry) deadline(e *entry) timer.Time { return e.lastUse + timer.Time(x.timeout) }

// push appends e to the queue and keeps the timer due by e's deadline. An
// element older than the tail (restore replays elements in any last-use
// order) leaves the queue unsorted until it is next read.
func (x *expiry) push(e *entry) {
	if x.tail != nil && x.tail.lastUse > e.lastUse {
		x.unsorted = true
	}
	x.link(e)
	if !x.tm.Armed() {
		x.arm()
	} else if at := x.deadline(e); at < x.tm.FireTime() {
		x.tm.Update(at)
	}
}

// link puts e at the queue's tail.
func (x *expiry) link(e *entry) {
	e.prev, e.next, e.queued = x.tail, nil, true
	if x.tail == nil {
		x.head = e
	} else {
		x.tail.next = e
	}
	x.tail = e
}

// unlink takes e off the queue.
func (x *expiry) unlink(e *entry) {
	if e.prev == nil {
		x.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		x.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	e.prev, e.next, e.queued = nil, nil, false
}

// arm schedules the unarmed timer at the head's deadline, sorting the
// queue first. It leaves the timer unarmed when the queue is empty or
// expiry is off.
func (x *expiry) arm() {
	if x.head == nil || !x.active() {
		return
	}
	x.settle()
	x.mgr.Schedule(x.deadline(x.head), x.tm) //nolint:errcheck // unarmed: callers cancel first
}

// settle sorts the queue by lastUse after out-of-order appends: a restored
// batch costs one sort, not a walk back from the tail per element.
func (x *expiry) settle() {
	if !x.unsorted {
		return
	}
	x.unsorted = false
	var q []*entry
	for e := x.head; e != nil; e = e.next {
		q = append(q, e)
	}
	slices.SortStableFunc(q, func(a, b *entry) int { return cmp.Compare(a.lastUse, b.lastUse) })
	x.head, x.tail = nil, nil
	for _, e := range q {
		x.link(e)
	}
}

// entry is one element of a map or set.
type entry struct {
	k          string // canonical encoded key (values.AppendKey form)
	key        values.Value
	val        values.Value
	lastUse    timer.Time
	prev, next *entry // expiry queue links
	queued     bool   // on the expiry queue
	deleted    bool
}

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
	idx    map[string]*entry
	order  []*entry // insertion order, with tombstones compacted lazily
	dead   int
	def    values.Value
	hasDef bool
	kbuf   []byte      // scratch for key encoding; grows to the largest key
	kbusy  atomic.Bool // claims kbuf for the duration of one encode+lookup
	iter   int         // active Each/EachEntry loops; compaction deferred while >0
	expiry
}

// NewMap creates an empty map.
func NewMap() *Map { return &Map{idx: make(map[string]*entry)} }

// TypeName implements values.Object.
func (m *Map) TypeName() string { return "map" }

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

// Len returns the number of live elements.
func (m *Map) Len() int { return len(m.idx) }

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
		e.val = val
		m.touch(e)
		return
	}
	k := string(b)
	m.releaseKey(owned)
	e := &entry{k: k, key: key, val: val}
	m.idx[e.k] = e
	m.order = append(m.order, e)
	if m.expiry.active() {
		e.lastUse = m.mgr.Now()
		m.push(e)
	}
}

// InsertRestored re-inserts an element from a checkpoint, preserving its
// recorded last-use timestamp so the expiration deadline after restore
// matches the one the checkpointed container would have enforced.
func (m *Map) InsertRestored(key, val values.Value, lastUse timer.Time) {
	b, owned := m.encKey(key)
	if e, ok := m.idx[string(b)]; ok {
		m.releaseKey(owned)
		e.val = val
		m.restoreUse(e, lastUse)
		return
	}
	k := string(b)
	m.releaseKey(owned)
	e := &entry{k: k, key: key, val: val, lastUse: lastUse}
	m.idx[e.k] = e
	m.order = append(m.order, e)
	if m.expiry.active() {
		m.push(e)
	}
}

// restoreUse sets e's recorded last use and moves a queued e to the tail.
func (m *Map) restoreUse(e *entry, lastUse timer.Time) {
	if e.lastUse == lastUse {
		return
	}
	e.lastUse = lastUse
	if e.queued {
		m.unlink(e)
		m.push(e)
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
		return e.val, true
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

func (m *Map) drop(e *entry) {
	if e.queued {
		m.unlink(e)
		if m.head == nil {
			m.tm.Cancel()
		}
	}
	e.deleted = true
	m.dead++
	delete(m.idx, e.k)
	m.maybeCompact()
}

// touch sets e's last use to now and moves a queued e to the tail. The
// timer stays where it is: if e was the head, the timer fires early, finds
// the new head not yet due and re-arms for it.
func (m *Map) touch(e *entry) {
	if !m.expiry.active() {
		return
	}
	now := m.mgr.Now()
	if e.lastUse == now {
		return
	}
	e.lastUse = now
	if e.queued {
		m.unlink(e)
		m.push(e)
	}
}

// fire is the timer's callback: it drops the head while it is due (every
// queued element when Expire(true) flushes it), then re-arms for the new
// head.
func (m *Map) fire() {
	m.settle()
	now, flush := m.mgr.Now(), m.tm.Flushing()
	for e := m.head; e != nil && (flush || m.deadline(e) <= now); e = m.head {
		expirations.Add(1)
		m.drop(e)
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

func (m *Map) maybeCompact() {
	if m.iter > 0 {
		// An Each/EachEntry loop is ranging m.order; rewriting its backing
		// array here would skip or double-visit elements (or leave the loop
		// reading the nil tail). The loop re-checks on exit.
		return
	}
	if m.dead < 32 || m.dead*2 < len(m.order) {
		return
	}
	live := m.order[:0]
	for _, e := range m.order {
		if !e.deleted {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(m.order); i++ {
		m.order[i] = nil
	}
	m.order = live
	m.dead = 0
}

// Each calls fn for every live element in insertion order; fn returning
// false stops iteration. fn may remove entries (including the current
// one): compaction is deferred until the outermost iteration finishes.
func (m *Map) Each(fn func(key, val values.Value) bool) {
	m.iter++
	defer func() {
		m.iter--
		m.maybeCompact()
	}()
	for _, e := range m.order {
		if e.deleted {
			continue
		}
		if !fn(e.key, e.val) {
			return
		}
	}
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
	m.iter++
	defer func() {
		m.iter--
		m.maybeCompact()
	}()
	for _, e := range m.order {
		if e.deleted {
			continue
		}
		if !fn(e.key, e.val, e.lastUse) {
			return
		}
	}
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
func NewSet() *Set {
	return &Set{m: Map{idx: make(map[string]*entry)}}
}

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
	s.m.EachEntry(func(k, _ values.Value, lastUse timer.Time) bool {
		return fn(k, lastUse)
	})
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
	s.m.Each(func(k, _ values.Value) bool { return fn(k) })
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
func (s *Set) FormatObj() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.Each(func(v values.Value) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(values.Format(v))
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
