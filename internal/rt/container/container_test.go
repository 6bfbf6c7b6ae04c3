package container

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

func TestMapBasics(t *testing.T) {
	m := NewMap()
	m.Insert(values.String("a"), values.Int(1))
	m.Insert(values.String("b"), values.Int(2))
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
	if v, ok := m.Get(values.String("a")); !ok || v.AsInt() != 1 {
		t.Fatal("get a")
	}
	m.Insert(values.String("a"), values.Int(10)) // replace
	if v, _ := m.Get(values.String("a")); v.AsInt() != 10 {
		t.Fatal("replace")
	}
	if m.Len() != 2 {
		t.Fatal("replace changed len")
	}
	if !m.Remove(values.String("a")) || m.Remove(values.String("a")) {
		t.Fatal("remove semantics")
	}
	if m.Exists(values.String("a")) {
		t.Fatal("removed key exists")
	}
}

func TestMapDefault(t *testing.T) {
	m := NewMap()
	if _, ok := m.Get(values.Int(1)); ok {
		t.Fatal("miss without default should be !ok")
	}
	m.SetDefault(values.Int(99))
	if v, ok := m.Get(values.Int(1)); !ok || v.AsInt() != 99 {
		t.Fatal("default not returned")
	}
}

func TestMapInsertionOrderIteration(t *testing.T) {
	m := NewMap()
	for i := 0; i < 10; i++ {
		m.Insert(values.Int(int64(9-i)), values.Int(int64(i)))
	}
	var got []int64
	m.Each(func(k, _ values.Value) bool { got = append(got, k.AsInt()); return true })
	for i, k := range got {
		if k != int64(9-i) {
			t.Fatalf("iteration order broken: %v", got)
		}
	}
}

func TestMapCompaction(t *testing.T) {
	m := NewMap()
	for i := 0; i < 200; i++ {
		m.Insert(values.Int(int64(i)), values.Nil)
	}
	for i := 0; i < 150; i++ {
		m.Remove(values.Int(int64(i)))
	}
	if m.Len() != 50 {
		t.Fatalf("len = %d", m.Len())
	}
	count := 0
	m.Each(func(k, _ values.Value) bool {
		if k.AsInt() < 150 {
			t.Fatalf("deleted key iterated: %d", k.AsInt())
		}
		count++
		return true
	})
	if count != 50 {
		t.Fatalf("iterated %d", count)
	}
	if len(m.order) > 100 {
		t.Fatalf("compaction did not run: order len %d", len(m.order))
	}
}

func TestMapCreateExpiration(t *testing.T) {
	mgr := timer.NewMgr()
	m := NewMap()
	m.SetTimeout(mgr, ExpireCreate, timer.Seconds(10))
	mgr.Advance(0)
	m.Insert(values.Int(1), values.String("x"))
	mgr.Advance(5e9)
	m.Insert(values.Int(2), values.String("y"))
	// Access does not refresh under Create strategy.
	m.Get(values.Int(1))
	mgr.Advance(10e9 + 1)
	if m.Exists(values.Int(1)) {
		t.Fatal("entry 1 should have expired")
	}
	if !m.Exists(values.Int(2)) {
		t.Fatal("entry 2 should survive")
	}
	mgr.Advance(15e9 + 1)
	if m.Len() != 0 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestSetAccessExpiration(t *testing.T) {
	// The paper's firewall example: 300s inactivity timeout, refreshed on
	// every access.
	mgr := timer.NewMgr()
	s := NewSet()
	s.SetTimeout(mgr, ExpireAccess, timer.Seconds(300))
	pair := values.TupleVal(values.MustParseAddr("10.0.0.1"), values.MustParseAddr("10.0.0.2"))
	mgr.Advance(0)
	s.Insert(pair)
	// Touch it at t=200s: deadline moves to 500s.
	mgr.Advance(200e9)
	if !s.Exists(pair) {
		t.Fatal("should exist at 200s")
	}
	mgr.Advance(400e9)
	if !s.Exists(pair) {
		t.Fatal("should still exist at 400s (touched at 200s)")
	}
	// No touches after 400s: gone at 701s.
	mgr.Advance(701e9)
	if s.Exists(pair) {
		t.Fatal("should have expired")
	}
}

func TestExpiredEntryTimerCancelledOnRemove(t *testing.T) {
	mgr := timer.NewMgr()
	m := NewMap()
	m.SetTimeout(mgr, ExpireCreate, timer.Seconds(1))
	m.Insert(values.Int(1), values.Nil)
	m.Remove(values.Int(1))
	if mgr.Pending() != 0 {
		t.Fatalf("pending timers = %d", mgr.Pending())
	}
	// Advancing past deadline must not panic or resurrect.
	mgr.Advance(10e9)
	if m.Len() != 0 {
		t.Fatal("len != 0")
	}
}

// Regression: timer_mgr.expire True used to spin forever on a container
// with an element not yet due, re-scheduling the element's timer each
// time it was popped. Now the container's one timer flushes its queue.
func TestExpireTrueFlushesQueue(t *testing.T) {
	mgr := timer.NewMgr()
	s := NewSet()
	s.SetTimeout(mgr, ExpireCreate, timer.Seconds(10))
	s.Insert(values.Int(1))
	before := Expirations()
	done := make(chan int)
	go func() { done <- mgr.Expire(true) }()
	select {
	case fired := <-done:
		if fired != 1 {
			t.Errorf("Expire fired %d timers, want 1", fired)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Expire(true) did not return")
	}
	if s.Len() != 0 || mgr.Pending() != 0 {
		t.Fatalf("after Expire(true): %d elements, %d pending timers", s.Len(), mgr.Pending())
	}
	if Expirations()-before != 1 {
		t.Fatalf("flush counted %d expirations, want 1", Expirations()-before)
	}
}

func TestReinsertAfterExpiry(t *testing.T) {
	mgr := timer.NewMgr()
	m := NewMap()
	m.SetTimeout(mgr, ExpireCreate, timer.Seconds(1))
	m.Insert(values.Int(1), values.String("a"))
	mgr.Advance(2e9)
	m.Insert(values.Int(1), values.String("b"))
	if v, ok := m.Get(values.Int(1)); !ok || v.AsString() != "b" {
		t.Fatal("reinsert after expiry")
	}
	mgr.Advance(3e9 + 1)
	if m.Exists(values.Int(1)) {
		t.Fatal("second generation should expire too")
	}
}

func TestSetBasicsAndFormat(t *testing.T) {
	s := NewSet()
	s.Insert(values.Int(1))
	s.Insert(values.Int(2))
	s.Insert(values.Int(1))
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.FormatObj(); got != "{1, 2}" {
		t.Fatalf("format = %q", got)
	}
}

func TestDeepCopyMapIndependent(t *testing.T) {
	m := NewMap()
	m.Insert(values.Int(1), values.BytesFrom([]byte("x")))
	cp := m.DeepCopyObj().(*Map)
	m.Insert(values.Int(2), values.Nil)
	if cp.Len() != 1 {
		t.Fatal("copy not independent")
	}
	v, _ := cp.Get(values.Int(1))
	orig, _ := m.Get(values.Int(1))
	if v.AsBytes() == orig.AsBytes() {
		t.Fatal("bytes shared between copies")
	}
}

func TestListBasics(t *testing.T) {
	l := NewList()
	l.PushBack(values.Int(2))
	l.PushFront(values.Int(1))
	l.PushBack(values.Int(3))
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	var got []int64
	l.Each(func(v values.Value) bool { got = append(got, v.AsInt()); return true })
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
	if v, ok := l.PopFront(); !ok || v.AsInt() != 1 {
		t.Fatal("pop front")
	}
	if v, ok := l.PopBack(); !ok || v.AsInt() != 3 {
		t.Fatal("pop back")
	}
	if f, _ := l.Front(); f.AsInt() != 2 {
		t.Fatal("front")
	}
	if b, _ := l.Back(); b.AsInt() != 2 {
		t.Fatal("back")
	}
}

func TestListIterStableAcrossErase(t *testing.T) {
	l := NewList()
	l.PushBack(values.Int(1))
	it2 := l.PushBack(values.Int(2))
	it3 := l.PushBack(values.Int(3))
	l.Erase(it2)
	if v, ok := it3.Deref(); !ok || v.AsInt() != 3 {
		t.Fatal("iterator to surviving element broken")
	}
	if !it2.AtEnd() {
		t.Fatal("erased iterator should read as end/invalid")
	}
	if l.Erase(it2) {
		t.Fatal("double erase should fail")
	}
}

func TestListIterTraversal(t *testing.T) {
	l := NewList()
	for i := 1; i <= 3; i++ {
		l.PushBack(values.Int(int64(i)))
	}
	it := l.Begin()
	var got []int64
	for !it.AtEnd() {
		v, _ := it.Deref()
		got = append(got, v.AsInt())
		it = it.Next()
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("traversal %v", got)
	}
	if !it.Eq(l.End()) {
		t.Fatal("should equal end")
	}
}

func TestVectorAutoExtend(t *testing.T) {
	v := NewVector(values.Int(0))
	v.Set(5, values.Int(42))
	if v.Len() != 6 {
		t.Fatalf("len = %d", v.Len())
	}
	if e, ok := v.Get(3); !ok || e.AsInt() != 0 {
		t.Fatal("implicit default")
	}
	if e, _ := v.Get(5); e.AsInt() != 42 {
		t.Fatal("set/get")
	}
	if _, ok := v.Get(-1); ok {
		t.Fatal("negative index")
	}
	v.Reserve(10)
	if v.Len() != 10 {
		t.Fatal("reserve")
	}
	// An index out of reach is refused, and the vector does not grow.
	if _, ok := v.Get(10); ok || v.Len() != 10 {
		t.Fatalf("a read past the end succeeded or grew the vector to %d", v.Len())
	}
	if v.Set(1<<62, values.Int(1)) || v.Set(10+MaxGrow+1, values.Int(1)) || v.Len() != 10 {
		t.Fatalf("a write more than MaxGrow past the end succeeded or grew the vector to %d", v.Len())
	}
	if !v.Set(10+MaxGrow, values.Int(1)) || v.Len() != 11+MaxGrow {
		t.Fatalf("a write MaxGrow past the end failed, or left the vector at %d", v.Len())
	}
	// Reserve reaches as far as Set.
	n := v.Len()
	if v.Reserve(1<<62) || v.Reserve(n+MaxGrow+2) || v.Len() != n {
		t.Fatalf("a reserve more than MaxGrow past the end succeeded or grew the vector to %d", v.Len())
	}
	if !v.Reserve(n+MaxGrow+1) || v.Len() != n+MaxGrow+1 || !v.Reserve(-1) || !v.Reserve(3) {
		t.Fatalf("a reserve within reach failed, or left the vector at %d", v.Len())
	}
}

// Property: a Map agrees with a plain Go map under a random operation
// sequence (insert/remove/get over a small key space).
func TestQuickMapModelCheck(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMap()
		ref := map[int64]int64{}
		for _, op := range ops {
			key := int64(op % 16)
			val := int64(op % 7)
			switch (op / 16) % 3 {
			case 0:
				m.Insert(values.Int(key), values.Int(val))
				ref[key] = val
			case 1:
				got := m.Remove(values.Int(key))
				_, want := ref[key]
				if got != want {
					return false
				}
				delete(ref, key)
			case 2:
				got, ok := m.Get(values.Int(key))
				want, wok := ref[key]
				if ok != wok || (ok && got.AsInt() != want) {
					return false
				}
			}
			if m.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Steady-state lookups must not allocate: the canonical key is encoded
// into the per-container scratch buffer and probed with Go's map[string(b)]
// pattern, never materialized as a string.
func TestScalarKeyLookupsAllocationFree(t *testing.T) {
	m := NewMap()
	m.Insert(values.Int(7), values.String("x"))
	k := values.Int(7)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := m.Get(k); !ok {
			t.Fatal("lost key")
		}
	}); n != 0 {
		t.Fatalf("Map.Get allocated %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if m.Exists(values.Int(8)) {
			t.Fatal("phantom key")
		}
	}); n != 0 {
		t.Fatalf("Map.Exists (miss) allocated %v times per run", n)
	}

	s := NewSet()
	s.Insert(values.MustParseAddr("10.0.0.1"))
	a := values.MustParseAddr("10.0.0.1")
	if n := testing.AllocsPerRun(100, func() {
		if !s.Exists(a) {
			t.Fatal("lost element")
		}
	}); n != 0 {
		t.Fatalf("Set.Exists allocated %v times per run", n)
	}
}

func TestTupleKeyLookupsAllocationFree(t *testing.T) {
	s := NewSet()
	pair := values.TupleVal(values.MustParseAddr("10.0.0.1"), values.MustParseAddr("10.0.0.2"))
	s.Insert(pair)
	if n := testing.AllocsPerRun(100, func() {
		if !s.Exists(pair) {
			t.Fatal("lost element")
		}
	}); n != 0 {
		t.Fatalf("tuple-keyed Set.Exists allocated %v times per run", n)
	}
}

// Distinct values of different kinds or shapes must never collide under the
// canonical key encoding: every key carries its kind tag, and variable-length
// payloads are length-prefixed.
func TestKeyEncodingNoAliasing(t *testing.T) {
	distinct := []values.Value{
		values.String("a"),
		values.BytesFrom([]byte("a")),
		values.TupleVal(values.String("a")),
		values.Int(1),
		values.Bool(true),
		values.TupleVal(values.String("ab"), values.String("c")),
		values.TupleVal(values.String("a"), values.String("bc")),
		values.TupleVal(values.String("a"), values.String("b"), values.String("c")),
		values.String(""),
		values.TupleVal(),
	}
	m := NewMap()
	for i, v := range distinct {
		m.Insert(v, values.Int(int64(i)))
	}
	if m.Len() != len(distinct) {
		t.Fatalf("keys aliased: %d entries for %d distinct keys", m.Len(), len(distinct))
	}
	for i, v := range distinct {
		got, ok := m.Get(v)
		if !ok || got.AsInt() != int64(i) {
			t.Fatalf("key %d (%s) maps to %v, ok=%v", i, values.Format(v), got, ok)
		}
	}
}

// The encoded key is captured at insert time; mutating the scratch buffer
// through later operations must not disturb existing entries.
func TestInsertedKeysSurviveScratchReuse(t *testing.T) {
	m := NewMap()
	for i := 0; i < 64; i++ {
		m.Insert(values.String(strings.Repeat("k", i+1)), values.Int(int64(i)))
	}
	for i := 0; i < 64; i++ {
		v, ok := m.Get(values.String(strings.Repeat("k", i+1)))
		if !ok || v.AsInt() != int64(i) {
			t.Fatalf("entry %d corrupted after scratch reuse", i)
		}
	}
}

func BenchmarkMapInsertGet(b *testing.B) {
	m := NewMap()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := values.Int(int64(i % 4096))
		m.Insert(k, values.Int(int64(i)))
		m.Get(k)
	}
}

func BenchmarkSetWithExpiration(b *testing.B) {
	mgr := timer.NewMgr()
	s := NewSet()
	s.SetTimeout(mgr, ExpireAccess, timer.Seconds(300))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Insert(values.Int(int64(i % 1024)))
		mgr.Advance(timer.Time(i) * 1e6)
	}
}

// BenchmarkRestoreRandomOrder restores 100k access-expiry elements whose
// last uses come in random order, as a checkpoint's insertion order gives
// them.
func BenchmarkRestoreRandomOrder(b *testing.B) {
	const n, timeout = 100_000, 300e9
	rng := rand.New(rand.NewSource(1))
	keys := make([]values.Value, n)
	uses := make([]timer.Time, n)
	for i := range keys {
		keys[i] = values.Int(int64(i))
		uses[i] = timer.Time(rng.Int63n(timeout))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr := timer.NewMgr()
		mgr.SetNow(timeout)
		s := NewSet()
		s.SetTimeout(mgr, ExpireAccess, timeout)
		for j, k := range keys {
			s.InsertRestored(k, uses[j])
		}
		mgr.Advance(timeout + 1) // reads the queue: the sort happens here
	}
}

// Regression: removing entries from inside Each must not corrupt the
// in-progress iteration. Before the fix, the 32nd tombstone triggered
// maybeCompact, which rewrote the m.order backing array (shifting live
// entries and nil-ing the tail) under the ranging loop — skipping or
// double-visiting elements, or dereferencing a nil entry.
func TestMapEachRemoveDuringIteration(t *testing.T) {
	const n = 100 // well past the 32-tombstone compaction threshold
	m := NewMap()
	for i := 0; i < n; i++ {
		m.Insert(values.Int(int64(i)), values.Int(int64(i)))
	}
	seen := map[int64]int{}
	m.Each(func(k, _ values.Value) bool {
		seen[k.AsInt()]++
		m.Remove(k)
		return true
	})
	if len(seen) != n {
		t.Fatalf("visited %d distinct keys, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d visited %d times", k, c)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("len = %d after removing every entry", m.Len())
	}
	// Compaction deferred during iteration must have run on exit.
	if len(m.order) != 0 {
		t.Fatalf("compaction did not run after iteration: order len %d", len(m.order))
	}
}

// Same regression through the Set wrapper and EachEntry, removing only a
// prefix so surviving elements must still be visited exactly once, in order.
func TestSetEachEntryRemoveDuringIteration(t *testing.T) {
	const n = 80
	s := NewSet()
	for i := 0; i < n; i++ {
		s.Insert(values.Int(int64(i)))
	}
	var visited []int64
	s.m.EachEntry(func(k, _ values.Value, _ timer.Time) bool {
		visited = append(visited, k.AsInt())
		if k.AsInt() < 50 {
			s.Remove(k)
		}
		return true
	})
	if len(visited) != n {
		t.Fatalf("visited %d elements, want %d", len(visited), n)
	}
	for i, k := range visited {
		if k != int64(i) {
			t.Fatalf("visit order broken at %d: %v", i, visited[:i+1])
		}
	}
	if s.Len() != n-50 {
		t.Fatalf("len = %d, want %d", s.Len(), n-50)
	}
}

// Nested iteration: compaction stays deferred until the outermost loop
// finishes.
func TestMapNestedEachRemove(t *testing.T) {
	m := NewMap()
	for i := 0; i < 64; i++ {
		m.Insert(values.Int(int64(i)), values.Nil)
	}
	outer := 0
	m.Each(func(k, _ values.Value) bool {
		outer++
		if k.AsInt() == 0 {
			m.Each(func(k2, _ values.Value) bool {
				if k2.AsInt()%2 == 1 {
					m.Remove(k2)
				}
				return true
			})
		}
		return true
	})
	// Outer loop sees element 0, then the surviving evens (1..63 odd removed
	// by the nested loop before the outer loop reaches them).
	if outer != 32 {
		t.Fatalf("outer visits = %d, want 32", outer)
	}
	if m.Len() != 32 {
		t.Fatalf("len = %d", m.Len())
	}
}

// TestEntrySize: a map or set element is one allocation of at most 128
// bytes, the top of its size class. A field added to the Table's header
// is paid by every element of every table, so it must fit.
func TestEntrySize(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); strconv.IntSize == 64 && size > 128 {
		t.Fatalf("a map element is %d bytes, want at most 128", size)
	}
}

// TestMapQueueLinks drives a map with access expiry through live and
// restored inserts (restored ones out of order), reads, removes during
// iteration and timer expiry, and checks the core's queue after every op:
// linked both ways, live entries only, ordered unless flagged unsorted.
// The same ops straight on a Table keyed by uint64, as the pipeline's flow
// table is, also check that a live touch leaves its entry behind every
// other entry last used no later.
func TestMapQueueLinks(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		tbl := MakeTable[uint64, int]()
		now := timer.Time(1000)
		for step := 0; step < 5000; step++ {
			tbl.Stalest() // as an owner reads the head before it acts
			k := uint64(rng.Intn(64))
			e := tbl.Find(k)
			switch r := rng.Intn(10); {
			case r < 4:
				if e == nil {
					e = tbl.Add(k, now, step)
					tbl.Queue(e, false)
				} else {
					tbl.Touch(e, now, false)
				}
				if next := e.Later(); next != nil && next.LastUse <= now {
					t.Fatalf("step %d: %d, last used at %d, is queued before %d, last used at %d", step, k, now, next.Key(), next.LastUse)
				}
			case r < 6:
				at := now - timer.Time(rng.Intn(150))
				if e == nil {
					tbl.Queue(tbl.Add(k, at, step), true)
				} else {
					tbl.Touch(e, at, true)
				}
			case r < 7:
				if e != nil {
					tbl.Drop(e)
				}
			case r < 8:
				for tbl.PopDue(now-100) != nil {
				}
			default:
				now += timer.Time(rng.Intn(3)) // ties are common
			}
			q, err := tbl.Queued()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if len(q) != tbl.Len() {
				t.Fatalf("step %d: %d entries queued, %d live", step, len(q), tbl.Len())
			}
		}
	})

	rng := rand.New(rand.NewSource(1))
	mgr := timer.NewMgr()
	m := NewMap()
	m.SetTimeout(mgr, ExpireAccess, 100)
	now := timer.Time(1000)
	mgr.Advance(now)
	for step := 0; step < 5000; step++ {
		k := values.Int(int64(rng.Intn(64)))
		switch r := rng.Intn(10); {
		case r < 3:
			m.Insert(k, values.Int(int64(step)))
		case r < 5:
			m.InsertRestored(k, values.Nil, now-timer.Time(rng.Intn(150)))
		case r < 7:
			m.Get(k)
		case r < 8:
			m.Each(func(key, _ values.Value) bool {
				if rng.Intn(4) == 0 {
					m.Remove(key)
				}
				return true
			})
		default:
			now += timer.Time(rng.Intn(40))
			mgr.Advance(now)
		}
		q, err := m.tbl().Queued()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(q) != m.Len() {
			t.Fatalf("step %d: %d entries queued, %d live", step, len(q), m.Len())
		}
	}
}
