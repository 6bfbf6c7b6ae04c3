package container

import (
	"slices"
	"testing"

	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

// scanElem is one element of scanMap.
type scanElem struct {
	key, val int64
	lastUse  timer.Time
	queued   bool // joined while expiry was on: the policy may expire it
}

// scanMap is the reference FuzzContainerExpiry holds a Map to: no queue and
// no timer. After Advance(now) it holds exactly the elements that are not
// queued or whose lastUse + timeout > now, found by a full scan.
type scanMap struct {
	elems    []*scanElem // live, in insertion order
	strategy ExpireStrategy
	timeout  timer.Interval
	now      timer.Time
	// disarmed: Expire(false) discarded the container's timer and no
	// append to the queue or SetTimeout has re-armed it since.
	disarmed bool
	expired  uint64 // this step's expirations
}

func (s *scanMap) active() bool { return s.strategy != ExpireNone && s.timeout > 0 }

func (s *scanMap) find(k int64) (int, *scanElem) {
	for i, e := range s.elems {
		if e.key == k {
			return i, e
		}
	}
	return -1, nil
}

// pushed mirrors an append to the queue, which arms an unarmed timer.
func (s *scanMap) pushed() {
	if s.active() {
		s.disarmed = false
	}
}

func (s *scanMap) touch(e *scanElem) {
	if !s.active() || e.lastUse == s.now {
		return
	}
	e.lastUse = s.now
	if e.queued {
		s.pushed()
	}
}

func (s *scanMap) insert(k, v int64) {
	if _, e := s.find(k); e != nil {
		e.val = v
		s.touch(e)
		return
	}
	e := &scanElem{key: k, val: v}
	s.elems = append(s.elems, e)
	if s.active() {
		e.lastUse, e.queued = s.now, true
		s.pushed()
	}
}

func (s *scanMap) lookup(k int64) (int64, bool) {
	_, e := s.find(k)
	if e == nil {
		return 0, false
	}
	if s.strategy == ExpireAccess {
		s.touch(e)
	}
	return e.val, true
}

func (s *scanMap) remove(k int64) bool {
	i, e := s.find(k)
	if e == nil {
		return false
	}
	s.elems = slices.Delete(s.elems, i, i+1)
	return true
}

// expire removes the queued elements due picks out.
func (s *scanMap) expire(due func(e *scanElem) bool) {
	s.elems = slices.DeleteFunc(s.elems, func(e *scanElem) bool {
		if !e.queued || !due(e) {
			return false
		}
		s.expired++
		return true
	})
}

func (s *scanMap) advance(now timer.Time) {
	s.now = now
	if s.active() && !s.disarmed {
		s.expire(func(e *scanElem) bool { return e.lastUse+timer.Time(s.timeout) <= now })
	}
}

func (s *scanMap) restoreUse(e *scanElem, lastUse timer.Time) {
	if e.lastUse == lastUse {
		return
	}
	e.lastUse = lastUse
	if e.queued {
		s.pushed()
	}
}

func (s *scanMap) insertRestored(k, v int64, lastUse timer.Time) {
	if _, e := s.find(k); e != nil {
		e.val = v
		s.restoreUse(e, lastUse)
		return
	}
	e := &scanElem{key: k, val: v, lastUse: lastUse}
	s.elems = append(s.elems, e)
	if s.active() {
		e.queued = true
		s.pushed()
	}
}

// armed reports whether the container's one timer should be pending.
func (s *scanMap) armed() bool {
	if !s.active() || s.disarmed {
		return false
	}
	return slices.ContainsFunc(s.elems, func(e *scanElem) bool { return e.queued })
}

// The ops of FuzzContainerExpiry, each three bytes: op, a, b.
const (
	opInsert         = iota // Insert(a%16, b)
	opExists                // Exists(a%16)
	opGet                   // Get(a%16)
	opRemove                // Remove(a%16)
	opClear                 // Clear()
	opAdvance               // Advance by a/255 of twice the timeout
	opInsertRestored        // InsertRestored(a%16, a/16) at now + (b-128)/64 timeouts
	opRestoreUse            // InsertRestored(a%16, its value) at now + (b-128)/64 timeouts, if present
	opSetTimeout            // SetTimeout(strategy a%3, 1+b%4 seconds)
	opExpire                // Expire(a is odd)
	numOps
)

// FuzzContainerExpiry holds Map's expiry queue and its one timer to a full
// scan over an op stream decoded from the input, three bytes an op: after
// every step, contents, iteration order, Len, the Expirations delta and
// the manager's pending timers must agree.
func FuzzContainerExpiry(f *testing.F) {
	// Each seed turns expiry on (Create, then Access), fills a few keys
	// and then exercises one op.
	pre := func(strategy byte) []byte {
		return []byte{
			opInsert, 7, 70, // present before SetTimeout: never expires
			opSetTimeout, strategy, 1, // 2 s
			opInsert, 1, 10, opAdvance, 60, 0, opInsert, 2, 20, opAdvance, 60, 0, opInsert, 3, 30,
		}
	}
	for _, strategy := range []byte{byte(ExpireCreate), byte(ExpireAccess)} {
		seed := func(ops ...byte) { f.Add(append(pre(strategy), ops...)) }
		seed(opInsert, 1, 11, opAdvance, 200, 0, opAdvance, 255, 0)
		seed(opExists, 1, 0, opAdvance, 100, 0, opExists, 1, 0, opAdvance, 200, 0)
		seed(opGet, 2, 0, opAdvance, 130, 0, opGet, 9, 0, opAdvance, 255, 0)
		seed(opRemove, 1, 0, opRemove, 2, 0, opRemove, 3, 0, opAdvance, 255, 0)
		seed(opClear, 0, 0, opInsert, 4, 40, opAdvance, 255, 0)
		seed(opAdvance, 0, 0, opAdvance, 128, 0, opAdvance, 255, 0)
		seed(opInsertRestored, 5, 0, opAdvance, 0, 0, opInsertRestored, 6, 255, opInsertRestored, 4, 100, opInsertRestored, 1, 60, opAdvance, 64, 0, opAdvance, 255, 0)
		seed(opRestoreUse, 3, 0, opRestoreUse, 1, 250, opRestoreUse, 7, 200, opAdvance, 100, 0, opAdvance, 255, 0)
		seed(opSetTimeout, 0, 0, opAdvance, 255, 0, opSetTimeout, 2, 3, opAdvance, 255, 0, opSetTimeout, 1, 0, opAdvance, 200, 0)
		seed(opExpire, 0, 0, opAdvance, 255, 0, opInsert, 4, 40, opAdvance, 255, 0, opAdvance, 255, 0)
		seed(opExpire, 1, 0, opInsert, 4, 40, opAdvance, 255, 0)
	}

	// A restored re-insert at the element's own last use after Expire(false)
	// leaves the timer disarmed.
	f.Add([]byte{opSetTimeout, byte(ExpireCreate), 0, opInsertRestored, 13, 129, opExpire, 0, 0, opInsertRestored, 13, 129})
	f.Fuzz(runExpiryOps)
}

// runExpiryOps runs the op stream data against a Map and a scanMap.
func runExpiryOps(t *testing.T, data []byte) {
	mgr := timer.NewMgr()
	mgr.Advance(1000e9)
	m := NewMap()
	s := &scanMap{now: mgr.Now()}
	for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
		op, a, b := data[0]%numOps, data[1], data[2]
		key := int64(a % 16)
		span := s.timeout // the timeout, or 1 s with none set
		if span <= 0 {
			span = timer.Seconds(1)
		}
		// A restored last use lies up to two timeouts either side of now.
		restored := s.now + timer.Time(int64(b)-128)*timer.Time(span)/64
		before := Expirations()
		s.expired = 0
		switch op {
		case opInsert:
			m.Insert(values.Int(key), values.Int(int64(b)))
			s.insert(key, int64(b))
		case opExists:
			ok := m.Exists(values.Int(key))
			if _, want := s.lookup(key); ok != want {
				t.Fatalf("step %d: Exists(%d) = %v, want %v", step, key, ok, want)
			}
		case opGet:
			v, ok := m.Get(values.Int(key))
			want, wok := s.lookup(key)
			if ok != wok || (ok && v.AsInt() != want) {
				t.Fatalf("step %d: Get(%d) = %v, %v; want %d, %v", step, key, values.Format(v), ok, want, wok)
			}
		case opRemove:
			ok := m.Remove(values.Int(key))
			if want := s.remove(key); ok != want {
				t.Fatalf("step %d: Remove(%d) = %v, want %v", step, key, ok, want)
			}
		case opClear:
			m.Clear()
			for len(s.elems) > 0 {
				s.remove(s.elems[0].key)
			}
		case opAdvance:
			now := s.now + timer.Time(int64(a)*2*int64(span)/255)
			mgr.Advance(now)
			s.advance(now)
		case opInsertRestored:
			val := int64(a / 16)
			m.InsertRestored(values.Int(key), values.Int(val), restored)
			s.insertRestored(key, val, restored)
		case opRestoreUse:
			if _, e := s.find(key); e != nil {
				m.InsertRestored(values.Int(key), values.Int(e.val), restored)
				s.restoreUse(e, restored)
			}
		case opSetTimeout:
			strategy, timeout := ExpireStrategy(a%3), timer.Seconds(float64(1+b%4))
			m.SetTimeout(mgr, strategy, timeout)
			s.strategy, s.timeout, s.disarmed = strategy, timeout, false
		case opExpire:
			execute := a&1 == 1
			mgr.Expire(execute)
			switch {
			case execute && s.active() && !s.disarmed:
				s.expire(func(*scanElem) bool { return true })
			case !execute:
				s.disarmed = true
			}
		}
		s.check(t, step, data[:3], m, mgr, Expirations()-before)
	}
}

// check compares m with s after one step.
func (s *scanMap) check(t *testing.T, n int, op []byte, m *Map, mgr *timer.Mgr, expired uint64) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (op % x): "+format, append([]any{n, op}, args...)...)
	}
	if m.Len() != len(s.elems) {
		fail("Len = %d, want %d", m.Len(), len(s.elems))
	}
	i := 0
	m.EachEntry(func(k, v values.Value, lastUse timer.Time) bool {
		want := s.elems[i]
		if k.AsInt() != want.key || v.AsInt() != want.val || lastUse != want.lastUse {
			fail("element %d = (%d, %d, %d), want (%d, %d, %d)",
				i, k.AsInt(), v.AsInt(), lastUse, want.key, want.val, want.lastUse)
		}
		i++
		return true
	})
	if expired != s.expired {
		fail("%d expirations, want %d", expired, s.expired)
	}
	wantPending := 0
	if s.armed() {
		wantPending = 1
	}
	if mgr.Pending() != wantPending {
		fail("%d pending timers, want %d", mgr.Pending(), wantPending)
	}
}
