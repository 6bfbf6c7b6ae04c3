//go:build !race

package container

import (
	"testing"

	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

// TestContainerExpiryAllocs: expiry costs no object per element, and a
// container holds one timer however many elements it queues.
func TestContainerExpiryAllocs(t *testing.T) {
	const runs = 1000
	insertAllocs := func(expire bool) float64 {
		mgr := timer.NewMgr()
		m := NewMap()
		if expire {
			m.SetTimeout(mgr, ExpireAccess, timer.Seconds(300))
		}
		next := int64(0)
		return testing.AllocsPerRun(runs, func() {
			m.Insert(values.Int(next), values.Nil)
			next++
		})
	}
	if off, on := insertAllocs(false), insertAllocs(true); on > off {
		t.Errorf("Insert of a new key: %v allocs with expiry on, %v with it off", on, off)
	}

	mgr := timer.NewMgr()
	s := NewSet()
	s.SetTimeout(mgr, ExpireAccess, timer.Seconds(300))
	pending := func(when string, want int) {
		t.Helper()
		if got := mgr.Pending(); got != want {
			t.Fatalf("%s: %d pending timers, want %d", when, got, want)
		}
	}
	const n = 1000
	fill := func() {
		for i := 0; i < n; i++ {
			mgr.Advance(mgr.Now() + 1e6)
			s.Insert(values.Int(int64(i)))
		}
	}
	fill()
	pending("after inserts", 1)
	for i := 0; i < n; i += 3 {
		mgr.Advance(mgr.Now() + 1e6)
		s.Exists(values.Int(int64(i)))
		s.Insert(values.Int(int64(i + 1)))
	}
	pending("after touches", 1)
	for i := 0; i < n; i += 2 {
		s.Remove(values.Int(int64(i)))
	}
	pending("after removing half", 1)
	mgr.Advance(mgr.Now() + 300e9)
	if s.Len() != 0 {
		t.Fatalf("%d elements left after the timeout", s.Len())
	}
	pending("emptied by expiry", 0)
	fill()
	for i := 0; i < n; i++ {
		s.Remove(values.Int(int64(i)))
	}
	pending("emptied by Remove", 0)
	fill()
	s.Clear()
	pending("emptied by Clear", 0)
}
