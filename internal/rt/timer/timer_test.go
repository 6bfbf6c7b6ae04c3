package timer

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAdvanceFiresInOrder(t *testing.T) {
	m := NewMgr()
	var got []int
	m.ScheduleFunc(30, func() { got = append(got, 3) })
	m.ScheduleFunc(10, func() { got = append(got, 1) })
	m.ScheduleFunc(20, func() { got = append(got, 2) })
	if n := m.Advance(25); n != 2 {
		t.Fatalf("fired %d", n)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("order %v", got)
	}
	m.Advance(30)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
}

func TestAdvanceMonotone(t *testing.T) {
	m := NewMgr()
	m.Advance(100)
	m.Advance(50)
	if m.Now() != 100 {
		t.Fatalf("time went backwards: %d", m.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	m := NewMgr()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		m.ScheduleFunc(10, func() { got = append(got, i) })
	}
	m.Advance(10)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	m := NewMgr()
	fired := false
	tm := m.ScheduleFunc(10, func() { fired = true })
	if !tm.Scheduled() {
		t.Fatal("should be scheduled")
	}
	tm.Cancel()
	if tm.Scheduled() {
		t.Fatal("should not be scheduled")
	}
	m.Advance(100)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	tm.Cancel() // double-cancel is a no-op
}

func TestUpdate(t *testing.T) {
	m := NewMgr()
	var got []string
	a := m.ScheduleFunc(10, func() { got = append(got, "a") })
	m.ScheduleFunc(20, func() { got = append(got, "b") })
	a.Update(30)
	m.Advance(25)
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("got %v", got)
	}
	m.Advance(30)
	if len(got) != 2 || got[1] != "a" {
		t.Fatalf("got %v", got)
	}
}

func TestRescheduleFromCallback(t *testing.T) {
	// A timer whose callback schedules another timer due later must not
	// fire it in the same advance unless due.
	m := NewMgr()
	count := 0
	var rearm func()
	rearm = func() {
		count++
		if count < 3 {
			m.ScheduleFunc(m.Now()+10, rearm)
		}
	}
	m.ScheduleFunc(10, rearm)
	m.Advance(10)
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	// After the first firing the timer is re-armed at 20; advancing to 30
	// fires it once more (re-arming at 40, since Now() is already 30).
	m.Advance(30)
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
	m.Advance(40)
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
}

func TestCallbackSchedulesDueTimerDeferredToNextAdvance(t *testing.T) {
	// Scheduling never executes user code synchronously — and per the
	// Schedule contract a timer due at or before the current time fires on
	// the *next* Advance, even when scheduled from inside a callback of
	// the current one (see also TestAdvanceReentrantSchedule).
	m := NewMgr()
	var got []string
	m.ScheduleFunc(10, func() {
		got = append(got, "first")
		m.ScheduleFunc(5, func() { got = append(got, "second") }) // already due
	})
	m.Advance(10)
	if len(got) != 1 || got[0] != "first" {
		t.Fatalf("got %v, want just [first] on the first Advance", got)
	}
	m.Advance(m.Now())
	if len(got) != 2 || got[1] != "second" {
		t.Fatalf("got %v after second Advance", got)
	}
}

func TestExpire(t *testing.T) {
	m := NewMgr()
	n := 0
	for i := 0; i < 4; i++ {
		m.ScheduleFunc(Time(1000+i), func() { n++ })
	}
	if fired := m.Expire(true); fired != 4 || n != 4 {
		t.Fatalf("expire fired=%d n=%d", fired, n)
	}
	if m.Pending() != 0 {
		t.Fatal("pending after expire")
	}
	m.ScheduleFunc(1, func() { n++ })
	m.Expire(false)
	if n != 4 {
		t.Fatal("expire(false) executed")
	}
}

// Regression: Expire fires only the timers pending when it is called. A
// callback that re-schedules itself used to be popped again by the same
// Expire, which then never returned.
func TestExpireSelfReschedulingFiresOnce(t *testing.T) {
	m := NewMgr()
	n := 0
	var tm *Timer
	tm = NewTimer(func() {
		n++
		m.Schedule(m.Now()+10, tm) //nolint:errcheck // unscheduled while firing
	})
	m.Schedule(10, tm) //nolint:errcheck // fresh timer
	if fired := m.Expire(true); fired != 1 || n != 1 {
		t.Fatalf("expire fired=%d callbacks=%d, want 1 and 1", fired, n)
	}
	if !tm.Scheduled() || m.Pending() != 1 {
		t.Fatalf("re-scheduled timer not pending (scheduled=%v pending=%d)", tm.Scheduled(), m.Pending())
	}
}

// A timer reports Flushing exactly while Expire(true) runs its callback,
// not under Advance, and one an earlier callback cancels does not fire.
func TestExpireFlushingAndCancel(t *testing.T) {
	m := NewMgr()
	var seen []bool
	var a, b, c *Timer
	a = NewTimer(func() { seen = append(seen, a.Flushing()); b.Cancel() })
	b = NewTimer(func() { seen = append(seen, b.Flushing()) })
	c = NewTimer(func() { seen = append(seen, c.Flushing()) })
	m.Schedule(1, c) //nolint:errcheck // fresh timer
	m.Advance(1)
	for i, tm := range []*Timer{a, b, c} {
		m.Schedule(Time(i+1), tm) //nolint:errcheck // unscheduled
	}
	if fired := m.Expire(true); fired != 2 {
		t.Fatalf("expire fired %d, want 2", fired)
	}
	if want := []bool{false, true, true}; !slices.Equal(seen, want) {
		t.Fatalf("Flushing seen %v, want %v", seen, want)
	}
	if a.Flushing() || c.Flushing() {
		t.Fatal("Flushing after Expire returned")
	}
	m.ScheduleFunc(4, func() { t.Fatal("Expire(false) ran a callback") })
	if n := m.Expire(false); n != 1 || m.Pending() != 0 {
		t.Fatalf("Expire(false) dropped %d, pending %d", n, m.Pending())
	}
}

func TestScheduleTwiceRejected(t *testing.T) {
	m := NewMgr()
	tm := NewTimer(func() {})
	if err := m.Schedule(1, tm); err != nil {
		t.Fatal(err)
	}
	if err := m.Schedule(2, tm); err == nil {
		t.Fatal("double schedule should error")
	}
}

// Property: advancing past all of a random set of fire times fires them in
// nondecreasing time order, exactly once each.
func TestQuickFireOrder(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		m := NewMgr()
		want := make([]Time, n)
		var fired []Time
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(1000))
			want[i] = at
			at2 := at
			m.ScheduleFunc(at, func() { fired = append(fired, at2) })
		}
		m.Advance(2000)
		if len(fired) != n {
			return false
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAdvanceReentrantSchedule regresses the documented contract: a timer
// scheduled at or before the manager's current time from within a firing
// callback must wait for the *next* Advance, not fire in the same one.
func TestAdvanceReentrantSchedule(t *testing.T) {
	m := NewMgr()
	var log []string
	m.ScheduleFunc(10, func() {
		log = append(log, "outer")
		m.ScheduleFunc(5, func() { log = append(log, "inner") }) // already due
	})
	if n := m.Advance(10); n != 1 {
		t.Fatalf("first Advance fired %d, want 1 (inner must wait)", n)
	}
	if len(log) != 1 || log[0] != "outer" {
		t.Fatalf("after first Advance log = %v", log)
	}
	if n := m.Advance(10); n != 1 {
		t.Fatalf("second Advance fired %d, want 1", n)
	}
	if len(log) != 2 || log[1] != "inner" {
		t.Fatalf("after second Advance log = %v", log)
	}
}

// TestAdvanceReentrantChain checks a self-rescheduling callback cannot
// starve Advance into an unbounded loop: each Advance fires exactly one
// generation.
func TestAdvanceReentrantChain(t *testing.T) {
	m := NewMgr()
	fired := 0
	var reschedule func()
	reschedule = func() {
		fired++
		m.ScheduleFunc(m.Now(), reschedule)
	}
	m.ScheduleFunc(1, reschedule)
	for i := 0; i < 5; i++ {
		if n := m.Advance(Time(i + 1)); n != 1 {
			t.Fatalf("advance %d fired %d timers, want 1", i, n)
		}
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if m.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", m.Pending())
	}
}

// TestCancelWithinAdvance: a callback cancelling a timer that is due in
// the same Advance prevents it from firing.
func TestCancelWithinAdvance(t *testing.T) {
	m := NewMgr()
	var t2Fired bool
	t2 := NewTimer(func() { t2Fired = true })
	m.ScheduleFunc(10, func() { t2.Cancel() })
	m.Schedule(10, t2)
	if n := m.Advance(10); n != 1 {
		t.Fatalf("fired %d, want 1", n)
	}
	if t2Fired {
		t.Fatal("cancelled timer fired")
	}
	if t2.Scheduled() {
		t.Fatal("cancelled timer still scheduled")
	}
	// The cancelled timer is reusable.
	m.Schedule(20, t2)
	m.Advance(20)
	if !t2Fired {
		t.Fatal("rescheduled timer did not fire")
	}
}

// TestUpdateWithinAdvance: a callback pushing a due timer's fire time into
// the future defers it past the current Advance.
func TestUpdateWithinAdvance(t *testing.T) {
	m := NewMgr()
	var t2Fired int
	t2 := NewTimer(func() { t2Fired++ })
	m.ScheduleFunc(10, func() { t2.Update(30) })
	m.Schedule(10, t2)
	if n := m.Advance(10); n != 1 {
		t.Fatalf("fired %d, want 1", n)
	}
	if t2Fired != 0 {
		t.Fatal("updated timer fired in the same Advance")
	}
	if !t2.Scheduled() || t2.FireTime() != 30 {
		t.Fatalf("timer not re-queued for 30 (scheduled=%v fire=%d)", t2.Scheduled(), t2.FireTime())
	}
	m.Advance(30)
	if t2Fired != 1 {
		t.Fatalf("t2 fired %d times, want 1", t2Fired)
	}
}

func BenchmarkScheduleAdvance(b *testing.B) {
	m := NewMgr()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ScheduleFunc(m.Now()+100, func() {})
		if i%64 == 0 {
			m.AdvanceBy(10)
		}
	}
	m.Expire(false)
}

// Regression: Update must take a fresh sequence number, so a timer moved
// to a fire time that ties with an existing timer fires *after* it —
// identical to the equivalent Cancel+Schedule.
func TestUpdateTieOrderMatchesReschedule(t *testing.T) {
	run := func(reschedule func(m *Mgr, y *Timer)) []string {
		m := NewMgr()
		var order []string
		y := NewTimer(func() { order = append(order, "y") })
		if err := m.Schedule(10, y); err != nil {
			t.Fatal(err)
		}
		m.ScheduleFunc(5, func() { order = append(order, "x") })
		reschedule(m, y) // move y to 5: ties with x, scheduled later
		m.Advance(5)
		return order
	}

	viaUpdate := run(func(_ *Mgr, y *Timer) { y.Update(5) })
	viaCancelSchedule := run(func(m *Mgr, y *Timer) {
		y.Cancel()
		if err := m.Schedule(5, y); err != nil {
			t.Fatal(err)
		}
	})
	want := []string{"x", "y"}
	for name, got := range map[string][]string{
		"Update":          viaUpdate,
		"Cancel+Schedule": viaCancelSchedule,
	} {
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("%s fired %v, want %v", name, got, want)
		}
	}
}

// PendingTimers (the checkpoint ordering) must be identical whether a tie
// was produced by Update or by Cancel+Schedule — WAL replay determinism
// depends on it.
func TestUpdatePendingOrderDeterministic(t *testing.T) {
	build := func(reschedule func(m *Mgr, y *Timer)) []Time {
		m := NewMgr()
		y := NewTimer(func() {})
		if err := m.Schedule(10, y); err != nil {
			t.Fatal(err)
		}
		x := NewTimer(func() {})
		if err := m.Schedule(5, x); err != nil {
			t.Fatal(err)
		}
		reschedule(m, y)
		var seqs []Time
		for _, tm := range m.PendingTimers() {
			seqs = append(seqs, tm.FireTime())
		}
		// Identify by position: x must sort before y.
		if m.PendingTimers()[0] != x || m.PendingTimers()[1] != y {
			t.Fatalf("tie order: updated timer sorted before earlier-scheduled timer")
		}
		return seqs
	}
	a := build(func(_ *Mgr, y *Timer) { y.Update(5) })
	b := build(func(m *Mgr, y *Timer) {
		y.Cancel()
		if err := m.Schedule(5, y); err != nil {
			t.Fatal(err)
		}
	})
	if len(a) != len(b) || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("pending order diverges: %v vs %v", a, b)
	}
}

// Regression: FireTime documents "zero when unscheduled" — it must be
// cleared by Cancel, by firing, and by Expire.
func TestFireTimeClearedWhenUnscheduled(t *testing.T) {
	m := NewMgr()

	tm := m.ScheduleFunc(100, func() {})
	tm.Cancel()
	if tm.FireTime() != 0 {
		t.Fatalf("FireTime after Cancel = %d", tm.FireTime())
	}

	var fireSeen Time = -1
	var fired *Timer
	fired = m.ScheduleFunc(50, func() { fireSeen = fired.FireTime() })
	m.Advance(50)
	if fired.FireTime() != 0 {
		t.Fatalf("FireTime after firing = %d", fired.FireTime())
	}
	if fireSeen != 0 {
		t.Fatalf("FireTime inside callback = %d (timer is unscheduled there)", fireSeen)
	}

	exp := m.ScheduleFunc(200, func() {})
	m.Expire(false)
	if exp.FireTime() != 0 {
		t.Fatalf("FireTime after Expire = %d", exp.FireTime())
	}

	// Cancelling a pendingFire timer (due inside an in-progress Advance)
	// also clears it.
	var victim *Timer
	m.ScheduleFunc(300, func() { victim.Cancel() })
	victim = m.ScheduleFunc(300, func() { t.Fatal("cancelled timer fired") })
	m.Advance(300)
	if victim.FireTime() != 0 {
		t.Fatalf("FireTime after pendingFire Cancel = %d", victim.FireTime())
	}
}

// ScheduleFunc surfaces the impossible double-schedule instead of
// swallowing it; a direct Schedule of an already-pending timer still
// reports the error to the caller.
func TestScheduleErrorSurfaced(t *testing.T) {
	m := NewMgr()
	tm := m.ScheduleFunc(10, func() {})
	if err := m.Schedule(20, tm); err == nil {
		t.Fatal("double Schedule accepted")
	}
}
