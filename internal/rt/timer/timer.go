// Package timer implements HILTI's timers and timer managers.
//
// A timer captures a closure to execute at a future point of time; a timer
// manager maintains an independent notion of time (paper §3.2, [43]) and
// fires due timers, in timestamp order, whenever its time is advanced.
// Network analysis drives timer managers from packet timestamps rather than
// the wall clock, so offline trace processing expires state exactly as live
// operation would.
//
// Containers with state management (package container) schedule their
// expiration through a timer manager, and host applications advance the
// global manager per input unit (e.g. per packet), as the paper's firewall
// example does with timer_mgr.advance_global.
package timer

import (
	"container/heap"
	"fmt"
	"sort"

	"hilti/internal/rt/metrics"
)

// Time is nanoseconds since the Unix epoch, HILTI's time resolution.
type Time int64

// Interval is a span in nanoseconds.
type Interval int64

// Seconds converts a float seconds quantity to an Interval.
func Seconds(s float64) Interval { return Interval(s * 1e9) }

// Timer is a scheduled closure. A timer belongs to at most one manager at a
// time; rescheduling through its manager updates it in place.
type Timer struct {
	fire     Time
	fn       func()
	mgr      *Mgr
	index    int // heap index; -1 when not scheduled, pendingFire mid-Advance or -Expire
	seq      uint64
	flushing bool // fn is running from Expire(true)
}

// pendingFire marks a timer taken into an in-progress Advance's or Expire's
// due set but not yet fired; Cancel and Update still act on it.
const pendingFire = -2

// NewTimer creates an unscheduled timer executing fn when it fires.
func NewTimer(fn func()) *Timer { return &Timer{fn: fn, index: -1} }

// Scheduled reports whether the timer is currently pending in a manager.
func (t *Timer) Scheduled() bool { return t.index >= 0 }

// Armed reports whether the timer is going to fire: it is scheduled, or due
// within an in-progress Advance or Expire.
func (t *Timer) Armed() bool { return t.mgr != nil }

// Flushing reports whether the timer's callback is running from
// Expire(true), the shutdown flush, rather than from Advance.
func (t *Timer) Flushing() bool { return t.flushing }

// flush runs the callback as Expire(true) does.
func (t *Timer) flush() {
	t.flushing = true
	defer func() { t.flushing = false }()
	t.fn()
}

// FireTime returns the time the timer is due (zero when unscheduled).
func (t *Timer) FireTime() Time { return t.fire }

// Cancel removes the timer from its manager, if scheduled. Cancelling a
// timer that is due within an in-progress Advance prevents it from firing.
func (t *Timer) Cancel() {
	if t.mgr == nil {
		return
	}
	if t.index >= 0 {
		heap.Remove(&t.mgr.q, t.index)
		t.mgr = nil
		t.fire = 0
	} else if t.index == pendingFire {
		t.index = -1
		t.mgr = nil
		t.fire = 0
	}
}

// Update reschedules a pending timer to a new fire time (HILTI's
// timer.update); it is a no-op for unscheduled timers. Updating a timer
// that is due within an in-progress Advance pulls it out of the due set
// and re-queues it for the new time.
func (t *Timer) Update(at Time) {
	if t.mgr == nil {
		return
	}
	if t.index == pendingFire {
		m := t.mgr
		t.index = -1
		t.mgr = nil
		m.Schedule(at, t) //nolint:errcheck // just cleared to unscheduled
		return
	}
	if t.index < 0 {
		return
	}
	t.fire = at
	// Take a fresh sequence number, exactly as Cancel+Schedule would: ties
	// at the same fire time keep the documented "(time, scheduling) order",
	// and PendingTimers (hence checkpoint/replay ordering) stays
	// deterministic across the two equivalent rescheduling idioms.
	m := t.mgr
	m.seq++
	t.seq = m.seq
	heap.Fix(&m.q, t.index)
}

// Mgr is a timer manager: an independent notion of time plus a queue of
// pending timers. Managers are not safe for concurrent use; in HILTI each
// virtual thread owns its managers (package threads enforces this).
type Mgr struct {
	now Time
	q   timerQueue
	seq uint64

	// Met, when set, receives scheduling/firing counts. The counters are
	// atomic so several single-threaded managers (one per worker) can share
	// one set and a metrics scrape can read them from any goroutine. Set it
	// before the manager is used.
	Met *MgrMetrics
}

// MgrMetrics is the instrument set a timer manager reports into. Nil
// counter fields are valid (metrics.Counter is nil-safe).
type MgrMetrics struct {
	Scheduled *metrics.Counter // timers entered into a wheel
	Fired     *metrics.Counter // timers whose callback ran via Advance
	Expired   *metrics.Counter // timers drained by Expire at shutdown
}

// NewMgr creates a manager whose time starts at zero.
func NewMgr() *Mgr { return &Mgr{} }

// Now returns the manager's current time.
func (m *Mgr) Now() Time { return m.now }

// Pending returns the number of scheduled timers.
func (m *Mgr) Pending() int { return len(m.q) }

// Schedule adds t to the manager, due at time at. Timers scheduled at or
// before the manager's current time fire on the next Advance (HILTI
// semantics: scheduling never executes user code synchronously).
func (m *Mgr) Schedule(at Time, t *Timer) error {
	if t.index >= 0 || t.index == pendingFire {
		return fmt.Errorf("timer already scheduled")
	}
	t.fire = at
	t.mgr = m
	m.seq++
	t.seq = m.seq
	heap.Push(&m.q, t)
	if m.Met != nil {
		m.Met.Scheduled.Inc()
	}
	return nil
}

// ScheduleFunc is a convenience wrapper creating and scheduling a timer.
// Schedule can only fail on a double-schedule, which is impossible for the
// freshly created timer — any error here is an internal invariant breach,
// so it panics rather than being silently dropped.
func (m *Mgr) ScheduleFunc(at Time, fn func()) *Timer {
	t := NewTimer(fn)
	if err := m.Schedule(at, t); err != nil {
		panic(fmt.Sprintf("timer: ScheduleFunc: %v", err))
	}
	return t
}

// Advance moves the manager's time forward to now and fires all timers due
// at or before it, in (time, scheduling) order. Moving time backwards is a
// no-op for the clock but still returns without firing, matching HILTI's
// monotone timer_mgr.advance. It returns the number of timers fired.
func (m *Mgr) Advance(now Time) int {
	if now > m.now {
		m.now = now
	}
	// Snapshot the due set before running any callback: a callback that
	// schedules a timer at or before now must see it fire on the *next*
	// Advance (the documented contract), not re-enter this one.
	var due []*Timer
	for len(m.q) > 0 && m.q[0].fire <= m.now {
		t := heap.Pop(&m.q).(*Timer)
		t.index = pendingFire
		due = append(due, t)
	}
	fired := 0
	for _, t := range due {
		if t.index != pendingFire { // cancelled or updated by an earlier callback
			continue
		}
		t.index = -1
		t.mgr = nil
		t.fire = 0 // unscheduled: FireTime contract
		fired++
		t.fn()
	}
	if fired > 0 && m.Met != nil {
		m.Met.Fired.Add(uint64(fired))
	}
	return fired
}

// AdvanceBy moves time forward by an interval.
func (m *Mgr) AdvanceBy(d Interval) int { return m.Advance(m.now + Time(d)) }

// SetNow restores the manager's clock to a checkpointed value without
// firing any timers, unlike Advance. Restore code calls it before
// re-scheduling the checkpointed timer set so relative deadlines land at
// the same virtual times they held when the snapshot was taken.
func (m *Mgr) SetNow(now Time) { m.now = now }

// PendingTimers returns a copy of the scheduled timers in firing order
// (fire time, then scheduling order), for checkpointing. The heap itself
// is not modified.
func (m *Mgr) PendingTimers() []*Timer {
	out := make([]*Timer, len(m.q))
	copy(out, m.q)
	sort.Slice(out, func(i, j int) bool {
		if out[i].fire != out[j].fire {
			return out[i].fire < out[j].fire
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// Expire fires (or, with execute false, discards) every timer pending when
// it is called, regardless of its due time, as HILTI's timer_mgr.expire
// does at shutdown. As in Advance, a timer a callback schedules stays
// pending, so a callback that re-schedules itself fires once. A timer that
// Expire(true) fires reports Flushing while its callback runs: a
// container's timer then removes every element it queues, not only the
// due ones. Expire(false) runs no callback: a container's timer is
// discarded with the rest, and its queued elements stay until the container
// re-arms at its next insert or touch. It returns the number of timers
// fired or discarded.
func (m *Mgr) Expire(execute bool) int {
	// The heap's array becomes the snapshot, sorted into firing order; a
	// timer a callback schedules goes into a new one.
	due := m.q
	m.q = nil
	if execute {
		sort.Sort(due)
	}
	for _, t := range due {
		t.index = pendingFire
	}
	n := 0
	for _, t := range due {
		if t.index != pendingFire { // cancelled or updated by an earlier callback
			continue
		}
		t.index = -1
		t.mgr = nil
		t.fire = 0
		n++
		if execute {
			t.flush()
		}
	}
	if n > 0 && m.Met != nil {
		m.Met.Expired.Add(uint64(n))
	}
	return n
}

// TypeName implements the runtime Object interface by name convention.
func (m *Mgr) TypeName() string { return "timer_mgr" }

// TypeName implements the runtime Object interface by name convention.
func (t *Timer) TypeName() string { return "timer" }

// timerQueue is a binary min-heap over (fire time, sequence).
type timerQueue []*Timer

func (q timerQueue) Len() int { return len(q) }

func (q timerQueue) Less(i, j int) bool {
	if q[i].fire != q[j].fire {
		return q[i].fire < q[j].fire
	}
	return q[i].seq < q[j].seq
}

func (q timerQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *timerQueue) Push(x any) {
	t := x.(*Timer)
	t.index = len(*q)
	*q = append(*q, t)
}

func (q *timerQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*q = old[:n-1]
	return t
}
