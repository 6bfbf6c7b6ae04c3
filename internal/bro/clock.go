// The component clock: the Figure 9/10 instrumentation. An engine runs on
// one goroutine and is at any instant parsing, running script code,
// converting values between the two (glue), or none of them ("other"). The
// clock keeps a stack of the components entered and charges each interval
// between two of its reads to the one on top — exclusive time: entering
// script from inside a parser is what pauses the parser. A transition is
// one monotonic read: no lock, no defer, no wall clock. It is exact and
// always on; sampling would be cheaper, but ns_per_event times every event.

package bro

import (
	"sync/atomic"
	"time"
)

type component uint8

const (
	compParse component = iota
	compScript
	compGlue
	numComponents
)

var componentNames = [numComponents]string{"parsing", "script", "glue"}

type compClock struct {
	base  time.Time
	fake  func() int64 // tests only: replaces the monotonic reading
	last  int64        // the previous reading
	stack []component

	// Owned by the engine's goroutine; StatsSnapshot reads these.
	ns        [numComponents]int64
	intervals [numComponents]uint64
	reads     uint64

	// What a scrape from another goroutine reads: copies made by Finish and
	// every 32nd time the stack empties (the VM's counters do the same).
	idle int
	pub  struct{ ns, intervals [numComponents]atomic.Uint64 }
}

// tick reads the clock and charges the interval since the previous read to
// the top component, which it returns the stack index of (-1: none).
func (k *compClock) tick() int {
	k.reads++
	t := int64(time.Since(k.base))
	if k.fake != nil {
		t = k.fake()
	}
	top := len(k.stack) - 1
	if top >= 0 {
		k.ns[k.stack[top]] += t - k.last
	}
	k.last = t
	return top
}

// enter pauses whatever is running and starts an interval of c.
func (k *compClock) enter(c component) {
	k.tick()
	k.intervals[c]++
	k.stack = append(k.stack, c)
}

// leave ends the top component and resumes the one below it.
func (k *compClock) leave() {
	top := k.tick()
	k.stack = k.stack[:top]
	if top == 0 {
		if k.idle++; k.idle >= 32 {
			k.publish()
		}
	}
}

// switchTo is leave and enter(c) in one read.
func (k *compClock) switchTo(c component) {
	k.stack[k.tick()] = c
	k.intervals[c]++
}

// truncate drops what a contained panic left above depth, uncharged. An
// event restores its own depth; ProcessPacket and Finish, the bottom of the
// stack, restore 0 for hosts that contain a packet's panic themselves.
func (k *compClock) truncate(depth int) { k.stack = k.stack[:depth] }

func (k *compClock) publish() {
	k.idle = 0
	for c := range k.ns {
		k.pub.ns[c].Store(uint64(k.ns[c]))
		k.pub.intervals[c].Store(k.intervals[c])
	}
}
