// Package fault implements the runtime's fault-containment primitives.
//
// The paper's central safety claim (§3) is that HILTI programs cannot crash
// the host: illegal operations turn into catchable exceptions and the
// runtime keeps processing under arbitrary input. Inside the VM that job is
// done by the exception machinery; this package extends the same guarantee
// to the Go layers around it — analyzers, hooks, and host glue — by
// converting panics at well-defined boundaries (per-packet work, event
// dispatch, shutdown flushes) into structured Fault values carrying the
// operation, the offending flow, and the goroutine stack. Callers record
// the fault, quarantine the flow it came from, and keep every other flow
// processing.
package fault

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Fault is one contained panic: what was being executed, on whose behalf,
// and the stack at the point of failure.
type Fault struct {
	Op     string // boundary that contained the fault, e.g. "packet", "event:http_request"
	Worker int    // hardware worker index (-1 when not pipeline-hosted)
	VID    uint64 // virtual-thread / flow-hash ID of the offending flow (0 when unknown)
	TsNs   int64  // packet timestamp being processed, when applicable
	Value  any    // the recovered panic value
	Stack  []byte // goroutine stack captured inside the recover
}

// Error renders the fault without the stack; use String for the full dump.
func (f *Fault) Error() string {
	return fmt.Sprintf("fault in %s (worker %d, vid %#x): %v", f.Op, f.Worker, f.VID, f.Value)
}

// String includes the captured stack.
func (f *Fault) String() string {
	return f.Error() + "\n" + string(f.Stack)
}

// Catch runs fn and converts a panic into a *Fault (nil when fn returns
// normally). It is the recover() boundary the pipeline and engine wrap
// around per-packet work: the contained goroutine keeps running, only the
// faulting unit of work is lost.
func Catch(op string, fn func()) (f *Fault) {
	defer func() {
		if r := recover(); r != nil {
			f = FromPanic(op, r)
		}
	}()
	fn()
	return nil
}

// FromPanic structures a recovered panic value, for boundaries that recover
// in a deferred function of their own (the stack is captured here, so call
// it from that function). If a contained layer below already structured the
// panic, its context is kept.
func FromPanic(op string, r any) *Fault {
	if inner, ok := r.(*Fault); ok {
		return inner
	}
	return &Fault{Op: op, Worker: -1, Value: r, Stack: debug.Stack()}
}

// Recorder accumulates contained faults: a total count plus a bounded ring
// of the most recent faults for diagnosis. It is safe for concurrent use —
// pipeline workers record faults independently.
type Recorder struct {
	mu    sync.Mutex
	ring  []*Fault
	next  int
	max   int
	count atomic.Uint64
}

// NewRecorder creates a recorder retaining the last max faults (default 16).
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = 16
	}
	return &Recorder{max: max}
}

// Record stores f and bumps the total count.
func (r *Recorder) Record(f *Fault) {
	if f == nil {
		return
	}
	r.count.Add(1)
	r.mu.Lock()
	if len(r.ring) < r.max {
		r.ring = append(r.ring, f)
	} else {
		r.ring[r.next] = f
		r.next = (r.next + 1) % r.max
	}
	r.mu.Unlock()
}

// Count returns the total number of faults recorded.
func (r *Recorder) Count() uint64 { return r.count.Load() }

// Faults snapshots the retained ring, oldest first.
func (r *Recorder) Faults() []*Fault {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Fault, 0, len(r.ring))
	if len(r.ring) == r.max {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring...)
	}
	return out
}
