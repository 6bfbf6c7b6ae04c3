// VM observability: per-Exec execution counters and an optional per-opcode
// profile.
//
// The hot dispatch loop is never instrumented directly — instruction counts
// are harvested from the budget machinery (which already counts steps for
// resource governance) at invocation boundaries. The harvest itself is
// batched: invocation and instruction deltas accumulate in plain fields
// owned by the Exec goroutine and are flushed to the atomic counters every
// flushEvery invocations, so the steady-state per-call cost is two plain
// adds and a predictable branch (~0.4ns) instead of two atomic RMWs
// (~12ns on a Xeon). Scrapes therefore lag by at most flushEvery
// invocations — bounded staleness a monitoring reader never notices.
// Counters live on the Exec rather than in a shared registry so concurrent
// Execs on different pipeline workers never contend on a cache line; a
// scrape-time collector sums them.

package vm

import (
	"sort"

	"hilti/internal/rt/metrics"
)

// ExecMetrics is the counter set one Exec reports into. All fields are
// safe to read from any goroutine while the Exec runs.
type ExecMetrics struct {
	// Instructions is the cumulative count of VM instructions executed by
	// completed top-level invocations (a parked call counts all its
	// resumes when it completes).
	Instructions metrics.Counter
	// Invocations counts completed top-level Call/CallFn entries.
	Invocations metrics.Counter
	// FiberSuspends counts would-block parks (the paper's fiber yields).
	FiberSuspends metrics.Counter
	// LimitTrips counts Hilti::ResourceExhausted raises from instruction
	// budgets or deadlines (vm.Limits).
	LimitTrips metrics.Counter
	// Uncaught counts invocations that completed with an unhandled
	// exception.
	Uncaught metrics.Counter
	// Suspended is the number of Resumables not done, FrameDepthMax the
	// deepest call stack so far in activations; both as of the last flush.
	Suspended     metrics.Gauge
	FrameDepthMax metrics.Gauge

	// Pending values, owned by the Exec's goroutine (never read elsewhere);
	// folded into the atomic counters and gauges by flush().
	pendInstr uint64
	pendInv   uint64
	parked    int
	depth     int
}

// flushEvery bounds how many invocations may accumulate locally before the
// pending deltas are folded into the atomic counters.
const flushEvery = 32

// harvest records one completed top-level invocation (across all nested
// calls and, for a parked call, every resume). Called on the Exec's
// goroutine only.
func (m *ExecMetrics) harvest(steps uint64, raised bool, parked, depth int) {
	if raised {
		m.Uncaught.Inc()
	}
	m.pendInstr += steps
	m.parked, m.depth = parked, depth
	if m.pendInv++; m.pendInv >= flushEvery {
		m.flush()
	}
}

func (m *ExecMetrics) flush() {
	if m.pendInv > 0 {
		m.Invocations.Add(m.pendInv)
		m.Instructions.Add(m.pendInstr)
		m.pendInv, m.pendInstr = 0, 0
		m.Suspended.Set(int64(m.parked))
		m.FrameDepthMax.Set(int64(m.depth))
	}
}

// Sync publishes any batched invocation/instruction deltas to the atomic
// counters immediately. It must be called from the goroutine driving the
// Exec (between calls); scrape-side readers never need it — they just see
// values up to flushEvery invocations stale.
func (m *ExecMetrics) Sync() {
	if m != nil {
		m.flush()
	}
}

// AttachMetrics equips the Exec with an ExecMetrics counter set (idempotent
// — an existing set is kept) and returns it. Call before the Exec runs.
func (ex *Exec) AttachMetrics() *ExecMetrics {
	if ex.Met == nil {
		ex.Met = &ExecMetrics{}
	}
	return ex.Met
}

// PublishTo registers the Exec's counters (attaching them if needed) with
// reg under the given collector key, as hilti_vm_* series with the given
// extra label pairs. The opcode profile is published too when
// EnableOpcodeProfile was called before PublishTo (the profile pointer is
// captured here so the scrape never races with enabling).
func (ex *Exec) PublishTo(reg *metrics.Registry, key string, labels ...string) *ExecMetrics {
	m := ex.AttachMetrics()
	op := ex.opProf
	if reg == nil {
		return m
	}
	reg.RegisterCollector(key, func(emit func(string, float64)) {
		emit(metrics.Name("hilti_vm_instructions_total", labels...), float64(m.Instructions.Load()))
		emit(metrics.Name("hilti_vm_invocations_total", labels...), float64(m.Invocations.Load()))
		emit(metrics.Name("hilti_vm_fiber_suspends_total", labels...), float64(m.FiberSuspends.Load()))
		emit(metrics.Name("hilti_vm_suspended_calls", labels...), float64(m.Suspended.Load()))
		emit(metrics.Name("hilti_vm_frame_depth_max", labels...), float64(m.FrameDepthMax.Load()))
		emit(metrics.Name("hilti_vm_limit_trips_total", labels...), float64(m.LimitTrips.Load()))
		emit(metrics.Name("hilti_vm_uncaught_exceptions_total", labels...), float64(m.Uncaught.Load()))
		if op != nil {
			for _, oc := range op.snapshot() {
				lp := append([]string{"op", oc.op}, labels...)
				emit(metrics.Name("hilti_vm_op_executions_total", lp...), float64(oc.n))
			}
		}
	})
	return m
}

// opProfile is the per-opcode execution profile: a flat array indexed by
// interned opcode id (optable.go). The counts are atomic counters so
// concurrent scrapes (PublishTo collectors) read them safely.
//
// The array is sized at enable time to the interner population plus
// headroom for names minted later (fused forms); ids past the end are
// dropped rather than grown, keeping hit() allocation-free forever.
type opProfile struct {
	counts []metrics.Counter // [opID] executions; atomic, scrape-safe
}

// opProfileHeadroom pads the profile array beyond the ids interned at
// enable time, so ops minted later (tier-2 overlay pairs, programs linked
// after enabling) still get counted.
const opProfileHeadroom = 256

type opCount struct {
	op string
	n  uint64
}

// EnableOpcodeProfile turns on per-opcode execution counting for this
// Exec. The cost is one bounds check plus one atomic increment per
// instruction — cheap enough to leave on in production. PublishTo exports
// the counts as hilti_vm_op_executions_total. Enable it after linking the
// programs of interest so their opcode names are already interned (later
// names land in the headroom, and anything beyond that is silently dropped
// from the profile).
func (ex *Exec) EnableOpcodeProfile() {
	if ex.opProf == nil {
		ex.opProf = &opProfile{counts: make([]metrics.Counter, internedOpCount()+opProfileHeadroom)}
	}
}

// OpcodeProfile returns the per-opcode execution counts accumulated so
// far, or nil when profiling was never enabled.
func (ex *Exec) OpcodeProfile() map[string]uint64 {
	if ex.opProf == nil {
		return nil
	}
	out := make(map[string]uint64)
	for _, oc := range ex.opProf.snapshot() {
		out[oc.op] = oc.n
	}
	return out
}

// hit records one execution of id.
func (p *opProfile) hit(id uint16) {
	if int(id) < len(p.counts) {
		p.counts[id].Inc()
	}
}

// snapshot returns the nonzero per-opcode counts sorted descending. It
// allocates exactly one slice sized to the nonzero population (it runs on
// every metrics scrape).
func (p *opProfile) snapshot() []opCount {
	k := 0
	for i := range p.counts {
		if p.counts[i].Load() > 0 {
			k++
		}
	}
	out := make([]opCount, 0, k)
	for i := range p.counts {
		if n := p.counts[i].Load(); n > 0 {
			out = append(out, opCount{op: opName(uint16(i)), n: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].op < out[j].op
	})
	return out
}
