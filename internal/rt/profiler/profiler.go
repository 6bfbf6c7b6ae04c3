// Package profiler implements HILTI's profilers (paper §3.3): named
// counters that track time, invocation counts and custom attributes for
// arbitrary blocks of HILTI code (profiler.start/stop/update). The hosts'
// own per-packet component split (Figure 9/10) is not built on it: see the
// component clock in internal/bro.
package profiler

import (
	"sort"
	"sync"
	"time"

	"hilti/internal/rt/metrics"
)

// base anchors the monotonic readings Start and Stop take: time.Since on
// it is one monotonic read, where time.Now also reads the wall clock.
var base = time.Now()

// Profiler accumulates measurements for one named code region. It supports
// nested and repeated Start/Stop pairs (only the outermost pair measures).
type Profiler struct {
	Name string

	mu      sync.Mutex
	depth   int
	started time.Duration // since base
	total   time.Duration
	count   uint64
	updates uint64
}

// Start begins a measurement interval.
func (p *Profiler) Start() {
	p.mu.Lock()
	if p.depth++; p.depth == 1 {
		p.started = time.Since(base)
	}
	p.mu.Unlock()
}

// Stop ends a measurement interval, folding the elapsed time into the
// total. Unbalanced stops are ignored.
func (p *Profiler) Stop() {
	p.mu.Lock()
	if p.depth > 0 {
		if p.depth--; p.depth == 0 {
			p.total += time.Since(base) - p.started
			p.count++
		}
	}
	p.mu.Unlock()
}

// Update adds a caller-supplied sample (HILTI's profiler.update for custom
// attributes such as byte counts).
func (p *Profiler) Update(delta int64) {
	p.mu.Lock()
	p.updates += uint64(delta)
	p.mu.Unlock()
}

// read returns the totals as of one instant.
func (p *Profiler) read() (total time.Duration, count, updates uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total, p.count, p.updates
}

// Total returns the accumulated duration.
func (p *Profiler) Total() time.Duration { t, _, _ := p.read(); return t }

// Count returns the number of completed Start/Stop intervals.
func (p *Profiler) Count() uint64 { _, c, _ := p.read(); return c }

// Updates returns the sum of Update deltas.
func (p *Profiler) Updates() uint64 { _, _, u := p.read(); return u }

// TypeName implements the runtime Object interface.
func (p *Profiler) TypeName() string { return "profiler" }

// Registry is a set of named profilers.
type Registry struct {
	mu    sync.Mutex
	profs map[string]*Profiler
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{profs: map[string]*Profiler{}} }

// Get returns the named profiler, creating it if needed.
func (r *Registry) Get(name string) *Profiler {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.profs[name]
	if !ok {
		p = &Profiler{Name: name}
		r.profs[name] = p
	}
	return p
}

// PublishTo registers this profiler registry with a metrics registry under
// the given collector key: every profiler appears as
// hilti_profiler_time_ns_total / _intervals_total / _updates_total series
// labelled with its name (and any extra label pairs), sampled live at
// scrape time, in name order. This is what makes the paper's
// profiler.start/stop/update instructions first-class observables: a HILTI
// program's profilers show up on the host's metrics endpoint with no extra
// plumbing (it stands in for the paper's periodic snapshots to disk).
func (r *Registry) PublishTo(reg *metrics.Registry, key string, labels ...string) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(key, func(emit func(string, float64)) {
		r.mu.Lock()
		profs := make([]*Profiler, 0, len(r.profs))
		for _, p := range r.profs {
			profs = append(profs, p)
		}
		r.mu.Unlock()
		sort.Slice(profs, func(i, j int) bool { return profs[i].Name < profs[j].Name })
		for _, p := range profs {
			lp := append([]string{"name", p.Name}, labels...)
			total, count, updates := p.read()
			emit(metrics.Name("hilti_profiler_time_ns_total", lp...), float64(total.Nanoseconds()))
			emit(metrics.Name("hilti_profiler_intervals_total", lp...), float64(count))
			emit(metrics.Name("hilti_profiler_updates_total", lp...), float64(updates))
		}
	})
}
