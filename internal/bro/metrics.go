// Engine observability: one keyed collector per engine emits the engine's
// counters and component clock at scrape time, plus bridges for any
// HILTI-program profilers and the engine VM's execution counters.
//
// Everything here reads state that is already atomic (metrics.Counter
// fields, fault.Recorder's count, the clock's published copy), so a scrape
// can run while the engine's goroutine processes packets, which pay nothing
// beyond the atomic increments the counters already cost.

package bro

import (
	"hilti/internal/rt/container"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/timer"
)

// registerMetrics wires the engine into cfg.Metrics (no-op when unset).
// Called from NewEngine — which RestoreEngine also goes through, so a
// restored engine replaces its predecessor's registration (same key) and
// its checkpoint-seeded counters keep the series continuous.
func (e *Engine) registerMetrics() {
	reg := e.cfg.Metrics
	if reg == nil {
		return
	}
	key := e.cfg.MetricsKey
	if key == "" {
		key = "0"
	}
	reg.RegisterCollector("bro/engine/"+key, func(emit func(string, float64)) {
		opened := e.flowsOpened.Load()
		closed := e.flowsClosed.Load()
		emit("bro_packets_total", float64(e.packets.Load()))
		emit("bro_events_total", float64(e.events.Load()))
		emit("bro_parse_errors_total", float64(e.parseErrs.Load()))
		emit("bro_flows_opened_total", float64(opened))
		emit("bro_flows_closed_total", float64(closed))
		emit("bro_flows_active", float64(opened-closed))
		emit("bro_tcp_after_close_total", float64(e.afterClose.Load()))
		emit("bro_faults_total", float64(e.faults.Count()))
		emit("bro_budget_blown_total", float64(e.budgetBlown.Load()))
		emit("bro_quarantine_dropped_total", float64(e.quarDropped.Load()))
		emit("bro_log_lines_total", float64(e.Logs.Written()))
		emit("bro_table_entries_expired_total", float64(e.interp.Expired.Load()))
		emit("bro_rebase_frames_reused_total", float64(e.rebaseReused.Load()))
		emit("bro_rebase_frames_encoded_total", float64(e.rebaseEncoded.Load()))
		// The component clock, under its rt/profiler predecessors' names.
		for c, name := range componentNames {
			emit(metrics.Name("hilti_profiler_time_ns_total", "name", name), float64(e.clock.pub.ns[c].Load()))
			emit(metrics.Name("hilti_profiler_intervals_total", "name", name), float64(e.clock.pub.intervals[c].Load()))
		}
	})
	// The HILTI program's profilers, execution counters and timer wheel.
	if e.ex != nil {
		e.ex.PublishTo(reg, "bro/vm/"+key, "vm", "engine")
		e.ex.Profs.PublishTo(reg, "bro/hprofs/"+key)
		e.ex.GlobalTM.Met = &timer.MgrMetrics{
			Scheduled: reg.Counter("hilti_timers_scheduled_total"),
			Fired:     reg.Counter("hilti_timers_fired_total"),
			Expired:   reg.Counter("hilti_timers_expired_total"),
		}
	}
	// Process-global series: name-keyed registration makes repeated calls
	// (one per engine) idempotent rather than additive.
	reg.GaugeFunc("hilti_container_expirations_total", func() float64 {
		return float64(container.Expirations())
	})
	if e.reasm != nil {
		budget := e.reasm
		reg.GaugeFunc("bro_reassembly_buffered_bytes", func() float64 {
			return float64(budget.Used())
		})
		reg.GaugeFunc("bro_reassembly_forced_gaps_total", func() float64 {
			return float64(budget.Forced())
		})
	}
}

// RebaseFrames reports, summed over the engine's Rebase calls, the flow
// frames copied from the previous snapshot, the frames encoded again, and
// the uids the dirty marks named (all of them, for a Rebase that had
// nothing to patch). encoded <= touched whatever the engine
// holds — the invariant hilti-bench -exp wal asserts.
func (e *Engine) RebaseFrames() (reused, encoded, touched uint64) {
	return e.rebaseReused.Load(), e.rebaseEncoded.Load(), e.rebaseTouched.Load()
}

// FlowCounts reports the engine's flow ledger: connections opened, closed
// (including zapped), and currently active. opened == closed + active at
// every between-packets point — the invariant hilti-bench -exp observe
// asserts.
func (e *Engine) FlowCounts() (opened, closed uint64, active int) {
	return e.flowsOpened.Load(), e.flowsClosed.Load(), e.flows.len()
}
