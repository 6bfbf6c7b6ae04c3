// Pipeline observability: everything the pipeline already counts for its
// own bookkeeping (per-shard atomics, scheduler stats, the supervisor's
// restart count) is surfaced to a metrics.Registry by a scrape-time
// collector, so the packet hot path pays nothing. Only checkpoint, re-base
// and replay latency are recorded at event time — they are rare and their
// duration is exactly what an operator sizing StallTimeout needs to see —
// and the log's record cost and size, sampled one record in 64.

package pipeline

import (
	"strconv"

	"hilti/internal/rt/admission"
	"hilti/internal/rt/metrics"
)

// registerMetrics wires the pipeline into cfg.Metrics (no-op when unset).
// Called once from newPipeline.
func (p *Pipeline) registerMetrics() {
	reg := p.cfg.Metrics
	if reg == nil {
		return
	}
	p.ckptLat = reg.Histogram("pipeline_checkpoint_ns", metrics.DurationBuckets)
	p.rebaseLat = reg.Histogram("pipeline_rebase_ns", metrics.DurationBuckets)
	p.recordLat = reg.Histogram("pipeline_wal_record_ns", metrics.DurationBuckets)
	p.recordSize = reg.Histogram("pipeline_wal_record_bytes", []int64{64, 128, 256, 512, 1024, 2048, 4096})
	p.replayLat = reg.Histogram("pipeline_wal_replay_ns", metrics.DurationBuckets)
	reg.RegisterCollector("pipeline", func(emit func(string, float64)) {
		emit("pipeline_packets_fed_total", float64(p.Fed()))
		emit("pipeline_worker_restarts_total", float64(p.Restarts()))
		if rp := p.cfg.RulePlane; rp != nil {
			emit("pipeline_ruleplane_dropped_total", float64(p.PlaneDropped()))
			st := rp.Stats()
			emit("pipeline_ruleplane_evals_total", float64(st.Evals))
			emit("pipeline_ruleplane_swaps_total", float64(st.Swaps))
			emit("pipeline_ruleplane_swaps_committed_total", float64(st.Committed))
			emit("pipeline_ruleplane_swaps_aborted_total", float64(st.Aborted))
			emit("pipeline_ruleplane_shadow_packets_total", float64(st.ShadowPackets))
			emit("pipeline_ruleplane_committed_seq", float64(rp.CommittedSeq()))
		}
		emit("pipeline_flow_table_size", float64(p.FlowTableSize()))
		emit("pipeline_effective_max_flows", float64(p.EffectiveMaxFlows()))
		emit("pipeline_stall_quarantines_total", float64(p.StallQuarantines()))
		emit("pipeline_quarantined_workers", float64(p.QuarantinedWorkers()))
		var faults, quarFlows, evicted, expired, ckptFail, flows uint64
		for i, ws := range p.Stats() {
			w := strconv.Itoa(i)
			emit(metrics.Name("pipeline_shard_packets_total", "worker", w), float64(ws.Packets))
			emit(metrics.Name("pipeline_shard_copied_bytes_total", "worker", w), float64(ws.CopiedBytes))
			emit(metrics.Name("pipeline_shard_queue_depth", "worker", w), float64(ws.Backlog))
			emit(metrics.Name("pipeline_shard_queue_high_water", "worker", w), float64(ws.HighWater))
			emit(metrics.Name("pipeline_shard_live_flows", "worker", w), float64(ws.LiveFlows))
			quarantined := 0.0
			if ws.StallQuarantined {
				quarantined = 1
			}
			emit(metrics.Name("pipeline_worker_stall_quarantined", "worker", w), quarantined)
			emit(metrics.Name("pipeline_worker_cooldown_remaining_ns", "worker", w), float64(ws.CooldownRemaining))
			emit(metrics.Name("pipeline_worker_replacements_total", "worker", w), float64(ws.Replacements))
			emit(metrics.Name("pipeline_worker_stall_quarantines_total", "worker", w), float64(ws.StallQuarantines))
			faults += ws.Faults
			quarFlows += ws.QuarantinedFlows
			evicted += ws.FlowsEvicted
			expired += ws.FlowsExpired
			ckptFail += ws.CheckpointFailures
			flows += ws.Flows
		}
		emit("pipeline_faults_total", float64(faults))
		emit("pipeline_quarantined_flows_total", float64(quarFlows))
		fates, _ := p.workerFates()
		emit("pipeline_quarantine_dropped_total", float64(fates[admission.FateQuarantineDrop]))
		emit("pipeline_flows_evicted_total", float64(evicted))
		emit("pipeline_flows_expired_total", float64(expired))
		emit("pipeline_packets_rejected_total", float64(fates[admission.FateDiscarded]))
		emit("pipeline_packets_shed_total", float64(fates[admission.FateShed]))
		emit("pipeline_checkpoint_failures_total", float64(ckptFail))
		emit("pipeline_flows_seen_total", float64(flows))
	})
}
