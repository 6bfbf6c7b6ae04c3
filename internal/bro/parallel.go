// Parallel engine hosting: one Engine per pipeline worker, flows sharded
// by 5-tuple hash (paper §3.2/§6.6). Each engine only ever sees complete
// flows — both directions of a connection hash to the same virtual thread,
// hence the same worker — so N parallel engines produce exactly the events
// a single engine would, merely partitioned.

package bro

import (
	"bytes"
	"io"
	"sort"
	"strconv"

	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/pipeline"
	"hilti/internal/pkt/reassembly"
	"hilti/internal/rt/admission"
)

// Parallel couples a flow-sharded pipeline with its per-worker engines.
type Parallel struct {
	*pipeline.Pipeline
	Engines []*Engine
}

// NewParallel builds a pipeline whose workers each host an Engine with the
// given configuration. Engines must not be inspected until Close returns.
func NewParallel(cfg Config, workers int) (*Parallel, error) {
	return NewParallelWith(cfg, pipeline.Config{Workers: workers})
}

// NewParallelWith is NewParallel with full control over the pipeline
// (flow-table cap, admission, ingress window). pcfg.NewHandler is supplied
// here; see hostConfig for what cfg contributes to the pipeline.
func NewParallelWith(cfg Config, pcfg pipeline.Config) (*Parallel, error) {
	if pcfg.Workers < 1 {
		pcfg.Workers = 1
	}
	p := &Parallel{}
	pl, err := pipeline.New(p.hostConfig(cfg, pcfg))
	if err != nil {
		return nil, err
	}
	p.Pipeline = pl
	return p, nil
}

// RestoreParallelWith rebuilds a parallel engine host from a pipeline
// checkpoint (Pipeline.Checkpoint or Close's FinalCheckpoint): each
// worker's engine is restored from its shard's embedded engine
// checkpoint. pcfg.Workers must match the checkpoint (or be 0 to adopt
// it); the engine configuration must match the one checkpointed.
func RestoreParallelWith(cfg Config, pcfg pipeline.Config, r io.Reader) (*Parallel, error) {
	p := &Parallel{}
	pl, err := pipeline.Restore(p.hostConfig(cfg, pcfg), r)
	if err != nil {
		return nil, err
	}
	p.Pipeline = pl
	return p, nil
}

// hostConfig completes pcfg for a pipeline whose workers each host an
// Engine configured by cfg, recorded in p.Engines as they are built. A
// ReassemblyBudget in cfg becomes one budget shared by all workers so the
// cap is global; when pcfg.Admission is set, that budget also becomes the
// controller's tier-2 lever: it halves at the shrink tier and restores on
// de-escalation.
func (p *Parallel) hostConfig(cfg Config, pcfg pipeline.Config) pipeline.Config {
	if cfg.SharedReassembly == nil && cfg.ReassemblyBudget > 0 {
		cfg.SharedReassembly = reassembly.NewBudget(cfg.ReassemblyBudget)
	}
	if pcfg.Admission != nil && cfg.SharedReassembly != nil {
		if base := cfg.SharedReassembly.Max(); base > 0 {
			budget := cfg.SharedReassembly
			pcfg.Admission.OnTier(func(tier int) {
				if tier >= admission.TierShrink {
					budget.SetMax(base / 2)
				} else {
					budget.SetMax(base)
				}
			})
		}
	}
	// One registry observes pipeline and engines together; each worker's
	// engine registers under its own key so a supervised restart replaces
	// (not duplicates) the dead worker's series.
	if pcfg.Metrics == nil {
		pcfg.Metrics = cfg.Metrics
	}
	// A rule plane is hoisted to the pipeline ingress: the single feeder
	// goroutine evaluates it once per packet, so swap ledgers stay exact
	// and per-worker engines never evaluate it a second time.
	if pcfg.RulePlane == nil {
		pcfg.RulePlane = cfg.RulePlane
	}
	cfg.RulePlane = nil
	workerCfg := func(i int) Config {
		c := cfg
		c.Metrics = pcfg.Metrics
		c.MetricsKey = strconv.Itoa(i)
		return c
	}
	// Handlers are first built sequentially in worker order (a restore
	// learns the worker count from the checkpoint), so the engine slice
	// grows as they arrive; a supervised restart replaces its entry.
	keep := func(i int, e *Engine, err error) (pipeline.Handler, error) {
		if err != nil {
			return nil, err
		}
		for len(p.Engines) <= i {
			p.Engines = append(p.Engines, nil)
		}
		p.Engines[i] = e
		return e, nil
	}
	pcfg.NewHandler = func(i int) (pipeline.Handler, error) {
		e, err := NewEngine(workerCfg(i))
		return keep(i, e, err)
	}
	if pcfg.RestoreHandler == nil {
		// Also the default path by which a supervised restart (StallTimeout)
		// rebuilds a replaced worker's engine from its shard checkpoint.
		pcfg.RestoreHandler = func(i int, data []byte) (pipeline.Handler, error) {
			e, err := RestoreEngine(workerCfg(i), bytes.NewReader(data))
			return keep(i, e, err)
		}
	}
	return pcfg
}

// ProcessTrace feeds a whole trace through the pipeline and closes it.
func (p *Parallel) ProcessTrace(pkts []pcap.Packet) {
	for i := range pkts {
		p.Feed(pkts[i].Time.UnixNano(), pkts[i].Data) //nolint:errcheck
	}
	p.Close()
}

// Events sums event counts across workers (call after Close), net of the
// duplicate per-worker bro_done lifecycle events so the total compares
// directly against a single engine's count.
func (p *Parallel) Events() int {
	n := 0
	for _, e := range p.Engines {
		n += int(e.events.Load())
	}
	return n - (len(p.Engines) - 1)
}

// MergedLines gathers one log stream from every worker, sorted. Sharding
// preserves per-flow ordering but interleaves flows differently than a
// single engine; sorting gives a canonical form for equality checks.
func (p *Parallel) MergedLines(stream string) []string {
	var all []string
	for _, e := range p.Engines {
		all = append(all, e.Logs.Lines(stream)...)
	}
	sort.Strings(all)
	return all
}

// SortedLines returns one engine's log stream in the same canonical order
// as Parallel.MergedLines, for byte-identical comparison.
func SortedLines(e *Engine, stream string) []string {
	lines := append([]string(nil), e.Logs.Lines(stream)...)
	sort.Strings(lines)
	return lines
}
