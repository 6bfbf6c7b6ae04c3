// Package admission is the pipeline's overload-control subsystem: token
// buckets smooth ingest (globally and per source prefix), an EWMA
// estimator tracks offered load against a configured capacity, and a
// health-state machine with hysteresis walks a tiered degradation ladder
// — shed new flows first, shrink per-flow budgets second, sample packets
// last — so that under hostile, high-churn traffic the platform keeps
// per-flow state and execution bounded (the paper's core robustness
// claim) while protecting the flows it already invested state in.
//
// Offer runs on the pipeline's single Feed goroutine: it meters load,
// advances the state machine on trace time, applies the rate limiters and
// tier-3 sampling, and captures the tier/class for the packet; the worker
// that later runs the packet applies them and settles the packet's Fate.
// The controller keeps no disposition counters of its own beyond Offered:
// its Ledger is a view over the fate arrays (fate.go) of the pipeline it
// is attached to. Every offered packet ends in exactly one fate, so after a
// pipeline drain the accounting identity holds exactly:
//
//	Offered == Admitted + Shed + Sampled + RateLimited + Rejected
//
// All decisions are driven by caller-supplied (trace) time and the
// sequential Feed order — never wall clocks — so a run is deterministic
// for a given input, which is what lets the soak harness assert
// seed-determinism over millions of adversarial packets.
package admission

import (
	"math"
	"sync"
	"sync/atomic"

	"hilti/internal/pkt/flow"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/timer"
)

// Config parameterizes a Controller. The zero value of every field is a
// usable default; TargetRate 0 disables the health machine (the state
// stays Healthy and only the explicit rate limiters act).
type Config struct {
	// TargetRate is the capacity estimate in packets/second of trace
	// time: the offered-load level the machine considers "full". The
	// overload ratio driving every transition is EWMA-rate / TargetRate.
	TargetRate float64

	// GlobalRate/GlobalBurst configure the global ingest bucket
	// (tokens = packets). 0 disables it. Size it well above TargetRate:
	// it is the backstop against bursts faster than the EWMA can track,
	// not the primary control.
	GlobalRate, GlobalBurst int64
	// PrefixRate/PrefixBurst configure per-source-prefix buckets (/24
	// for IPv4, /64 for IPv6), bounded to PrefixEntries prefixes
	// (default 4096). 0 disables them.
	PrefixRate, PrefixBurst int64
	PrefixEntries           int

	// Window is the rate-estimation window (default 100ms of trace
	// time); Alpha the EWMA weight of each new window (default 0.3).
	Window timer.Interval
	Alpha  float64

	// Thresholds on the overload ratio, with defaults:
	// DegradedRatio 1.0 (enter Degraded), SheddingRatio 1.5 (enter
	// Shedding), SamplingRatio 2.5 (tier 3 within Shedding),
	// RecoverRatio 0.85 (fall toward Recovering/Healthy). Hysteresis
	// comes from RecoverRatio < DegradedRatio plus RecoverDwell.
	DegradedRatio, SheddingRatio, SamplingRatio, RecoverRatio float64
	// RecoverDwell is how long (trace time) the ratio must stay below
	// RecoverRatio in Recovering before the machine declares Healthy
	// (default 3s).
	RecoverDwell timer.Interval

	// SampleN is the tier-3 sampling divisor: 1 of every SampleN
	// non-High packets is admitted (default 8).
	SampleN int

	// Classify assigns a priority class to a flow (hasKey false =
	// unkeyable frame). Default: unkeyable traffic is Low, port-53
	// (DNS) flows are High, everything else Normal.
	Classify func(key flow.Key, hasKey bool) Class

	// Metrics, when set, registers an "admission" collector exporting
	// the ledger, state/tier gauges, the EWMA rate, and transition
	// counts.
	Metrics *metrics.Registry
}

// Decision is Offer's verdict for one packet. When Drop is true the
// controller has already counted the packet's fate (rate-limited or
// sampled) and the caller must discard it without further accounting.
// Otherwise Tier and Class are the captured degradation context the
// worker-side admit path applies — captured at offer time so a run's
// decisions are reproducible regardless of worker scheduling.
type Decision struct {
	Drop  bool
	Tier  int
	Class Class
}

// Ledger is the controller's view of the fate counters. Offered equals
// the sum of the other five once all in-flight packets have drained.
type Ledger struct {
	Offered     uint64
	Admitted    uint64 // delivered to a handler (processed + fault)
	Shed        uint64 // new flow refused by the degradation ladder
	Sampled     uint64 // dropped by tier-3 sampling
	RateLimited uint64 // refused by the global or per-prefix bucket
	Rejected    uint64 // quarantine drops, stall discards and rollbacks, scheduling errors

	// EstOffered/EstAdmitted count packets of flows the pipeline had
	// already admitted (including ones since quarantined) — the
	// denominator and numerator of the established-flow survival rate
	// the ladder exists to protect.
	EstOffered, EstAdmitted uint64
}

// Controller is the overload-control decision point. Offer and the
// bucket state are confined to the feeding goroutine; State, Tier,
// Transitions, and LedgerSnapshot are safe from any goroutine.
type Controller struct {
	cfg    Config
	global *Bucket
	prefix *PrefixLimiter

	state atomic.Int32
	tier  atomic.Int32

	// Rate estimation + state machine (Offer goroutine only).
	inited     bool
	winStart   int64
	winCount   int64
	ewma       float64
	stateSince int64
	sampleCtr  uint64

	// ledger: Offer counts what it is offered and the fates it decides;
	// the rest is read from the hosting pipeline (Attach).
	offered atomic.Uint64
	feeder  *Tally
	workers func() (fates Counts, established uint64)

	transitions atomic.Uint64
	mu          sync.Mutex // guards trans, hooks registration, and Attach against ledger reads
	trans       []Transition
	hooks       []func(tier int)
}

const transRing = 256

// NewController builds a controller and applies config defaults.
func NewController(cfg Config) *Controller {
	if cfg.Window <= 0 {
		cfg.Window = timer.Interval(100 * 1e6) // 100ms
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.3
	}
	if cfg.DegradedRatio <= 0 {
		cfg.DegradedRatio = 1.0
	}
	if cfg.SheddingRatio <= 0 {
		cfg.SheddingRatio = 1.5
	}
	if cfg.SamplingRatio <= 0 {
		cfg.SamplingRatio = 2.5
	}
	if cfg.RecoverRatio <= 0 {
		cfg.RecoverRatio = 0.85
	}
	if cfg.RecoverDwell <= 0 {
		cfg.RecoverDwell = timer.Seconds(3)
	}
	if cfg.SampleN < 2 {
		cfg.SampleN = 8
	}
	if cfg.Classify == nil {
		cfg.Classify = DefaultClassify
	}
	c := &Controller{cfg: cfg, feeder: new(Tally)}
	if cfg.GlobalRate > 0 {
		c.global = NewBucket(cfg.GlobalRate, cfg.GlobalBurst)
	}
	if cfg.PrefixRate > 0 {
		c.prefix = NewPrefixLimiter(cfg.PrefixRate, cfg.PrefixBurst, cfg.PrefixEntries)
	}
	c.register(cfg.Metrics)
	return c
}

// DefaultClassify is the default priority classifier: unkeyable frames
// are Low, DNS (port 53 either side) is High, the rest Normal.
func DefaultClassify(key flow.Key, hasKey bool) Class {
	if !hasKey {
		return Low
	}
	if key.SrcPort == 53 || key.DstPort == 53 {
		return High
	}
	return Normal
}

// Offer meters one packet arriving at trace time nowNs and decides its
// ingress fate. Call from exactly one goroutine (the pipeline's Feed).
func (c *Controller) Offer(nowNs int64, key flow.Key, hasKey bool) Decision {
	c.offered.Add(1)
	c.observe(nowNs)
	tier := int(c.tier.Load())
	class := c.cfg.Classify(key, hasKey)
	if c.global != nil && !c.global.Allow(nowNs) {
		c.feeder[FateRateLimited].Add(1)
		return Decision{Drop: true, Tier: tier, Class: class}
	}
	if c.prefix != nil && hasKey && !c.prefix.Allow(nowNs, key.SrcIP) {
		c.feeder[FateRateLimited].Add(1)
		return Decision{Drop: true, Tier: tier, Class: class}
	}
	if tier >= TierSampling && class != High {
		c.sampleCtr++
		if c.sampleCtr%uint64(c.cfg.SampleN) != 0 {
			c.feeder[FateSampled].Add(1)
			return Decision{Drop: true, Tier: tier, Class: class}
		}
	}
	return Decision{Tier: tier, Class: class}
}

// observe folds the packet into the rate estimate and, at window
// boundaries, advances the state machine. Trace-time driven: windows
// with no packets decay the EWMA when the next packet arrives.
func (c *Controller) observe(nowNs int64) {
	if c.cfg.TargetRate <= 0 {
		return
	}
	w := int64(c.cfg.Window)
	if !c.inited {
		c.inited = true
		c.winStart = nowNs
		c.stateSince = nowNs
	}
	c.winCount++
	gap := nowNs - c.winStart
	if gap < w {
		return
	}
	if k := gap / w; k > 64 {
		// A long silent stretch: the closed form of k decays is ~0.
		c.ewma = 0
		c.winStart = nowNs - w
		c.winCount = 1
	}
	for nowNs-c.winStart >= w {
		// The current packet belongs to a later window, so the completed
		// window held winCount-1 packets; empty intervening windows fold
		// in as zero-rate samples on subsequent iterations.
		inst := float64(c.winCount-1) * float64(nsPerSec) / float64(w)
		c.ewma = c.cfg.Alpha*inst + (1-c.cfg.Alpha)*c.ewma
		c.winStart += w
		c.winCount = 1
		c.evalState(c.winStart)
	}
}

// evalState applies the threshold/hysteresis rules at trace time atNs.
func (c *Controller) evalState(atNs int64) {
	r := c.ewma / c.cfg.TargetRate
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return
	}
	st := State(c.state.Load())
	next := st
	switch st {
	case Healthy:
		if r >= c.cfg.SheddingRatio {
			next = Shedding
		} else if r >= c.cfg.DegradedRatio {
			next = Degraded
		}
	case Degraded:
		switch {
		case r >= c.cfg.SheddingRatio:
			next = Shedding
		case r < c.cfg.RecoverRatio:
			next = Recovering
		}
	case Shedding:
		if r < c.cfg.RecoverRatio {
			next = Recovering
		}
	case Recovering:
		switch {
		case r >= c.cfg.DegradedRatio:
			next = Degraded
		case r < c.cfg.RecoverRatio && atNs-c.stateSince >= int64(c.cfg.RecoverDwell):
			next = Healthy
		}
	}
	tier := tierFor(next, r, c.cfg.SamplingRatio)
	if next == st && tier == int(c.tier.Load()) {
		return
	}
	if next != st {
		c.stateSince = atNs
	}
	c.state.Store(int32(next))
	c.tier.Store(int32(tier))
	c.transitions.Add(1)
	c.mu.Lock()
	c.trans = append(c.trans, Transition{AtNs: atNs, From: st, To: next, Tier: tier, Ratio: r})
	if len(c.trans) > transRing {
		c.trans = c.trans[len(c.trans)-transRing:]
	}
	hooks := c.hooks
	c.mu.Unlock()
	for _, h := range hooks {
		h(tier)
	}
}

// tierFor maps a state (plus the live ratio, for the sampling rung) to
// its ladder tier.
func tierFor(s State, ratio, samplingRatio float64) int {
	switch s {
	case Healthy:
		return TierNone
	case Degraded, Recovering:
		return TierShedLow
	case Shedding:
		if ratio >= samplingRatio {
			return TierSampling
		}
		return TierShrink
	}
	return TierNone
}

// OnTier registers a hook invoked (from the Offer goroutine) whenever
// the tier changes — the attachment point for reversible degradation
// actions owned elsewhere, like scaling a shared reassembly budget. The
// hook must be fast and non-blocking.
func (c *Controller) OnTier(fn func(tier int)) {
	c.mu.Lock()
	c.hooks = append(c.hooks, fn)
	c.mu.Unlock()
}

// Attach puts the controller on a pipeline's books: Offer's drops are
// counted into feeder (the pipeline's feeder-side tally, so a checkpoint of
// the pipeline carries them), workers reports the summed worker-side fates
// and how many delivered packets belonged to already-admitted flows, and
// offered is what those books say was offered so far — zero for a new
// pipeline, the checkpointed figure for a restored one. Call before the
// first Offer. Nil-safe.
func (c *Controller) Attach(feeder *Tally, offered uint64, workers func() (Counts, uint64)) {
	if c == nil {
		return
	}
	c.mu.Lock() // a metrics scrape may be reading the ledger already
	c.feeder, c.workers = feeder, workers
	c.mu.Unlock()
	c.offered.Store(offered)
}

// --- observability ----------------------------------------------------

// State returns the current operating state.
func (c *Controller) State() State {
	if c == nil {
		return Healthy
	}
	return State(c.state.Load())
}

// Tier returns the current degradation tier (0–3).
func (c *Controller) Tier() int {
	if c == nil {
		return TierNone
	}
	return int(c.tier.Load())
}

// Rate returns the current EWMA offered-rate estimate in packets/second.
// Read it from the Offer goroutine (or quiesced) for an exact value.
func (c *Controller) Rate() float64 { return c.ewma }

// LedgerSnapshot computes the ledger from the fate counters: the feeder
// side's, and when attached to a pipeline its workers'.
func (c *Controller) LedgerSnapshot() Ledger {
	if c == nil {
		return Ledger{}
	}
	c.mu.Lock()
	feeder, workers := c.feeder, c.workers
	c.mu.Unlock()
	f := feeder.Counts()
	var w Counts
	var est uint64
	if workers != nil {
		w, est = workers()
	}
	return Ledger{
		Offered:     c.offered.Load(),
		Admitted:    w[FateProcessed] + w[FateFault],
		Shed:        w[FateShed],
		Sampled:     f[FateSampled],
		RateLimited: f[FateRateLimited],
		Rejected:    w[FateQuarantineDrop] + w[FateDiscarded] + w[FateRolledBack] + f[FateUnscheduled],
		// A quarantined flow had been admitted once.
		EstOffered:  est + w[FateQuarantineDrop],
		EstAdmitted: est,
	}
}

// Balanced reports whether the accounting identity holds for l (true
// only once in-flight packets have drained).
func (l Ledger) Balanced() bool {
	return l.Offered == l.Admitted+l.Shed+l.Sampled+l.RateLimited+l.Rejected
}

// Transitions returns the retained transition log, oldest first (the
// last transRing entries).
func (c *Controller) Transitions() []Transition {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Transition, len(c.trans))
	copy(out, c.trans)
	return out
}

// register exports the controller through a metrics registry.
func (c *Controller) register(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCollector("admission", func(emit func(string, float64)) {
		l := c.LedgerSnapshot()
		emit("admission_offered_total", float64(l.Offered))
		emit("admission_admitted_total", float64(l.Admitted))
		emit("admission_shed_total", float64(l.Shed))
		emit("admission_sampled_total", float64(l.Sampled))
		emit("admission_rate_limited_total", float64(l.RateLimited))
		emit("admission_rejected_total", float64(l.Rejected))
		emit("admission_established_offered_total", float64(l.EstOffered))
		emit("admission_established_admitted_total", float64(l.EstAdmitted))
		emit("admission_state", float64(c.State()))
		emit("admission_tier", float64(c.Tier()))
		emit("admission_transitions_total", float64(c.transitions.Load()))
		emit("admission_ewma_rate", c.ewma)
		if c.prefix != nil {
			emit("admission_prefixes_tracked", float64(c.prefix.Prefixes()))
			emit("admission_prefix_evictions_total", float64(c.prefix.Evictions()))
		}
	})
}
