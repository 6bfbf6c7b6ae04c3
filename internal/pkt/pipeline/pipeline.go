// Package pipeline implements the flow-sharded parallel packet pipeline
// the paper's concurrency model prescribes (§3.2): decode a frame's L2–L4
// headers, hash the flow 5-tuple into a virtual-thread ID, and dispatch
// all per-flow work onto the rt/threads scheduler. Both directions of a
// connection hash identically (flow.Key.Hash canonicalizes), so every
// packet of a flow executes on the same hardware worker in arrival order —
// reassembly, protocol parsing, and event dispatch need no intra-flow
// locks — while distinct flows spread across workers.
//
// Isolation rules: frames are deep-copied before they cross into a worker
// (the feeding goroutine may reuse its buffer), and each worker owns its
// Handler exclusively — all Handler calls for worker i happen on worker
// i's goroutine, serialized.
//
// Fault containment: per-packet handler work runs inside a recover()
// boundary (rt/fault). A panic quarantines the offending flow — its later
// packets are counted and dropped, never re-delivered — while every other
// flow keeps processing; the paper's safety claim (§3) extended from VM
// exceptions to the host layers around it.
//
// Bounded state: MaxFlows caps the flow table. At the cap a new flow
// evicts the flow closest to its idle deadline (below tier 2, the least
// recently active), so steady-state memory is bounded under flow churn;
// refusing new flows is the admission ladder's job, not the cap's.
//
// Accounting: every packet Feed accepts ends in exactly one admission.Fate,
// applied and counted by settle — on the live path, in WAL replay and in
// stall recovery alike — so Ledger().Balanced() holds after any drain.
//
// Time: a worker's clock is the latest timestamp of its packets, so
// offline traces expire state exactly as live operation would: at packet
// entry it drops the flows past their idle deadline, earliest first, from
// two container.Tables, one per timeout (FlowIdle, halved at tier >= 2).
//
// Backpressure: Feed blocks once Ingress packets are in flight, bounding
// memory regardless of how unevenly flows hash across workers. Shutdown
// is ordered: Close drains all packet jobs, then runs each handler's
// Finish on its own worker, then stops the scheduler.
//
// Crash-only operation: Checkpoint serializes every shard — clock, flow
// table, counters, and (when the Handler implements Snapshotter) the
// handler's own analysis state — by quiescing each shard on its own
// worker, one at a time, while the others keep processing; it never stops
// the world. Restore rebuilds an equivalent pipeline from the stream. A
// shard with something to recover keeps a write-ahead log of the packets
// it ran since its last snapshot (wal.go), and restore runs them again: a
// checkpoint holds up to CheckpointEvery raw frames per shard, so payload
// bytes end up at rest. With StallTimeout set, a supervisor watches
// per-packet heartbeats: a worker wedged in a handler beyond the timeout
// is replaced by a fresh goroutine (threads.ReplaceWorker), its shard
// restored from its log up to the packet before the wedged one, and the
// offending flow quarantined like any faulted flow. Other shards never
// notice.
package pipeline

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/container"
	"hilti/internal/rt/fault"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/threads"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/wal"
)

// Handler processes the packets of one hardware worker. *bro.Engine
// satisfies it directly. All calls happen on the owning worker's
// goroutine, serialized; implementations need no locking.
type Handler interface {
	// ProcessPacket delivers one frame. The slice is the handler's to keep.
	ProcessPacket(tsNs int64, frame []byte)
	// Finish flushes end-of-trace state; it runs after the worker's last
	// packet, before Close returns.
	Finish()
}

// Snapshotter is optionally implemented by Handlers whose analysis state
// can be serialized (*bro.Engine implements it). Its shard's log records
// each packet the handler processed, and restore runs the handler on it
// again, so the handler's state after a packet must follow from its state
// before, the timestamp and the frame — which it must not write to.
//
// Rebase writes a full snapshot of now onto enc (an appender; after an
// error the caller discards what was written): the bytes RestoreHandler
// rebuilds the handler from. prev is what the previous Rebase on this
// handler wrote (nil: not available); the handler may copy out of it
// whatever has not changed since instead of encoding it again. A Rebase
// that fails leaves the previous one in force. ReplayPacket is
// ProcessPacket on a restored handler, with the handler's outside output
// muted. Unreplayable reports whether the packet ProcessPacket handled last
// read anything besides the handler's state, its timestamp and its frame
// (a wall clock, state other shards share); such a packet is never
// replayed. All calls run on the handler's own worker goroutine.
type Snapshotter interface {
	Rebase(enc *snapshot.Encoder, prev []byte) error
	ReplayPacket(tsNs int64, frame []byte)
	Unreplayable() bool
}

// Retirer is optionally implemented by Handlers that hold state shared
// beyond their shard (*bro.Engine: its share of a reassembly budget). When
// the supervisor has replaced a wedged worker and the abandoned job at
// last returns, the pipeline calls Retire on that job's handler, on its
// own goroutine; the handler is never called again.
type Retirer interface {
	Retire()
}

// FlowZapper is optionally implemented by Handlers that keep per-flow
// state. When a flow is quarantined after a fault, the pipeline calls
// ZapFlow so the handler discards the flow's (possibly corrupt) state
// without running its normal finalization — otherwise the end-of-trace
// flush could re-trip the same panic. Cap evictions do NOT zap: they shed
// only the pipeline's scheduling state, so handler output for long-lived
// clean flows is unaffected.
type FlowZapper interface {
	ZapFlow(key flow.Key)
}

// Config parameterizes a Pipeline.
type Config struct {
	// Workers is the number of hardware workers (default 1).
	Workers int
	// Ingress bounds in-flight packets; Feed blocks at the bound,
	// exerting backpressure toward the capture source (default 4096).
	Ingress int
	// FlowIdle expires a flow's scheduling state after this much packet
	// time without traffic (default 60s of trace time; half at tier >= 2).
	FlowIdle timer.Interval
	// MaxFlows caps flow-table entries across all workers (0 = unbounded).
	// The cap is split evenly per worker (floor, minimum 1 each), so the
	// effective global bound — EffectiveMaxFlows — is (MaxFlows/Workers)*
	// Workers, never below Workers. A positive MaxFlows below Workers is
	// ambiguous (the floor would silently RAISE the bound to Workers) and
	// is rejected by validation; use 0 for unbounded. At the cap a new
	// flow evicts the one nearest its idle deadline.
	MaxFlows int
	// FaultRing is how many recent faults each worker retains for
	// diagnosis (default 16); the total count is always exact.
	FaultRing int
	// NewHandler builds worker i's handler; required.
	NewHandler func(worker int) (Handler, error)

	// Admission, when set, puts the overload controller in front of the
	// pipeline. Feed consults it for every packet (on the feeding
	// goroutine, driven by trace time): rate-limited and sampled packets
	// are dropped at ingress, and the controller's degradation tier plus
	// the packet's priority class are captured with the job, so under
	// overload the admit path sheds new low-priority flows while
	// established flows keep full service. The controller's ledger becomes
	// a view of this pipeline's fate counters.
	Admission *admission.Controller

	// RulePlane, when set, evaluates the compiled match-action automaton
	// (classifier + filter + firewall programs in one walk) for every
	// keyable packet on the feeding goroutine, before the admission
	// controller and before the packet costs an ingress token or a copy.
	// A packet any gate program rejects is dropped at ingress
	// (admission.FatePlaneDrop). Running on the single feeder keeps
	// evaluation order — and therefore hot-swap shadow windows and their
	// ledgers — deterministic for a given trace, mirroring Admission.
	RulePlane *ruleplane.Plane

	// ExpireFlows forwards flow-idle expirations to the handler: when a
	// flow's idle deadline passes and the handler implements FlowZapper, the
	// flow's analysis state is zapped along with its scheduling state, so
	// shrinking idle deadlines (the tier-2 degradation) genuinely frees
	// memory. Off by default — zapping changes handler output for flows
	// that would have flushed state at end of trace.
	ExpireFlows bool

	// StallTimeout enables the hang supervisor: a worker that spends
	// longer than this wall-clock time inside one packet is declared
	// wedged, its goroutine replaced, its shard restored from its log up
	// to the packet before — replaying up to CheckpointEvery logged
	// packets through the handler — and the offending flow quarantined.
	// 0 disables supervision (the default). Size it well above the
	// worst-case legitimate per-packet work — which includes the shard
	// re-base, O(shard state) every CheckpointEvery packets — plus
	// scheduling jitter under load: a too-small value declares healthy
	// workers wedged, quarantining innocent flows.
	StallTimeout time.Duration
	// StallMaxReplaces bounds supervisor churn: more than this many
	// replacements of one worker within StallReplaceWindow sends the
	// worker slot to quarantine — the recovered shard discards its queue
	// for a cooldown (StallQuarantine, doubling per repeat offense) before
	// it serves packets again. Without the bound a handler that wedges on
	// every packet drives unbounded ReplaceWorker churn. Default 3.
	StallMaxReplaces int
	// StallReplaceWindow is the sliding window for StallMaxReplaces
	// (default 10x StallTimeout).
	StallReplaceWindow time.Duration
	// StallQuarantine is the base cooldown a repeatedly-wedging worker
	// slot spends discarding before reinstatement (default 32x
	// StallTimeout); it doubles with each quarantine, capped at 64x base.
	StallQuarantine time.Duration

	// CheckpointEvery is how many records a shard's log holds before the
	// shard re-bases onto a full snapshot (default 256): smaller bounds
	// replay — a restore runs the handler on up to this many logged
	// packets, whose frames a checkpoint holds raw — larger costs less.
	// After a gap the re-base waits with exponential packet-count backoff,
	// capped at 4096 packets, instead of running on every packet.
	CheckpointEvery int
	// RestoreHandler rebuilds worker i's handler from the bytes a
	// Snapshotter's Rebase wrote. Required for Restore and for
	// supervised recovery to preserve shard state (without it, a replaced
	// worker starts from a fresh NewHandler).
	RestoreHandler func(worker int, data []byte) (Handler, error)
	// FinalCheckpoint, when set, receives a full pipeline checkpoint
	// during Close, after all pending work drained and before handlers
	// finalize. Check FinalCheckpointErr after Close.
	FinalCheckpoint io.Writer

	// Deprecated: WAL has no effect. Every shard with something to recover
	// keeps a write-ahead log.
	WAL bool

	// Metrics, when set, wires the pipeline into the registry: per-shard
	// packet/byte/drop/quarantine/expiry counters and live queue depths are
	// emitted at scrape time (zero hot-path cost) and checkpoint latency is
	// recorded into a histogram. Handlers typically share the same registry.
	Metrics *metrics.Registry
}

// WorkerStats snapshots one worker's counters (per-worker observability:
// jobs run, queue high-water mark, copied bytes, flow expiry, and the
// fault-containment ledger). The packet counts are views of the worker's
// fate tally.
type WorkerStats struct {
	Packets      uint64 // packets processed (FateProcessed)
	CopiedBytes  uint64 // bytes deep-copied across the isolation boundary
	TimersFired  uint64 // idle expiries run: FlowsExpired, under its old name
	FlowsExpired uint64 // flows whose idle deadline passed
	Flows        uint64 // flow-state entries created
	LiveFlows    int64  // flow-table entries right now
	Jobs         uint64 // scheduler jobs executed (packets + sweeps)
	HighWater    int    // max scheduler backlog observed
	Backlog      int    // scheduler jobs queued right now
	Overflowed   uint64 // jobs that spilled into the overflow deque

	Faults            uint64 // faults recorded at this worker's boundaries (packet, zap, finish, stall), across its replacements
	QuarantinedFlows  uint64 // flows quarantined after a fault
	QuarantineDropped uint64 // packets dropped because their flow was quarantined (FateQuarantineDrop)
	FlowsEvicted      uint64 // flows evicted by the MaxFlows cap
	PacketsRejected   uint64 // packets discarded while the slot served a stall quarantine (FateDiscarded)
	PacketsShed       uint64 // new-flow packets refused by the degradation ladder (FateShed)
	TimersDropped     uint64 // flows still in the table at Close, whose idle deadline never came

	FlowCap            int    // effective per-worker flow cap (0 = unbounded)
	CheckpointFailures uint64 // log gaps opened: failed re-bases and records, unreplayable packets

	StallQuarantined  bool          // slot currently serving a stall quarantine
	CooldownRemaining time.Duration // time left in the quarantine cooldown (0 if none)
	Replacements      uint64        // supervisor goroutine replacements, lifetime
	StallQuarantines  uint64        // stall quarantines entered, lifetime
}

// wstate is worker-private: only jobs running on that worker touch it
// (the scheduler serializes them), so no locks — the HILTI isolation
// discipline. Counters are atomics only so Stats can read concurrently.
type wstate struct {
	worker      int
	now         timer.Time        // the shard clock: the latest packet time
	flows       [2]flowTable      // by admission.IdleShift; LastUse is the idle deadline
	cap         int               // per-worker flow cap (0 = unbounded)
	quarantined map[uint64]uint64 // faulted vid -> packets dropped since
	faults      *fault.Recorder
	owner       *wslot // back-pointer for idle-expiry zapping (ExpireFlows)

	fates admission.Tally // packets by terminal fate; settle is the only writer

	established      atomic.Uint64 // delivered packets whose flow was already in the table
	copiedBytes      atomic.Uint64
	flowsExpired     atomic.Uint64
	flowsSeen        atomic.Uint64
	quarantinedFlows atomic.Uint64
	flowsEvicted     atomic.Uint64
	timersDropped    atomic.Uint64
	liveFlows        atomic.Int64
	ckptFailures     atomic.Uint64
}

// persisted lists the counters, besides the fate tally, that a shard
// snapshot carries, in wire order; flows expired twice, once as timers fired.
func (ws *wstate) persisted() [8]*atomic.Uint64 {
	return [8]*atomic.Uint64{&ws.established, &ws.copiedBytes, &ws.flowsExpired, &ws.flowsExpired,
		&ws.flowsSeen, &ws.quarantinedFlows, &ws.flowsEvicted, &ws.timersDropped}
}

// flowState is a flow's scheduling state: the payload of its entry in a
// flow table, keyed by vid.
type flowState struct {
	key    flow.Key
	hasKey bool
}

type (
	flowTable = container.Table[uint64, flowState]
	flowEntry = container.Entry[uint64, flowState]
)

// find returns vid's flow, nil if absent, and the table it is in.
func (ws *wstate) find(vid uint64) (*flowTable, *flowEntry) {
	if en := ws.flows[0].Find(vid); en != nil {
		return &ws.flows[0], en
	}
	return &ws.flows[1], ws.flows[1].Find(vid)
}

// before reports whether full-timeout flow a precedes halved flow b; nil is last.
func before(a, b *flowEntry) bool { return b == nil || a != nil && a.LastUse <= b.LastUse }

// stalest returns the table whose head expiry and the cap take first.
func (ws *wstate) stalest() *flowTable {
	if before(ws.flows[0].Stalest(), ws.flows[1].Stalest()) {
		return &ws.flows[0]
	}
	return &ws.flows[1]
}

// eachQueued calls fn for every flow in the order expiry and the cap take
// them; fn must not change the tables.
func (ws *wstate) eachQueued(fn func(en *flowEntry)) {
	for a, b := ws.flows[0].Stalest(), ws.flows[1].Stalest(); a != nil || b != nil; {
		if before(a, b) {
			fn(a)
			a = a.Later()
		} else {
			fn(b)
			b = b.Later()
		}
	}
}

// drop removes vid's flow and returns it, nil if absent.
func (ws *wstate) drop(vid uint64) *flowEntry {
	tbl, en := ws.find(vid)
	if en != nil {
		tbl.Drop(en)
		ws.liveFlows.Add(-1)
	}
	return en
}

func (ws *wstate) flowCount() int { return ws.flows[0].Len() + ws.flows[1].Len() }

// wslot pairs one worker's state with its handler behind an atomic
// pointer, so the supervisor can swap in a rebuilt replacement while the
// old pair is abandoned to a wedged goroutine. Packet jobs load the slot
// at execution time; only the owning worker goroutine touches ws/h, while
// mu guards the small heartbeat window the supervisor reads.
type wslot struct {
	ws    *wstate
	h     Handler
	track bool // heartbeats on (supervised)

	mu        sync.Mutex
	busySince time.Time // zero = idle
	busyVID   uint64
	abandoned bool   // supervisor gave up on the in-flight job
	arrived   uint64 // packets this shard has been handed: its fates' sum plus the job in flight

	// The write-ahead log (wlog non-nil; see openLog): snap is the last
	// full shard snapshot (nil: none usable) and wlog the records appended
	// since; both under mu so the supervisor can compose a consistent
	// recovery blob while the worker appends. snap[snapH:] is the
	// handler's part, which its next Rebase patches; spare is the snapshot
	// before, which the next re-base overwrites; enc encodes every record
	// onto the log's tail. The last three worker-only. sn is the handler's
	// Snapshotter side, nil for a plain handler.
	sn    Snapshotter
	snap  []byte
	spare []byte
	wlog  *wal.Log
	snapH int
	enc   snapshot.Encoder

	pktSince int  // records since the last re-base; worker-only
	walGap   bool // records stopped; re-base pending; worker-only

	// Gap backoff (worker-only): after a failed re-base that leaves
	// records stopped, retries wait an exponentially growing packet count
	// (2^failN, capped at 4096) instead of every opportunity.
	ckptFailN uint
	gapSkip   int
}

func (sl *wslot) beginBusy(vid uint64) {
	sl.mu.Lock()
	sl.busySince = time.Now()
	sl.busyVID = vid
	sl.arrived++
	sl.mu.Unlock()
}

// endBusy clears the heartbeat and reports whether the job still owns its
// ingress token (false when the supervisor abandoned the job and took
// over the token).
func (sl *wslot) endBusy() bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.busySince = time.Time{}
	if sl.abandoned {
		sl.abandoned = false
		return false
	}
	return true
}

// Pipeline fans decoded packets out to flow-affine workers.
type Pipeline struct {
	cfg   Config
	sched *threads.Scheduler
	slots []atomic.Pointer[wslot]

	tokens chan struct{} // ingress bound; one token per in-flight packet
	closed atomic.Bool
	stopc  chan struct{} // closed once, by whichever of Close/Kill wins

	superWG  sync.WaitGroup
	restarts atomic.Uint64

	// Replacement-rate limiting, touched only by the supervisor goroutine
	// (except the two gauges, which Stats-side readers may load).
	repl       []replState
	health     []workerHealth // per-worker supervisor health, atomics for Stats
	workerQuar atomic.Int64   // worker slots currently in stall quarantine
	stallQuars atomic.Uint64  // stall quarantines entered, total

	// The feeder's half of the fate ledger: every packet Feed was handed,
	// and the ones Feed or the attached admission controller ended.
	offered atomic.Uint64
	feeder  admission.Tally

	ckptLat    *metrics.Histogram // full shard encode latency (nil-safe)
	rebaseLat  *metrics.Histogram // patching WAL re-base latency (nil-safe)
	recordLat  *metrics.Histogram // WAL record latency, one record in 64 (nil-safe)
	recordSize *metrics.Histogram // WAL record payload bytes, the same records (nil-safe)
	replayLat  *metrics.Histogram // latency of one record's replay on restore (nil-safe)

	planeVerdicts []int64 // feeder-goroutine scratch for RulePlane.Eval

	finalMu  sync.Mutex
	finalErr error
}

// New builds and starts a pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.NewHandler == nil {
		return nil, fmt.Errorf("pipeline: Config.NewHandler is required")
	}
	p, err := newPipeline(&cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		h, err := cfg.NewHandler(i)
		if err != nil {
			return nil, fmt.Errorf("pipeline: worker %d handler: %w", i, err)
		}
		sl := &wslot{ws: p.newWstate(i), h: h, track: cfg.StallTimeout > 0}
		sl.ws.owner = sl
		p.openLog(sl) // the scheduler isn't running yet: the handler is ours
		p.slots[i].Store(sl)
	}
	p.start()
	return p, nil
}

// newPipeline applies config defaults and builds the shell (no handlers,
// no scheduler yet). It normalizes cfg in place.
func newPipeline(cfg *Config) (*Pipeline, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxFlows > 0 && cfg.MaxFlows < cfg.Workers {
		return nil, fmt.Errorf("pipeline: MaxFlows %d < Workers %d is ambiguous: the per-worker floor of 1 would raise the effective cap to %d; set MaxFlows >= Workers, or 0 for unbounded",
			cfg.MaxFlows, cfg.Workers, cfg.Workers)
	}
	if cfg.Ingress < 1 {
		cfg.Ingress = 4096
	}
	if cfg.FlowIdle <= 0 {
		cfg.FlowIdle = timer.Seconds(60)
	}
	if cfg.CheckpointEvery < 1 {
		cfg.CheckpointEvery = 256
	}
	if cfg.StallTimeout > 0 {
		if cfg.StallMaxReplaces < 1 {
			cfg.StallMaxReplaces = 3
		}
		if cfg.StallReplaceWindow <= 0 {
			cfg.StallReplaceWindow = 10 * cfg.StallTimeout
		}
		if cfg.StallQuarantine <= 0 {
			cfg.StallQuarantine = 32 * cfg.StallTimeout
		}
	}
	p := &Pipeline{
		cfg:    *cfg,
		slots:  make([]atomic.Pointer[wslot], cfg.Workers),
		health: make([]workerHealth, cfg.Workers),
		tokens: make(chan struct{}, cfg.Ingress),
		stopc:  make(chan struct{}),
	}
	if cfg.RulePlane != nil {
		p.planeVerdicts = make([]int64, cfg.RulePlane.NumPrograms())
	}
	p.registerMetrics()
	return p, nil
}

func (p *Pipeline) newWstate(worker int) *wstate {
	capPer := 0
	if p.cfg.MaxFlows > 0 {
		if capPer = p.cfg.MaxFlows / p.cfg.Workers; capPer < 1 {
			capPer = 1
		}
	}
	return &wstate{
		worker:      worker,
		flows:       [2]flowTable{container.MakeTable[uint64, flowState](), container.MakeTable[uint64, flowState]()},
		cap:         capPer,
		quarantined: map[uint64]uint64{},
		faults:      fault.NewRecorder(p.cfg.FaultRing),
	}
}

// start puts the admission controller on this pipeline's books, launches
// the scheduler and, when supervised, the stall watchdog.
func (p *Pipeline) start() {
	gated := p.feeder[admission.FatePlaneDrop].Load() // gate drops precede Offer
	p.cfg.Admission.Attach(&p.feeder, p.offered.Load()-gated, p.workerFates)
	p.sched = threads.NewScheduler(p.cfg.Workers)
	if p.cfg.StallTimeout > 0 {
		p.repl = make([]replState, p.cfg.Workers)
		p.superWG.Add(1)
		go p.supervise()
	}
}

// Workers returns the worker count.
func (p *Pipeline) Workers() int { return p.cfg.Workers }

// EffectiveMaxFlows is the flow-table bound actually enforced:
// (MaxFlows/Workers)*Workers, the per-worker floor division made
// explicit. 0 means unbounded.
func (p *Pipeline) EffectiveMaxFlows() int {
	if p.cfg.MaxFlows <= 0 {
		return 0
	}
	capPer := p.cfg.MaxFlows / p.cfg.Workers
	if capPer < 1 {
		capPer = 1
	}
	return capPer * p.cfg.Workers
}

// Restarts returns how many wedged workers the supervisor has replaced.
func (p *Pipeline) Restarts() uint64 { return p.restarts.Load() }

// RulePlane returns the shared rule plane, nil when not configured. Use
// it for hot reloads: RulePlane().Swap installs a new rule set under
// live traffic.
func (p *Pipeline) RulePlane() *ruleplane.Plane { return p.cfg.RulePlane }

// PlaneDropped returns how many packets the rule plane's gate programs
// dropped at ingress.
func (p *Pipeline) PlaneDropped() uint64 { return p.feeder[admission.FatePlaneDrop].Load() }

// Fed returns the number of packets Feed routed to a worker: those offered
// that the feeder side did not end itself.
func (p *Pipeline) Fed() uint64 {
	ended := p.feeder.Counts().Sum() // before offered, so the difference never underflows
	return p.offered.Load() - ended
}

// Ledger is the packet-fate ledger: every packet Feed was handed is in
// exactly one fate or still in flight.
type Ledger struct {
	Offered  uint64
	InFlight uint64 // ingress tokens held: queued or executing packet jobs
	Fates    admission.Counts
}

// Balanced reports whether the ledger accounts for every offered packet.
func (l Ledger) Balanced() bool { return l.Offered == l.Fates.Sum()+l.InFlight }

// Ledger sums the feeder's and every worker's fate tally; exact once the
// pipeline is quiescent. A restored pipeline continues the checkpointed one.
func (p *Pipeline) Ledger() Ledger {
	w, _ := p.workerFates()
	return Ledger{
		Offered:  p.offered.Load(),
		InFlight: uint64(len(p.tokens)),
		Fates:    w.Plus(p.feeder.Counts()),
	}
}

// workerFates sums the worker-side tallies, and the established-flow
// deliveries the admission controller's survival figures need.
func (p *Pipeline) workerFates() (fates admission.Counts, established uint64) {
	for i := range p.slots {
		ws := p.slots[i].Load().ws
		fates = fates.Plus(ws.fates.Counts())
		established += ws.established.Load()
	}
	return fates, established
}

// FinalCheckpointErr reports whether the graceful-drain checkpoint that
// Close writes to Config.FinalCheckpoint succeeded. Valid after Close.
func (p *Pipeline) FinalCheckpointErr() error {
	p.finalMu.Lock()
	defer p.finalMu.Unlock()
	return p.finalErr
}

// ErrClosed reports a call on a closed pipeline.
var ErrClosed = errors.New("pipeline: closed")

// Feed routes one frame to its flow's worker and blocks while Ingress
// packets are already in flight. The frame is deep-copied; the caller may
// reuse the buffer. Feed is single-producer: call it from one goroutine.
func (p *Pipeline) Feed(tsNs int64, frame []byte) error {
	if p.closed.Load() {
		return ErrClosed
	}
	p.offered.Add(1)
	// The virtual-thread ID is the flow hash (§3.2). Unkeyable frames
	// share vthread 0 so handlers still observe them, deterministically.
	var vid uint64
	key, hasKey := flow.FromFrame(frame)
	if hasKey {
		vid = key.Hash()
	}
	// The rule plane evaluates on the single feeding goroutine too: one
	// automaton walk answers every hosted program, and a gate rejection
	// drops the packet before it costs anything downstream.
	if rp := p.cfg.RulePlane; rp != nil && hasKey {
		h := ruleplane.HeaderFrom16(key.SrcIP, key.DstIP, key.Proto, key.SrcPort, key.DstPort)
		if _, drop := rp.Eval(&h, p.planeVerdicts); drop {
			p.feeder[admission.FatePlaneDrop].Add(1)
			return nil
		}
	}
	// The overload controller runs here, on the single feeding goroutine
	// and in trace time, so its decisions are deterministic for a given
	// input. Tier and class are captured with the job; the worker-side
	// admit path applies them without re-consulting mutable state.
	var dec admission.Decision
	if adm := p.cfg.Admission; adm != nil {
		dec = adm.Offer(tsNs, key, hasKey)
		if dec.Drop {
			// Offer counted the fate (rate-limited or sampled); dropped
			// before it costs an ingress token or a copy.
			return nil
		}
	}
	p.tokens <- struct{}{} // backpressure: wait for an in-flight slot
	cp := make([]byte, len(frame))
	copy(cp, frame)
	worker := p.sched.WorkerIndex(vid)
	err := p.sched.Schedule(vid, func(ctx *threads.Context) {
		// Load the slot at execution time: the supervisor may have
		// replaced the worker since this job was queued.
		p.runPacket(p.slots[worker].Load(), ctx, tsNs, cp, key, hasKey, dec)
	})
	if err != nil {
		<-p.tokens
		p.feeder[admission.FateUnscheduled].Add(1)
		return err
	}
	return nil
}

// runPacket is the worker half of a packet's journey: advance the shard's
// clock, find the packet's fate, settle it, log it. Runs on the owning
// worker goroutine.
func (p *Pipeline) runPacket(sl *wslot, ctx *threads.Context, tsNs int64, cp []byte, key flow.Key, hasKey bool, dec admission.Decision) {
	if sl.track {
		sl.beginBusy(ctx.VID)
	}
	// An abandoned job's ingress token is the supervisor's to release,
	// and its handler has been replaced.
	defer func() {
		if !sl.track || sl.endBusy() {
			<-p.tokens
		} else if r, ok := sl.h.(Retirer); ok {
			r.Retire()
		}
	}()
	ws := sl.ws
	p.advanceWorkerTime(ws, tsNs)
	fate := admission.FateDiscarded
	if !p.health[ctx.Worker].quarantined.Load() {
		fate = p.deliver(sl, ctx, tsNs, cp, key, hasKey, dec)
	}
	p.settle(ws, fate, ctx.VID, 1, len(cp))
	p.walRecord(sl, tsNs, ctx.VID, key, hasKey, cp, dec.Tier, fate)
}

// deliver takes one packet through the worker-side stages — quarantine
// check, flow admission, handler — and names the fate it ended in; the
// fate's own state transition is settle's.
func (p *Pipeline) deliver(sl *wslot, ctx *threads.Context, tsNs int64, cp []byte, key flow.Key, hasKey bool, dec admission.Decision) admission.Fate {
	ws := sl.ws
	if _, bad := ws.quarantined[ctx.VID]; bad {
		return admission.FateQuarantineDrop
	}
	if !p.admitFlow(ws, ctx.VID, key, hasKey, tsNs, dec.Tier, admission.ShedNewFlow(dec.Tier, dec.Class)) {
		return admission.FateShed
	}
	if f := fault.Catch("packet", func() { sl.h.ProcessPacket(tsNs, cp) }); f != nil {
		f.Worker, f.VID, f.TsNs = ctx.Worker, ctx.VID, tsNs
		ws.faults.Record(f)
		return admission.FateFault
	}
	return admission.FateProcessed
}

// settle ends n packets' journey on shard ws: it performs fate's state
// transition and counts them under it — the only writer of ws.fates and
// the only place a flow is quarantined. The live job calls it with the
// fate deliver found, WAL replay with the fate the record carries, stall
// recovery with FateRolledBack for the wedged flow and the work lost.
func (p *Pipeline) settle(ws *wstate, fate admission.Fate, vid uint64, n uint64, frameLen int) {
	switch fate {
	case admission.FateProcessed:
		ws.copiedBytes.Add(uint64(frameLen))
	case admission.FateQuarantineDrop:
		ws.quarantined[vid]++
	case admission.FateFault, admission.FateRolledBack:
		// Quarantine the flow: later packets are counted and dropped, its
		// table entry goes, and the handler discards its (possibly corrupt)
		// state so the end-of-trace flush cannot re-trip the fault.
		ws.quarantined[vid] = 0
		ws.quarantinedFlows.Add(1)
		if en := ws.drop(vid); en != nil {
			p.zapFlow(ws, en)
		}
	}
	ws.fates[fate].Add(n)
}

// zapFlow lets a FlowZapper handler discard a flow's analysis state. A
// shard without an owner (one being decoded) is not zapped; one replaying
// its log is, as it was live.
func (p *Pipeline) zapFlow(ws *wstate, en *flowEntry) {
	if !en.V.hasKey || ws.owner == nil {
		return
	}
	if z, ok := ws.owner.h.(FlowZapper); ok {
		if zf := fault.Catch("zap", func() { z.ZapFlow(en.V.key) }); zf != nil {
			zf.Worker, zf.VID = ws.worker, en.Key()
			ws.faults.Record(zf)
		}
	}
}

// advanceWorkerTime moves the shard clock to tsNs, if later, and expires
// every flow whose idle deadline it reached, earliest first; with
// ExpireFlows, zapping its handler state too (on the worker goroutine,
// between packets, where the handler is safe to touch).
func (p *Pipeline) advanceWorkerTime(ws *wstate, tsNs int64) {
	ws.now = max(ws.now, timer.Time(tsNs))
	for en := ws.stalest().PopDue(ws.now); en != nil; en = ws.stalest().PopDue(ws.now) {
		ws.liveFlows.Add(-1)
		ws.flowsExpired.Add(1)
		if p.cfg.ExpireFlows {
			p.zapFlow(ws, en)
		}
	}
}

// admitFlow creates or refreshes the flow's scheduling state and reports
// whether the packet was admitted. shedNew refuses a flow not yet in the
// table (the one refusal); at the cap a new flow evicts another. Tier >= 2
// halves the idle deadline so flow state drains faster; established flows
// refresh at any tier (runs on the worker goroutine).
func (p *Pipeline) admitFlow(ws *wstate, vid uint64, key flow.Key, hasKey bool, tsNs int64, tier int, shedNew bool) bool {
	shift := admission.IdleShift(tier)
	deadline := timer.Time(tsNs) + timer.Time(p.cfg.FlowIdle>>shift)
	to := &ws.flows[shift]
	if tbl, en := ws.find(vid); en != nil {
		if tbl == to {
			tbl.Touch(en, deadline, false)
		} else {
			tbl.Drop(en)
			to.Queue(to.Add(vid, deadline, en.V), false)
		}
		ws.established.Add(1)
		return true
	}
	if shedNew {
		return false
	}
	ws.makeRoom()
	to.Queue(to.Add(vid, deadline, flowState{key: key, hasKey: hasKey}), false)
	ws.flowsSeen.Add(1)
	ws.liveFlows.Add(1)
	return true
}

// makeRoom evicts the flow nearest its idle deadline if ws is at its cap.
func (ws *wstate) makeRoom() {
	if ws.cap > 0 && ws.flowCount() >= ws.cap {
		ws.drop(ws.stalest().Stalest().Key())
		ws.flowsEvicted.Add(1)
	}
}

// Close drains in-flight packets, optionally emits the graceful-drain
// checkpoint, runs every handler's Finish on its own worker, and shuts
// the scheduler down. The ordering is strict: no Finish runs before the
// last packet job of its worker, and Close returns only after all workers
// stopped. A Finish panic is contained and recorded like any packet
// fault; the remaining workers still flush. Close is idempotent — later
// calls (and Close after Kill) return immediately.
func (p *Pipeline) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	// Drain with the supervisor still running: a flow that wedges its
	// worker while the queue empties is recovered like any other stall,
	// so a hostile last packet cannot turn graceful drain into a hang.
	p.sched.Drain()
	close(p.stopc)
	p.superWG.Wait()
	p.sched.Drain()
	if p.cfg.FinalCheckpoint != nil {
		err := p.checkpoint(p.cfg.FinalCheckpoint)
		p.finalMu.Lock()
		p.finalErr = err
		p.finalMu.Unlock()
	}
	for i := range p.slots {
		i := i
		// vid i maps to worker i (modulo routing), and per-worker FIFO
		// ordering puts this after every already-queued packet job.
		p.sched.Schedule(uint64(i), func(*threads.Context) { //nolint:errcheck
			sl := p.slots[i].Load()
			sl.ws.timersDropped.Add(uint64(sl.ws.flowCount()))
			if f := fault.Catch("finish", sl.h.Finish); f != nil {
				f.Worker = i
				sl.ws.faults.Record(f)
			}
		})
	}
	p.sched.Drain()
	p.sched.Shutdown()
}

// Kill tears the pipeline down without finalizing handlers: queued packet
// jobs still drain (shards stay consistent), but no Finish runs and no
// end-of-trace output is produced — the crash half of a checkpoint/Kill/
// Restore cycle. Idempotent, and interchangeable with Close (first wins).
func (p *Pipeline) Kill() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	p.sched.Drain() // supervisor still live: see Close
	close(p.stopc)
	p.superWG.Wait()
	p.sched.Drain()
	p.sched.Shutdown()
}

// --- checkpoint / restore -------------------------------------------------------

// Checkpoint serializes the feeder's half of the fate ledger and every
// shard to w. Each shard is captured by a job on its own worker — quiescing
// that shard only, between its packets — so checkpointing never stops the
// world; workers keep processing while others snapshot. Call any time
// before Close/Kill; from the feeding goroutine the cut is exact.
func (p *Pipeline) Checkpoint(w io.Writer) error {
	if p.closed.Load() {
		return ErrClosed
	}
	return p.checkpoint(w)
}

func (p *Pipeline) checkpoint(w io.Writer) error {
	n := len(p.slots)
	offered, feeder := p.offered.Load(), p.feeder.Counts()
	blobs := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		err := p.sched.Schedule(uint64(i), func(*threads.Context) {
			defer wg.Done()
			blobs[i], errs[i] = p.shardBlob(p.slots[i].Load())
		})
		if err != nil {
			wg.Done()
			errs[i] = err
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("pipeline: shard %d: %w", i, err)
		}
	}
	enc := snapshot.NewEncoder(w)
	enc.U32(uint32(n))
	enc.U64(offered)
	for _, c := range feeder {
		enc.U64(c)
	}
	for _, b := range blobs {
		enc.Bytes(b)
	}
	return enc.Err()
}

// encodeShard serializes one worker's shard into buf's storage: clock,
// fate tally (in Fate order), the other counters, quarantine set, flow
// table (expiry order), and the handler's state when it implements
// Snapshotter — through Rebase, which may patch prevH, the handler's part
// of the previous snapshot; hoff is where that part starts in the new one.
// A full encode's latency is the checkpoint histogram's sample — what an
// operator sizing StallTimeout needs to see; a patching re-base has its
// own. Runs on the owning worker goroutine.
func (p *Pipeline) encodeShard(sl *wslot, prevH, buf []byte) (blob []byte, hoff int, err error) {
	lat := p.ckptLat
	if prevH != nil {
		lat = p.rebaseLat
	}
	defer func(start time.Time) { lat.Observe(time.Since(start).Nanoseconds()) }(time.Now())
	ws := sl.ws
	// The shard will be about as large as last time.
	if cap(buf) < len(sl.snap)+512 {
		buf = make([]byte, 0, len(sl.snap)+len(sl.snap)/8+512)
	}
	enc := snapshot.NewAppender(buf[:0])
	enc.Header()
	enc.I64(int64(ws.now))
	for _, c := range ws.fates.Counts() {
		enc.U64(c)
	}
	for _, c := range ws.persisted() {
		enc.U64(c.Load())
	}

	enc.U32(uint32(len(ws.quarantined)))
	qvids := make([]uint64, 0, len(ws.quarantined))
	for vid := range ws.quarantined {
		qvids = append(qvids, vid)
	}
	sort.Slice(qvids, func(i, j int) bool { return qvids[i] < qvids[j] })
	for _, vid := range qvids {
		encodeQuar(enc, QuarMark{VID: vid, Dropped: ws.quarantined[vid]})
	}

	enc.U32(uint32(ws.flowCount()))
	ws.eachQueued(func(en *flowEntry) { encodeSched(enc, sched(en)) })

	enc.Bool(sl.sn != nil)
	if sl.sn != nil {
		hoff = enc.Begin()
		err = sl.sn.Rebase(enc, prevH)
		enc.End(hoff)
	}
	if err = errors.Join(err, enc.Err()); err != nil {
		return nil, 0, err
	}
	return enc.Buffer(), hoff, nil
}

// decodeShard rebuilds ws from an encodeShard blob and returns the
// handler checkpoint blob (nil if the handler wasn't a Snapshotter). It
// refuses a flow table that lists a vid twice.
func (p *Pipeline) decodeShard(ws *wstate, blob []byte) ([]byte, bool, error) {
	dec := snapshot.NewDecoder(blob)
	ws.now = timer.Time(dec.I64())
	ws.fates.Set(decodeCounts(dec))
	for _, c := range ws.persisted() {
		c.Store(dec.U64())
	}

	nq := dec.Len(quarSize)
	for i := 0; i < nq && dec.Err() == nil; i++ {
		q := decodeQuar(dec)
		ws.quarantined[q.VID] = q.Dropped
	}

	nf := dec.Len(schedSize)
	for i := 0; i < nf && dec.Err() == nil; i++ {
		if sf := decodeSched(dec); dec.Err() == nil {
			if _, en := ws.find(sf.VID); en != nil {
				return nil, false, fmt.Errorf("pipeline: flow table lists vid %d twice", sf.VID)
			}
			addFlow(ws, sf)
		}
	}

	hasH := dec.Bool()
	var hb []byte
	if hasH {
		hb = dec.Bytes()
	}
	return hb, hasH, dec.Err()
}

func decodeCounts(dec *snapshot.Decoder) (c admission.Counts) {
	for f := range c {
		c[f] = dec.U64()
	}
	return c
}

// Restore rebuilds a pipeline from a Checkpoint stream. cfg.RestoreHandler
// is required; shards whose handler state was checkpointed are rebuilt
// through it, others get cfg.NewHandler. The worker count must match the
// checkpoint's (flow→worker routing depends on it); leave cfg.Workers 0
// to adopt it.
func Restore(cfg Config, r io.Reader) (*Pipeline, error) {
	if cfg.RestoreHandler == nil {
		return nil, fmt.Errorf("pipeline: Config.RestoreHandler is required for Restore")
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	dec := snapshot.NewDecoder(data)
	nw := dec.Len(1)
	offered, feeder := dec.U64(), decodeCounts(dec)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if nw < 1 {
		return nil, fmt.Errorf("pipeline: checkpoint has no workers")
	}
	if cfg.Workers != 0 && cfg.Workers != nw {
		return nil, fmt.Errorf("pipeline: checkpoint has %d workers, config wants %d (flow sharding depends on it)", nw, cfg.Workers)
	}
	cfg.Workers = nw
	p, err := newPipeline(&cfg)
	if err != nil {
		return nil, err
	}
	p.offered.Store(offered)
	p.feeder.Set(feeder)
	for i := 0; i < nw; i++ {
		blob := dec.Bytes()
		if err := dec.Err(); err != nil {
			return nil, err
		}
		sl, err := p.restoreSlotFromBlob(i, blob)
		if err != nil {
			return nil, fmt.Errorf("pipeline: shard %d: %w", i, err)
		}
		p.openLog(sl)
		p.slots[i].Store(sl)
	}
	p.start()
	return p, nil
}

// --- stall supervisor -----------------------------------------------------------

// supervise watches per-worker heartbeats and replaces wedged workers.
func (p *Pipeline) supervise() {
	defer p.superWG.Done()
	tick := p.cfg.StallTimeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.stopc:
			return
		case <-t.C:
			for i := range p.slots {
				p.checkStall(i)
			}
		}
	}
}

// workerHealth is one worker slot's supervision record: whether it is
// serving a stall quarantine (and until when), plus lifetime replacement
// and quarantine counts. Written only by the supervisor goroutine;
// atomics let Stats and the metrics collector read concurrently. Unlike
// the shard counters in wstate, this state belongs to the *slot*, not the
// shard, so it survives slot rebuilds — and because it is derived from
// supervision events rather than analysis state, it is deliberately not
// checkpointed: a restored pipeline starts with a clean health record.
type workerHealth struct {
	quarantined   atomic.Bool   // packet jobs settle as FateDiscarded, short of the handler
	cooldownUntil atomic.Int64  // quarantine end, wall-clock ns (0 when healthy)
	replacements  atomic.Uint64 // fresh slots installed for this worker, total
	quarantines   atomic.Uint64 // stall quarantines this worker has entered
}

// replState is the supervisor's per-worker replacement-rate bookkeeping;
// only the supervisor goroutine touches it.
type replState struct {
	times []time.Time // replacements within the sliding window
	quarN uint        // quarantines served; doubles the cooldown, capped
}

// checkStall replaces worker i if its current packet has been executing
// longer than StallTimeout. The wedged goroutine is abandoned (it exits
// if the job ever returns), the shard is rebuilt from its last snapshot
// plus every record logged since — the packet before the wedged one —
// and the offending flow is quarantined so its later packets cannot wedge
// the replacement too.
//
// Replacement-rate limit: a worker replaced more than StallMaxReplaces
// times within StallReplaceWindow stops serving — the recovered shard
// discards its queue (FateDiscarded) for a quarantine cooldown, doubling
// per repeat offense, and serves again afterwards, so a handler that
// wedges on every packet converges to quarantine instead of unbounded
// ReplaceWorker churn.
//
// The abandoned shard's tally goes with it; whatever the slot had been
// handed that the recovered shard's tally lacks is settled as rolled back.
func (p *Pipeline) checkStall(i int) {
	r, h := &p.repl[i], &p.health[i]
	now := time.Now()
	if h.quarantined.Load() {
		if now.UnixNano() >= h.cooldownUntil.Load() {
			r.times = r.times[:0]
			p.workerQuar.Add(-1)
			h.cooldownUntil.Store(0)
			h.quarantined.Store(false)
		}
		return // until then the slot discards its queue
	}
	sl := p.slots[i].Load()
	sl.mu.Lock()
	stuck := sl.track && !sl.abandoned && !sl.busySince.IsZero() &&
		time.Since(sl.busySince) > p.cfg.StallTimeout
	var vid, arrived uint64
	var blob []byte
	if stuck {
		sl.abandoned = true
		vid, arrived = sl.busyVID, sl.arrived
		if sl.snap != nil {
			blob = composeShardBlob(sl.snap, sl.wlog.Segments())
		}
	}
	sl.mu.Unlock()
	if !stuck {
		return
	}

	// Slide the replacement window; over the limit, quarantine the slot.
	cutoff := now.Add(-p.cfg.StallReplaceWindow)
	keep := r.times[:0]
	for _, t := range r.times {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	r.times = append(keep, now)
	nsl := p.rebuildSlot(i, sl.ws.faults, vid, blob, arrived)
	if len(r.times) > p.cfg.StallMaxReplaces {
		if r.quarN < 6 {
			r.quarN++
		}
		p.workerQuar.Add(1)
		p.stallQuars.Add(1)
		h.cooldownUntil.Store(now.Add(p.cfg.StallQuarantine << (r.quarN - 1)).UnixNano())
		h.quarantined.Store(true)
		h.quarantines.Add(1)
		nsl.ws.faults.Record(&fault.Fault{Op: "stall-quarantine", Worker: i, VID: vid,
			Value: "replacement rate limit hit; shard discarding until cooldown"})
	}

	// Build and publish the replacement slot BEFORE swapping goroutines:
	// queued jobs load the slot at execution time, so the new goroutine
	// must never see the abandoned handler.
	p.slots[i].Store(nsl)
	if p.sched.ReplaceWorker(i) {
		p.restarts.Add(1)
		h.replacements.Add(1)
	}
	// The stalled packet's ingress token is now the supervisor's to
	// release: endBusy saw abandoned and left it (whether the job was
	// truly wedged or finished just as we marked it), so the channel holds
	// it and the receive cannot block.
	<-p.tokens
}

// StallQuarantines reports how many times the supervisor's replacement
// rate limit sent a worker slot to quarantine.
func (p *Pipeline) StallQuarantines() uint64 { return p.stallQuars.Load() }

// QuarantinedWorkers reports how many worker slots are currently serving
// a stall-quarantine cooldown (their queues drain as FateDiscarded).
func (p *Pipeline) QuarantinedWorkers() int { return int(p.workerQuar.Load()) }

// rebuildSlot constructs worker i's replacement: shard state restored
// from its log when possible (else fresh), the wedged flow quarantined
// with the arrived packets that state lacks settled as rolled back, the
// stall recorded in the fault ledger, and a log based on the result. The
// ledger is faults, the abandoned slot's, so the worker's fault history
// survives the replacement; what replaying the log records again goes to
// the restored shard's own, which is dropped. A late fault of the
// abandoned job may still land in faults: a Recorder takes concurrent
// records.
func (p *Pipeline) rebuildSlot(i int, faults *fault.Recorder, vid uint64, blob []byte, arrived uint64) *wslot {
	var sl *wslot
	if blob != nil {
		if nsl, err := p.restoreSlotFromBlob(i, blob); err == nil {
			sl = nsl
		}
	}
	if sl == nil {
		nh, err := p.cfg.NewHandler(i)
		if err != nil {
			// Last resort: a handler that drops everything; the shard is
			// lost but the pipeline survives.
			nh = discardHandler{}
		}
		sl = &wslot{ws: p.newWstate(i), h: nh}
		sl.ws.owner = sl
	}
	sl.track = true

	ws := sl.ws
	ws.faults = faults
	p.settle(ws, admission.FateRolledBack, vid, arrived-ws.fates.Counts().Sum(), 0)
	sl.arrived = arrived
	ws.faults.Record(&fault.Fault{Op: "stall", Worker: i, VID: vid, Value: "worker exceeded StallTimeout; replaced from its log"})
	// The base follows the quarantine marks (and any zap), so replay never
	// starts from a snapshot that lacks them.
	p.openLog(sl)
	return sl
}

// discardHandler is the stand-in when a replacement handler cannot be
// built; it keeps the shard's queue draining.
type discardHandler struct{}

func (discardHandler) ProcessPacket(int64, []byte) {}
func (discardHandler) Finish()                     {}

// --- observability --------------------------------------------------------------

// Stats snapshots per-worker counters, merging pipeline- and
// scheduler-level views. Exact after Close (or a quiescent Drain).
func (p *Pipeline) Stats() []WorkerStats {
	sched := p.sched.WorkerStats()
	out := make([]WorkerStats, len(p.slots))
	for i := range p.slots {
		ws := p.slots[i].Load().ws
		fates := ws.fates.Counts()
		out[i] = WorkerStats{
			Packets:           fates[admission.FateProcessed],
			CopiedBytes:       ws.copiedBytes.Load(),
			TimersFired:       ws.flowsExpired.Load(),
			FlowsExpired:      ws.flowsExpired.Load(),
			Flows:             ws.flowsSeen.Load(),
			LiveFlows:         ws.liveFlows.Load(),
			Jobs:              sched[i].Jobs,
			HighWater:         sched[i].HighWater,
			Backlog:           sched[i].Backlog,
			Overflowed:        sched[i].Overflowed,
			Faults:            ws.faults.Count(),
			QuarantinedFlows:  ws.quarantinedFlows.Load(),
			QuarantineDropped: fates[admission.FateQuarantineDrop],
			FlowsEvicted:      ws.flowsEvicted.Load(),
			PacketsRejected:   fates[admission.FateDiscarded],
			PacketsShed:       fates[admission.FateShed],
			TimersDropped:     ws.timersDropped.Load(),

			FlowCap:            ws.cap,
			CheckpointFailures: ws.ckptFailures.Load(),

			StallQuarantined: p.health[i].quarantined.Load(),
			Replacements:     p.health[i].replacements.Load(),
			StallQuarantines: p.health[i].quarantines.Load(),
		}
		if until := p.health[i].cooldownUntil.Load(); until > 0 {
			if rem := time.Until(time.Unix(0, until)); rem > 0 {
				out[i].CooldownRemaining = rem
			}
		}
	}
	return out
}

// FlowTableSize is the current number of flow-table entries across all
// workers; safe to call concurrently with processing.
func (p *Pipeline) FlowTableSize() int {
	var n int64
	for i := range p.slots {
		n += p.slots[i].Load().ws.liveFlows.Load()
	}
	return int(n)
}

// Faults returns the retained faults of every worker, in worker order
// (oldest first within a worker). Exact after Close or a quiescent Drain.
// A supervised restart hands the abandoned worker's ledger to its
// replacement, which records the stall in it, so a worker's history
// spans its replacements. A restore in a new process (Restore) starts
// every worker's ledger empty: a checkpoint carries no faults.
func (p *Pipeline) Faults() []*fault.Fault {
	var out []*fault.Fault
	for i := range p.slots {
		out = append(out, p.slots[i].Load().ws.faults.Faults()...)
	}
	return out
}
