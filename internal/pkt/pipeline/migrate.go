// Live flow-state migration: the pipeline side of the elastic-cluster
// handoff protocol (internal/rt/migrate). A migration moves a *slice* of
// flows — everything a routing bucket selects — from this pipeline to
// another instance. The pipeline contributes three quiesced, worker-local
// operations: ExtractFlows peeks the slice's state without disturbing it
// (the source retains ownership until the target acks), InjectFlows
// installs a shipped slice, and ForgetFlows releases the slice after a
// committed handoff. Each runs as a job on the owning worker's virtual
// thread, exactly like Checkpoint: per-shard quiesce, no stop-the-world.
//
// Flow enumeration is handler-first: the handler (the analysis engine)
// can hold per-flow state for flows whose pipeline scheduling entry is
// long gone — cap evictions and idle expiry drop the flowState while the
// analyzer keeps the connection. Migrating only the pipeline's flow table
// would split such sessions across instances and diverge their logs, so
// the slice is the union of handler flows and scheduler-only entries.
package pipeline

import (
	"errors"
	"fmt"
	"sort"

	"hilti/internal/pkt/flow"
	"hilti/internal/rt/threads"
	"hilti/internal/rt/timer"
)

// MigratableHandler is the handler contract for live migration: per-flow
// state can be enumerated, extracted (peek), injected, and forgotten.
// All calls arrive on the owning worker goroutine. Extract/Inject/Forget
// must be counter-neutral — a migrated flow was opened on its first
// instance and will close on its last; neither end counts it twice.
type MigratableHandler interface {
	MigratableFlows() []flow.Key
	ExtractFlow(key flow.Key) ([]byte, error)
	InjectFlow(blob []byte) (flow.Key, error)
	ForgetFlow(key flow.Key) bool
	HasFlow(key flow.Key) bool
}

// HandlerFlow is one handler connection's encoded state.
type HandlerFlow struct {
	VID  uint64
	Key  flow.Key
	Blob []byte
}

// SchedFlow is one pipeline flow-table entry (scheduling state only).
type SchedFlow struct {
	VID      uint64
	Key      flow.Key
	HasKey   bool
	Deadline int64 // idle-expiry fire time, trace time
}

// QuarMark is one quarantined flow: the mark must travel with the slice
// or the target would happily resume a flow the source deemed hostile.
type QuarMark struct {
	VID     uint64
	Dropped uint64
}

// FlowSlice is everything the pipeline knows about a set of flows,
// ordered deterministically (workers ascending; handler flows in handler
// enumeration order; scheduler entries oldest-first; quarantine marks by
// vid).
type FlowSlice struct {
	Handler []HandlerFlow
	Sched   []SchedFlow
	Quar    []QuarMark
}

// Flows returns the number of distinct flows in the slice (handler flows
// plus scheduler-only entries).
func (s *FlowSlice) Flows() int {
	seen := make(map[uint64]bool, len(s.Handler)+len(s.Sched))
	for i := range s.Handler {
		seen[s.Handler[i].VID] = true
	}
	n := len(seen)
	for i := range s.Sched {
		if !seen[s.Sched[i].VID] {
			n++
		}
	}
	return n
}

// Empty reports whether the slice carries nothing at all.
func (s *FlowSlice) Empty() bool {
	return len(s.Handler) == 0 && len(s.Sched) == 0 && len(s.Quar) == 0
}

// onWorkers runs fn on every worker's own goroutine and collects errors.
func (p *Pipeline) onWorkers(fn func(i int, sl *wslot) error) error {
	if p.closed.Load() {
		return ErrClosed
	}
	n := len(p.slots)
	errs := make([]error, n)
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		i := i
		err := p.sched.Schedule(uint64(i), func(*threads.Context) {
			defer func() { done <- struct{}{} }()
			errs[i] = fn(i, p.slots[i].Load())
		})
		if err != nil {
			errs[i] = err
			done <- struct{}{}
		}
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return errors.Join(errs...)
}

// ExtractFlows captures the state of every flow selected by match,
// without removing anything: the source keeps processing the slice until
// the handoff commits. Handler flows are enumerated from the handler
// (see the package comment), scheduler entries from the flow table.
func (p *Pipeline) ExtractFlows(match func(vid uint64) bool) (*FlowSlice, error) {
	n := len(p.slots)
	parts := make([]FlowSlice, n)
	err := p.onWorkers(func(i int, sl *wslot) error {
		ws := sl.ws
		part := &parts[i]
		if mh, ok := sl.h.(MigratableHandler); ok {
			for _, key := range mh.MigratableFlows() {
				vid := key.Hash()
				if !match(vid) {
					continue
				}
				blob, err := mh.ExtractFlow(key)
				if err != nil {
					return fmt.Errorf("worker %d: extract %v: %w", i, key, err)
				}
				part.Handler = append(part.Handler, HandlerFlow{VID: vid, Key: key, Blob: blob})
			}
		}
		for e := ws.lru.Back(); e != nil; e = e.Prev() {
			fs := e.Value.(*flowState)
			if !match(fs.vid) {
				continue
			}
			part.Sched = append(part.Sched, SchedFlow{
				VID:      fs.vid,
				Key:      fs.key,
				HasKey:   fs.hasKey,
				Deadline: int64(fs.idle.FireTime()),
			})
		}
		for vid, dropped := range ws.quarantined {
			if match(vid) {
				part.Quar = append(part.Quar, QuarMark{VID: vid, Dropped: dropped})
			}
		}
		sort.Slice(part.Quar, func(a, b int) bool { return part.Quar[a].VID < part.Quar[b].VID })
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &FlowSlice{}
	for i := range parts {
		out.Handler = append(out.Handler, parts[i].Handler...)
		out.Sched = append(out.Sched, parts[i].Sched...)
		out.Quar = append(out.Quar, parts[i].Quar...)
	}
	return out, nil
}

// InjectFlows installs a shipped slice into this pipeline. A flow already
// present (handler or flow table) is a double-ownership violation and
// fails the whole call — the endpoint then refuses the session and the
// source retains. After a successful install the affected shards'
// persistence base is refreshed so a supervised recovery can never
// resurrect the pre-migration shard without the migrated-in flows.
func (p *Pipeline) InjectFlows(s *FlowSlice) error {
	byWorker := p.sliceByWorker(s)
	return p.onWorkers(func(i int, sl *wslot) error {
		part := byWorker[i]
		if part.Empty() {
			return nil
		}
		ws := sl.ws
		mh, _ := sl.h.(MigratableHandler)
		for _, hf := range part.Handler {
			if mh == nil {
				return fmt.Errorf("worker %d: handler cannot accept migrated flows", i)
			}
			if _, err := mh.InjectFlow(hf.Blob); err != nil {
				return fmt.Errorf("worker %d: inject: %w", i, err)
			}
		}
		for _, sf := range part.Sched {
			if _, ok := ws.flows[sf.VID]; ok {
				return fmt.Errorf("worker %d: flow %d already scheduled here (double ownership)", i, sf.VID)
			}
			if ws.cap > 0 && len(ws.flows) >= ws.cap {
				p.evictOldest(ws)
			}
			fs := &flowState{vid: sf.VID, key: sf.Key, hasKey: sf.HasKey}
			p.armIdle(ws, fs, timer.Time(sf.Deadline))
			fs.elem = ws.lru.PushFront(fs)
			ws.flows[sf.VID] = fs
			ws.liveFlows.Add(1)
		}
		for _, q := range part.Quar {
			ws.quarantined[q.VID] = q.Dropped
		}
		p.refreshShardBase(sl)
		return nil
	})
}

// ForgetFlows releases a slice after a committed handoff: scheduling
// entries, quarantine marks, and handler state all go, without events,
// log lines, or counter movement. The shard's persistence base is
// refreshed for the same reason as in InjectFlows — a recovery from the
// old base would resurrect flows that now live elsewhere.
func (p *Pipeline) ForgetFlows(s *FlowSlice) error {
	byWorker := p.sliceByWorker(s)
	return p.onWorkers(func(i int, sl *wslot) error {
		part := byWorker[i]
		if part.Empty() {
			return nil
		}
		ws := sl.ws
		mh, _ := sl.h.(MigratableHandler)
		for _, hf := range part.Handler {
			if mh != nil {
				mh.ForgetFlow(hf.Key)
			}
		}
		for _, sf := range part.Sched {
			if fs, ok := ws.flows[sf.VID]; ok {
				fs.idle.Cancel()
				p.dropFlowState(ws, fs)
			}
		}
		for _, q := range part.Quar {
			delete(ws.quarantined, q.VID)
		}
		p.refreshShardBase(sl)
		return nil
	})
}

// OwnsFlow reports whether this pipeline currently holds any state for
// the flow — handler connection, scheduling entry, or quarantine mark.
// Used by the ownership invariant harness after every handoff.
func (p *Pipeline) OwnsFlow(key flow.Key, vid uint64) (bool, error) {
	if p.closed.Load() {
		return false, ErrClosed
	}
	i := p.sched.WorkerIndex(vid)
	owned := false
	var schedErr error
	done := make(chan struct{})
	err := p.sched.Schedule(uint64(i), func(*threads.Context) {
		defer close(done)
		sl := p.slots[i].Load()
		if _, ok := sl.ws.flows[vid]; ok {
			owned = true
			return
		}
		if _, ok := sl.ws.quarantined[vid]; ok {
			owned = true
			return
		}
		if mh, ok := sl.h.(MigratableHandler); ok && mh.HasFlow(key) {
			owned = true
		}
	})
	if err != nil {
		schedErr = err
		close(done)
	}
	<-done
	return owned, schedErr
}

// sliceByWorker splits a slice by the worker each vid routes to.
func (p *Pipeline) sliceByWorker(s *FlowSlice) []FlowSlice {
	out := make([]FlowSlice, len(p.slots))
	for _, hf := range s.Handler {
		i := p.sched.WorkerIndex(hf.VID)
		out[i].Handler = append(out[i].Handler, hf)
	}
	for _, sf := range s.Sched {
		i := p.sched.WorkerIndex(sf.VID)
		out[i].Sched = append(out[i].Sched, sf)
	}
	for _, q := range s.Quar {
		i := p.sched.WorkerIndex(q.VID)
		out[i].Quar = append(out[i].Quar, q)
	}
	return out
}

// refreshShardBase re-anchors a shard's log after a migration mutated the
// shard outside the packet path: a re-base (new full snapshot, truncated
// log). If that fails, the stale base is *dropped* — no snapshot, empty
// log, a gap open — rather than kept: recovering yesterday's shard would
// resurrect flows that migrated away — an ownership violation — whereas a
// fresh-but-empty rebuild merely loses local state, which crash-only
// operation already tolerates. Runs on the owning worker goroutine.
func (p *Pipeline) refreshShardBase(sl *wslot) {
	if sl.wlog == nil || p.rebase(sl) == nil {
		return
	}
	sl.mu.Lock()
	sl.snap = nil
	sl.wlog.Reset()
	sl.mu.Unlock()
	p.openGap(sl)
}
