package ruleplane

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrSwapInFlight is returned by Swap while a previous swap's shadow
// window is still open.
var ErrSwapInFlight = errors.New("ruleplane: swap already in flight")

// Generation is one immutable compiled rule set: the programs, the
// compiled automaton, and the linear reference oracle, tagged with the
// swap sequence number that produced it.
type Generation struct {
	Seq   uint64
	Progs []Program
	Auto  *Automaton
	Ref   *Linear
}

// planeState is the atomically-published evaluation state. committed is
// what verdicts come from; shadow, when non-nil, is the candidate rule
// set being verified per-packet before the flip.
type planeState struct {
	committed *Generation
	shadow    *Generation
	inject    bool
	remaining atomic.Int64
}

// SwapOptions controls one hot reload.
type SwapOptions struct {
	// Window is the number of packets the shadow-verification window
	// spans: each of those packets is evaluated against the candidate
	// set's compiled automaton AND its linear reference, and any verdict
	// divergence aborts the swap (the automaton miscompiled the new
	// rules). 0 commits immediately with no shadow window.
	Window int64
	// InjectDivergence is a test hook: it perturbs the candidate
	// automaton's shadow verdicts so the divergence-abort path can be
	// exercised deterministically.
	InjectDivergence bool
}

// DivergenceReport describes why a swap aborted: the packet header and
// the first program whose compiled verdict disagreed with the linear
// reference under the candidate rule set.
type DivergenceReport struct {
	SwapSeq          uint64
	Program          string
	ProgramIndex     int
	Header           Header
	CompiledVerdict  int64
	ReferenceVerdict int64
	CompiledRule     int32 // program-local winning rule index, -1 = default
	ReferenceRule    int32
}

func (r *DivergenceReport) String() string {
	return fmt.Sprintf("swap %d aborted: program %q (#%d) diverged: compiled verdict %d (rule %d) vs reference %d (rule %d)",
		r.SwapSeq, r.Program, r.ProgramIndex, r.CompiledVerdict, r.CompiledRule, r.ReferenceVerdict, r.ReferenceRule)
}

// Ledger is a snapshot of the plane's swap/evaluation accounting.
type Ledger struct {
	Evals         uint64 // packets evaluated
	Drops         uint64 // packets a gate program dropped
	Swaps         uint64 // Swap calls accepted (window opened or instant commit)
	Committed     uint64 // swaps that flipped
	Aborted       uint64 // swaps aborted on divergence
	ShadowPackets uint64 // packets double-evaluated inside shadow windows
	ShadowChanged uint64 // shadow packets whose verdict differs old vs new (impact, not error)
	Divergences   uint64 // compiled-vs-reference mismatches detected in shadow
}

type ledger struct {
	evals, drops, swaps, committed, aborted atomic.Uint64
	shadowPkts, shadowChanged, divergences  atomic.Uint64
}

// Plane hosts the live rule set behind an atomic hot-reload API. Eval is
// lock-free and safe for concurrent callers; Swap installs a candidate
// rule set under live traffic with no pipeline pause: packets keep
// flowing off the committed generation while the shadow window verifies
// the candidate per-packet, and the flip itself is one pointer CAS
// (flip-as-commit — any divergence aborts with the committed set
// retained, never a half-installed plane).
type Plane struct {
	mu         sync.Mutex // serializes Swap
	state      atomic.Pointer[planeState]
	nextSeq    uint64
	led        ledger
	lastReport atomic.Pointer[DivergenceReport]
}

// New builds a plane committed to the given programs.
func New(progs []Program) (*Plane, error) {
	auto, err := Compile(progs)
	if err != nil {
		return nil, err
	}
	p := &Plane{nextSeq: 1}
	g := &Generation{Seq: 1, Progs: progs, Auto: auto, Ref: NewLinear(progs)}
	p.state.Store(&planeState{committed: g})
	return p, nil
}

// NumPrograms returns the number of programs in the committed set.
// Program count is fixed for the life of the plane: Swap rejects
// candidates with a different count so verdict slices never resize.
func (p *Plane) NumPrograms() int {
	return len(p.state.Load().committed.Progs)
}

// ProgramIndex returns the committed-set index of the named program, or -1.
func (p *Plane) ProgramIndex(name string) int {
	return p.state.Load().committed.Auto.ProgramIndex(name)
}

// CommittedSeq returns the sequence number of the committed generation.
func (p *Plane) CommittedSeq() uint64 {
	return p.state.Load().committed.Seq
}

// Committed returns the committed generation.
func (p *Plane) Committed() *Generation {
	return p.state.Load().committed
}

// Pending reports whether a swap's shadow window is still open.
func (p *Plane) Pending() bool {
	return p.state.Load().shadow != nil
}

// LastReport returns the divergence report of the most recently aborted
// swap, or nil.
func (p *Plane) LastReport() *DivergenceReport {
	return p.lastReport.Load()
}

// Stats snapshots the plane's ledger.
func (p *Plane) Stats() Ledger {
	return Ledger{
		Evals:         p.led.evals.Load(),
		Drops:         p.led.drops.Load(),
		Swaps:         p.led.swaps.Load(),
		Committed:     p.led.committed.Load(),
		Aborted:       p.led.aborted.Load(),
		ShadowPackets: p.led.shadowPkts.Load(),
		ShadowChanged: p.led.shadowChanged.Load(),
		Divergences:   p.led.divergences.Load(),
	}
}

// Swap compiles the candidate programs and installs them. With a zero
// window the flip is immediate; otherwise the candidate rides shadow on
// the next Window packets (see SwapOptions) and the packet that exhausts
// the window performs the commit CAS. Returns the candidate generation's
// sequence number; the caller can poll CommittedSeq()/Pending() to
// observe the outcome. Only one swap may be in flight at a time.
func (p *Plane) Swap(progs []Program, opts SwapOptions) (uint64, error) {
	auto, err := Compile(progs)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.state.Load()
	if cur.shadow != nil {
		return 0, ErrSwapInFlight
	}
	if len(progs) != len(cur.committed.Progs) {
		return 0, fmt.Errorf("ruleplane: swap changes program count %d -> %d; rebuild the plane instead",
			len(cur.committed.Progs), len(progs))
	}
	p.nextSeq++
	g := &Generation{Seq: p.nextSeq, Progs: progs, Auto: auto, Ref: NewLinear(progs)}
	p.led.swaps.Add(1)
	if opts.Window <= 0 {
		// Instant commit; Eval CASes never target a shadow-less state
		// from a shadow-less state, but a concurrent in-window commit is
		// impossible here (no shadow), so a plain loop suffices.
		for {
			if p.state.CompareAndSwap(cur, &planeState{committed: g}) {
				break
			}
			cur = p.state.Load()
		}
		p.led.committed.Add(1)
		return g.Seq, nil
	}
	ns := &planeState{committed: cur.committed, shadow: g, inject: opts.InjectDivergence}
	ns.remaining.Store(opts.Window)
	for {
		if p.state.CompareAndSwap(cur, ns) {
			break
		}
		cur = p.state.Load()
		ns.committed = cur.committed
	}
	return g.Seq, nil
}

// Eval computes the committed generation's verdicts for h and reports
// (seq, drop): the sequence number of the generation that produced the
// verdicts — the rule set committed at this packet's admission point —
// and whether a gate program dropped the packet. verdicts must have
// NumPrograms() elements. Eval is wait-free for readers; during a shadow
// window it additionally double-evaluates the candidate set (compiled +
// reference) and drives the swap state machine.
func (p *Plane) Eval(h *Header, verdicts []int64) (uint64, bool) {
	var matched [MaxPrograms]int32
	s := p.state.Load()
	g := s.committed
	g.Auto.Eval(h, verdicts, matched[:len(g.Progs)])
	drop := g.Auto.GateDrop(verdicts)
	p.led.evals.Add(1)
	if drop {
		p.led.drops.Add(1)
	}
	if sh := s.shadow; sh != nil {
		p.shadowEval(s, g, sh, h, verdicts)
	}
	return g.Seq, drop
}

// Decision is one hosted program's answer for a header: the program-local
// index of the rule that decided it (-1: the default applied), its
// verdict, and the generation that answered.
type Decision struct {
	Program string
	Gate    bool
	Rule    int32
	Verdict int64
	Seq     uint64
}

// Explain returns every program's decision for h under the committed
// generation. Unlike Eval it moves neither the ledger nor an open shadow
// window, and it allocates: it is for questions asked off the packet path
// (why was this flow dropped), not for the feeder.
func (p *Plane) Explain(h *Header) []Decision {
	g := p.state.Load().committed
	var v [MaxPrograms]int64
	var m [MaxPrograms]int32
	g.Auto.Eval(h, v[:len(g.Progs)], m[:len(g.Progs)])
	out := make([]Decision, len(g.Progs))
	for i := range out {
		out[i] = Decision{Program: g.Progs[i].Name, Gate: g.Progs[i].Gate, Rule: m[i], Verdict: v[i], Seq: g.Seq}
	}
	return out
}

// shadowEval runs one packet through the candidate generation's compiled
// automaton and linear reference, aborts the swap on divergence, and
// commits it when the window is exhausted.
func (p *Plane) shadowEval(s *planeState, g, sh *Generation, h *Header, committed []int64) {
	np := len(sh.Progs)
	var cv, rv [MaxPrograms]int64
	var cm, rm [MaxPrograms]int32
	sh.Auto.Eval(h, cv[:np], cm[:np])
	if s.inject {
		cv[0]++ // simulated miscompile (test hook)
	}
	sh.Ref.Eval(h, rv[:np], rm[:np])
	p.led.shadowPkts.Add(1)
	for i := 0; i < np; i++ {
		if cv[i] != rv[i] || cm[i] != rm[i] {
			rep := &DivergenceReport{
				SwapSeq:          sh.Seq,
				Program:          sh.Progs[i].Name,
				ProgramIndex:     i,
				Header:           *h,
				CompiledVerdict:  cv[i],
				ReferenceVerdict: rv[i],
				CompiledRule:     cm[i],
				ReferenceRule:    rm[i],
			}
			// Abort: drop the shadow, keep the committed generation.
			// Exactly one packet wins the CAS; late shadow evals on the
			// same state lose it and change nothing.
			if p.state.CompareAndSwap(s, &planeState{committed: g}) {
				p.lastReport.Store(rep)
				p.led.divergences.Add(1)
				p.led.aborted.Add(1)
			}
			return
		}
	}
	changed := false
	for i := 0; i < np; i++ {
		if rv[i] != committed[i] {
			changed = true
			break
		}
	}
	if changed {
		// Old-vs-new verdict difference is the swap's *impact*, not an
		// error: the operator changed the rules on purpose. Counted so
		// the blast radius of a rule edit is visible in the ledger.
		p.led.shadowChanged.Add(1)
	}
	if s.remaining.Add(-1) == 0 {
		if p.state.CompareAndSwap(s, &planeState{committed: sh}) {
			p.led.committed.Add(1)
		}
	}
}
