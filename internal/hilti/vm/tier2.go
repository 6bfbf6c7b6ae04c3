// Tier-2 execution: a second, fixed lowering of hot functions.
//
// Tier-2 is overlay specialization (overlay_tier2.go): a header-field read
// is planned once, and `overlay.get; <compare> const +br` becomes one
// decode-compare-branch superinstruction. That is the shape packet filters
// are made of (paper Figure 4), and the one the §6.2 filter spends its
// time in.
//
// The lowering is a pure function of the tier-1 code, so eager O2 and
// runtime promotion (EnableTiering) build the same code, only at
// different times.
//
// Tier-2 code is pc-identical to tier-1 code: only the exec pointers and
// aux payloads differ, never the instruction layout, and both tiers keep
// every value in the same boxed registers. That single invariant is what
// keeps promotion transparent — exception handler ranges, fiber
// suspend/resume, checkpoint/WAL replay, and the disassembler all address
// the same pcs in either tier, and an activation may continue on either
// code array. Promotion is published atomically per function; the dispatch
// loop picks it up whenever it next loads the function's code.

package vm

// defaultTierThreshold is the invocation count at which EnableTiering
// promotes a function when no explicit threshold is given.
const defaultTierThreshold = 256

// tierCode is one function's published tier-2 code.
type tierCode struct {
	code  []Instr
	stats TierStats
}

// TierStats reports what tier-2 lowering did to one function.
type TierStats struct {
	Pairs   int // overlay compare superinstructions fused
	Overlay int // overlay accesses specialized (planned decode or fused compare)
}

// Tier2Stats returns the specialization statistics of fn's current tier-2
// code; ok is false while the function runs tier-1 code.
func (fn *CompiledFunc) Tier2Stats() (TierStats, bool) {
	if tc := fn.tier2.Load(); tc != nil {
		return tc.stats, true
	}
	return TierStats{}, false
}

// --- promotion ---------------------------------------------------------------

// tiering is the per-Exec promotion state: a dense per-function invocation
// counter (indexed by CompiledFunc.ID) plus the threshold. One array
// increment per activation — cheap enough to stay on wherever enabled.
type tiering struct {
	threshold uint32
	counts    []uint32
}

// EnableTiering turns on runtime tier-2 promotion for this Exec: every
// function activation bumps a per-function counter, and a function
// crossing threshold invocations gets the tier-2 code eager O2 would have
// built for it. threshold <= 0 selects the default. Promotion is
// program-wide: other Execs sharing the Program pick up the published tier
// at their next activation. For deterministic ahead-of-time tiering use
// OptLevel 2 instead (Options{OptLevel: 2} or hilti's O2).
func (ex *Exec) EnableTiering(threshold int) {
	if threshold <= 0 {
		threshold = defaultTierThreshold
	}
	if ex.tiering == nil {
		ex.tiering = &tiering{threshold: uint32(threshold)}
	}
}

func (t *tiering) observe(fn *CompiledFunc) {
	if fn.tiered.Load() {
		return
	}
	id := fn.ID
	if id < 0 {
		return
	}
	if id >= len(t.counts) {
		grown := make([]uint32, id+16)
		copy(grown, t.counts)
		t.counts = grown
	}
	if t.counts[id]++; t.counts[id] >= t.threshold {
		promoteTier2(fn)
	}
}

// promoteTier2 builds and publishes tier-2 code for fn. The CAS makes the
// build single-winner when several Execs race on a shared Program; the
// build itself only reads fn's immutable tier-1 code.
func promoteTier2(fn *CompiledFunc) {
	if !fn.tiered.CompareAndSwap(false, true) {
		return
	}
	if tc := buildTier2(fn); tc != nil {
		fn.tier2.Store(tc)
	}
}

// --- tier-2 lowering ---------------------------------------------------------

// buildTier2 derives tier-2 code from fn's current (tier-1, usually
// O1-optimized) code. fn itself is never mutated.
func buildTier2(fn *CompiledFunc) *tierCode {
	if len(fn.Code) == 0 {
		return nil
	}
	tc := &tierCode{code: append([]Instr(nil), fn.Code...)}
	fuseOverlayPairs(tc, fn.Handlers)
	// Remaining overlay.get sites (including pair orphans) still get the
	// planned inline decoder — a strength reduction, not a fusion.
	specializeOverlayGets(tc)
	return tc
}

// sameHandlers reports whether pcs p and q are covered by exactly the same
// exception handlers.
func sameHandlers(hs []handler, p, q int) bool {
	for i := range hs {
		if (p >= hs[i].start && p < hs[i].end) != (q >= hs[i].start && q < hs[i].end) {
			return false
		}
	}
	return true
}
