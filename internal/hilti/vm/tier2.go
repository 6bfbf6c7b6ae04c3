// Tier-2 execution: a second, fixed lowering of hot functions.
//
// The interpreter's baseline (tier-1) code pays three taxes the paper's
// LLVM-compiled prototype does not: every scalar lives in a 24-byte boxed
// values.Value, every instruction is a separate indirect dispatch, and
// every instruction runs a budget check. Tier-2 removes them for the code
// shapes packet filters are made of:
//
//   - Unboxed slots: statically-typed int/bool registers are re-homed into
//     a flat []int64 slot file (Frame.I); their instructions are rewritten
//     to slot executors that never touch values.Value. Values escape back
//     to boxes only at host-call and container boundaries (any register an
//     unsupported instruction touches simply stays boxed).
//   - Overlay specialization (overlay_tier2.go): a header-field read is
//     planned once, and `overlay.get; <compare> const +br` becomes one
//     decode-compare-branch superinstruction.
//   - Verified regions (bound.go): straight-line runs execute in an inner
//     loop that elides the per-instruction budget check, charging the
//     exact executed count at region exit against the run's length (the
//     K2 idea: a proved bound makes runtime guards redundant).
//
// The lowering is a pure function of the tier-1 code, so eager O2 and
// runtime promotion (EnableTiering) build the same code, only at
// different times.
//
// Tier-2 code is pc-identical to tier-1 code: only the exec pointers,
// operand kinds, and aux payloads differ, never the instruction layout.
// That single invariant is what keeps promotion transparent — exception
// handler ranges, fiber suspend/resume, checkpoint/WAL replay, and the
// disassembler all address the same pcs in either tier. Promotion is
// published atomically per function and picked up at the next activation;
// an activation in flight finishes on whichever code array it entered
// with.

package vm

import (
	"hilti/internal/hilti/types"
	"hilti/internal/rt/values"
)

// srcSlot marks an operand (or destination) rewritten onto the unboxed
// slot file Frame.I. It never appears in tier-1 code, and tier-2 rewriting
// guarantees slot operands only reach slot-aware executors — the generic
// ex.get/ex.put never see one.
const srcSlot uint8 = 5

// Slot kinds: what a slotted register's int64 encodes.
const (
	slotNone uint8 = iota
	slotInt        // signed integer, value as-is
	slotBool       // boolean, 0 or 1
)

// tierDebug, when true, turns verified-region bound violations into panics
// instead of silent degradation to the outer loop; FuzzLoopBoundProver
// enables it as an oracle.
var tierDebug = false

// defaultTierThreshold is the invocation count at which EnableTiering
// promotes a function when no explicit threshold is given.
const defaultTierThreshold = 256

// tierCode is one function's published tier-2 code.
type tierCode struct {
	code       []Instr
	slotKind   []uint8 // per register: slotNone, slotInt, slotBool
	slotParams []int32 // slotted parameter registers, unboxed at entry
	stats      TierStats
}

// TierStats reports what tier-2 lowering did to one function.
type TierStats struct {
	SlotRegs int // registers re-homed to unboxed slots
	Slotted  int // instructions rewritten to slot executors
	Pairs    int // overlay compare superinstructions fused
	Overlay  int // overlay accesses specialized (planned decode or fused compare)
	Regions  int // verified regions formed
	Verified int // instructions covered by verified regions
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
	if kind := slotPlan(fn); kind != nil {
		tc.slotKind = kind
		for r := 0; r < fn.NParams && r < len(kind); r++ {
			if kind[r] != slotNone {
				tc.slotParams = append(tc.slotParams, int32(r))
			}
		}
		for _, k := range kind {
			if k != slotNone {
				tc.stats.SlotRegs++
			}
		}
		respecialize(tc)
	}
	fuseOverlayPairs(tc, fn.Handlers)
	// Remaining overlay.get sites (including pair orphans) still get the
	// planned inline decoder — a strength reduction, not a fusion.
	specializeOverlayGets(tc)
	formRegions(tc, fn.Handlers)
	return tc
}

// --- unboxed slot classification ---------------------------------------------

// slotPlan decides which registers live unboxed under tier-2. Start from
// every statically int/bool-typed register, then iterate to a fixpoint
// dropping any register touched by an instruction that has no slot-aware
// lowering (calls, containers, ctor operands, host boundaries): those
// registers stay boxed, which is the "escape at boundaries" rule. Returns
// nil when nothing qualifies.
func slotPlan(fn *CompiledFunc) []uint8 {
	if len(fn.RegTypes) == 0 {
		return nil
	}
	kind := make([]uint8, fn.NRegs)
	any := false
	for r := 0; r < fn.NRegs && r < len(fn.RegTypes); r++ {
		t := fn.RegTypes[r]
		if t == nil {
			continue
		}
		switch t.Kind {
		case types.Int:
			kind[r], any = slotInt, true
		case types.Bool:
			kind[r], any = slotBool, true
		}
	}
	if !any {
		return nil
	}
	for changed := true; changed; {
		changed = false
		for pc := range fn.Code {
			in := &fn.Code[pc]
			if !touchesSlot(in, kind) || rowOf(in.opID).slotFits(in, kind, fn.RegTypes) {
				continue
			}
			if dropSlotRegs(in, kind) {
				changed = true
			}
		}
	}
	any = false
	for _, k := range kind {
		if k != slotNone {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	return kind
}

func regSlot(kind []uint8, idx int32) uint8 {
	if int(idx) < len(kind) {
		return kind[idx]
	}
	return slotNone
}

func srcTouchesSlot(s *src, kind []uint8) bool {
	switch s.kind {
	case srcReg:
		return regSlot(kind, s.idx) != slotNone
	case srcCtor:
		for i := range s.subs {
			if srcTouchesSlot(&s.subs[i], kind) {
				return true
			}
		}
	}
	return false
}

func touchesSlot(in *Instr, kind []uint8) bool {
	if in.d.kind == srcReg && regSlot(kind, in.d.idx) != slotNone {
		return true
	}
	for i := range in.srcs {
		if srcTouchesSlot(&in.srcs[i], kind) {
			return true
		}
	}
	return false
}

// dropSlotRegs demotes every register in reaches back to boxed.
func dropSlotRegs(in *Instr, kind []uint8) bool {
	changed := false
	var dropSrc func(s *src)
	dropSrc = func(s *src) {
		switch s.kind {
		case srcReg:
			if regSlot(kind, s.idx) != slotNone {
				kind[s.idx] = slotNone
				changed = true
			}
		case srcCtor:
			for i := range s.subs {
				dropSrc(&s.subs[i])
			}
		}
	}
	if in.d.kind == srcReg && regSlot(kind, in.d.idx) != slotNone {
		kind[in.d.idx] = slotNone
		changed = true
	}
	for i := range in.srcs {
		dropSrc(&in.srcs[i])
	}
	return changed
}

// scalarOperand reports whether s can feed a slot executor expecting the
// given scalar domain: an unboxed slot of that kind, a constant of that
// kind, or a boxed register whose static type pins the domain (boxed
// int/bool registers store their payload in Value.A, so a raw read is
// exactly what tier-1's shape-specialized executors already do).
func scalarOperand(s *src, want uint8, kind []uint8, rty []*types.Type) bool {
	switch s.kind {
	case srcConst:
		if want == slotInt {
			return s.val.K == values.KindInt
		}
		return s.val.K == values.KindBool
	case srcReg:
		if k := regSlot(kind, s.idx); k != slotNone {
			return k == want
		}
		if int(s.idx) < len(rty) && rty[s.idx] != nil {
			k := rty[s.idx].Kind
			return (want == slotInt && k == types.Int) || (want == slotBool && k == types.Bool)
		}
	}
	return false
}

// respecialize rewrites every instruction touching a slotted register:
// slot operands get kind srcSlot, and the executor is swapped for its
// row's slot form. The operand slice is copied first — it is shared with
// the tier-1 code.
func respecialize(tc *tierCode) {
	kind := tc.slotKind
	for pc := range tc.code {
		in := &tc.code[pc]
		if !touchesSlot(in, kind) {
			continue
		}
		in.srcs = append([]src(nil), in.srcs...)
		for i := range in.srcs {
			if s := &in.srcs[i]; s.kind == srcReg && regSlot(kind, s.idx) != slotNone {
				s.kind = srcSlot
			}
		}
		if in.d.kind == srcReg && regSlot(kind, in.d.idx) != slotNone {
			in.d.kind = srcSlot
		}
		r := rowOf(in.opID)
		in.exec = r.slotExec
		if in.d.kind != srcSlot && r.slotBoxed != nil {
			in.t2 = int(kind[in.srcs[0].idx]) // slot kind, for re-boxing
			in.exec = r.slotBoxed
		}
		tc.stats.Slotted++
	}
}

// slotArg reads an int64 operand of a slot executor: an unboxed slot, a
// constant, or a boxed register whose static scalar type the classifier
// verified (payload in Value.A, like tier-1's fast paths).
func slotArg(fr *Frame, s *src) int64 {
	switch s.kind {
	case srcSlot:
		return fr.I[s.idx]
	case srcReg:
		return int64(fr.R[s.idx].A)
	default:
		return int64(s.val.A)
	}
}

// putSlotInt writes an integer result to a slot or re-boxes it.
func putSlotInt(ex *Exec, fr *Frame, d dst, x int64) {
	switch d.kind {
	case srcSlot:
		fr.I[d.idx] = x
	case srcReg:
		fr.R[d.idx] = values.Int(x)
	case srcGlobal:
		ex.Globals[d.idx] = values.Int(x)
	}
}

// putSlotBool writes a boolean result to a slot or re-boxes it.
func putSlotBool(ex *Exec, fr *Frame, d dst, b bool) {
	switch d.kind {
	case srcSlot:
		var x int64
		if b {
			x = 1
		}
		fr.I[d.idx] = x
	case srcReg:
		fr.R[d.idx] = values.Bool(b)
	case srcGlobal:
		ex.Globals[d.idx] = values.Bool(b)
	}
}

// boxSlot re-boxes a slot value by its kind.
func boxSlot(x int64, kind uint8) values.Value {
	if kind == slotBool {
		return values.Bool(x != 0)
	}
	return values.Int(x)
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
