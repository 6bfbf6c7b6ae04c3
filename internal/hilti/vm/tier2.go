// Tier-2 execution: profile-guided re-lowering of hot functions.
//
// The interpreter's baseline (tier-1) code pays three taxes the paper's
// LLVM-compiled prototype does not: every scalar lives in a 24-byte boxed
// values.Value, every instruction is a separate indirect dispatch, and
// every instruction runs a budget check. Tier-2 removes all three for the
// code shapes that dominate network-analysis workloads, following the
// Deegen recipe (runtime profiles + an existing optimizer pipeline derive
// a faster second tier from the interpreter spec):
//
//   - Unboxed slots: statically-typed int/bool registers are re-homed into
//     a flat []int64 slot file (Frame.I); their instructions are rewritten
//     to slot executors that never touch values.Value. Values escape back
//     to boxes only at host-call and container boundaries (any register an
//     unsupported instruction touches simply stays boxed).
//   - Superinstructions: adjacent instruction pairs measured hot by the
//     always-on opcode-pair profile (metrics.go) are fused into a single
//     dispatch. Unlike tier-1's hand-picked cmp+br fusion, discovery is
//     data-driven; the orphaned second half stays at its pc so side
//     entries (jump targets, handler targets) still work.
//   - Inline caches: struct.get/struct.set sites cache (StructDef → field
//     index) and map sites cache the key's shape; a monomorphic hit skips
//     the by-name map lookup. Any shape change demotes the function back
//     to tier-1 (see demoteTier2).
//   - Verified regions (bound.go): straight-line runs and provably-bounded
//     counted loops execute in an inner loop that elides the
//     per-instruction budget check, charging the exact executed count at
//     region exit against a statically-proven bound (the K2 idea: a
//     proved termination bound makes runtime guards redundant).
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

// Tier states for CompiledFunc.tierState.
const (
	tierNone    int32 = iota // never promoted
	tierActive               // tier-2 code built (and normally published)
	tierDemoted              // demoted after an IC shape change; re-promotable with widened ICs
	tierMega                 // a widened IC overflowed too: permanently tier-1
)

// icWays is the shape capacity of a widened (polymorphic) inline cache.
// First-generation tier-2 code uses monomorphic caches; a function demoted
// by a shape change is re-promoted with caches this wide, and only a site
// that outgrows even that is treated as megamorphic and demoted for good.
const icWays = 4

// tierDebug, when true, turns verified-region bound violations into panics
// instead of silent degradation to the outer loop; the bound-prover fuzz
// harness enables it as an oracle.
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
	Pairs    int // superinstruction pairs fused
	Overlay  int // overlay accesses specialized (planned decode or fused compare)
	ICs      int // inline caches installed
	WideICs  int // of those, widened to icWays shapes (re-promotion builds)
	Regions  int // verified regions formed (loops included)
	Verified int // instructions covered by verified regions
	Loops    int // counted loops with a proven iteration bound
}

// Tier2Stats returns the specialization statistics of fn's current tier-2
// code; ok is false while the function runs tier-1 code.
func (fn *CompiledFunc) Tier2Stats() (TierStats, bool) {
	if tc := fn.tier2.Load(); tc != nil {
		return tc.stats, true
	}
	return TierStats{}, false
}

// tierConfig controls which tier-2 transformations buildTier2 applies.
type tierConfig struct {
	pairs   bool
	regions bool
	// pairMin gates pair fusion on the measured pair count when a profile
	// is supplied; with a nil profile every safe pair is fused (the
	// deterministic eager -O2 path).
	pairMin uint64
	// wideICs installs icWays-way polymorphic inline caches instead of
	// monomorphic ones — the re-promotion configuration.
	wideICs bool
}

// --- promotion and demotion --------------------------------------------------

// tiering is the per-Exec promotion state: a dense per-function invocation
// counter (indexed by CompiledFunc.ID) plus the threshold. One array
// increment per activation — cheap enough to stay on wherever enabled.
type tiering struct {
	threshold uint32
	counts    []uint32
}

// EnableTiering turns on runtime tier-2 promotion for this Exec: every
// function activation bumps a per-function counter, and a function
// crossing threshold invocations is re-lowered to tier-2 code, guided by
// this Exec's opcode-pair profile when EnableOpcodeProfile is on.
// threshold <= 0 selects the default. Promotion is program-wide: other
// Execs sharing the Program pick up the published tier at their next
// activation. For deterministic ahead-of-time tiering use OptLevel 2
// instead (Options{OptLevel: 2} or hilti's O2).
func (ex *Exec) EnableTiering(threshold int) {
	if threshold <= 0 {
		threshold = defaultTierThreshold
	}
	if ex.tiering == nil {
		ex.tiering = &tiering{threshold: uint32(threshold)}
	}
}

func (t *tiering) observe(fn *CompiledFunc, prof *opProfile) {
	if st := fn.tierState.Load(); st != tierNone && st != tierDemoted {
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
		t.counts[id] = 0 // a later demotion re-arms a full warm-up window
		promoteTier2(fn, prof)
	}
}

// promoteTier2 builds and publishes tier-2 code for fn. The CAS makes the
// build single-winner when several Execs race on a shared Program; the
// build itself only reads fn's immutable tier-1 code. A first promotion
// installs monomorphic inline caches; re-promoting a demoted function
// (including an eager -O2 function a shape change knocked down) widens
// them to icWays shapes, so the one-off polymorphism that caused the
// demotion fits in cache the second time around. Functions that overflow
// even the wide caches land in tierMega and stay tier-1 forever.
func promoteTier2(fn *CompiledFunc, prof *opProfile) {
	wide := false
	if !fn.tierState.CompareAndSwap(tierNone, tierActive) {
		if !fn.tierState.CompareAndSwap(tierDemoted, tierActive) {
			return
		}
		wide = true
	}
	var pairMin uint64
	if prof != nil {
		pairMin = 1 // fuse pairs the profile actually observed
	}
	cfg := tierConfig{pairs: true, regions: true, pairMin: pairMin, wideICs: wide}
	if tc := buildTier2(fn, prof, cfg); tc != nil {
		fn.tier2.Store(tc)
	}
}

// demoteTier2 drops fn back to tier-1 code: an inline cache saw a second
// shape, so the monomorphic assumption tier-2 specialized on does not hold
// for this function. Activations already inside tier-2 code finish there
// (the ICs keep working, just slower); new activations load tier-1 code.
// The function stays re-promotable — if it runs hot again under tiering it
// comes back with widened caches. The CAS keeps a stale activation's late
// demotion from clobbering a newer generation's state (tierMega, or a
// re-promotion that already replaced the code this IC belongs to).
func demoteTier2(fn *CompiledFunc) {
	if fn.tierState.CompareAndSwap(tierActive, tierDemoted) {
		fn.tier2.Store(nil)
	}
}

// demoteTier2Mega drops fn to tier-1 permanently: a widened inline cache
// overflowed (or hit a shape no cache can express), so the site is
// megamorphic and another rebuild would just thrash.
func demoteTier2Mega(fn *CompiledFunc) {
	fn.tierState.Store(tierMega)
	fn.tier2.Store(nil)
}

// --- tier-2 lowering ---------------------------------------------------------

// buildTier2 derives tier-2 code from fn's current (tier-1, usually
// O1-optimized) code. fn itself is never mutated.
func buildTier2(fn *CompiledFunc, prof *opProfile, cfg tierConfig) *tierCode {
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
	installICs(tc, fn, cfg.wideICs)
	// Loop proving must see the un-fused instruction stream; the proofs
	// stay valid across pair fusion because fusion preserves every pc's
	// entry semantics (orphans) and only ever lowers the executed count.
	var loops []loopRegion
	if cfg.regions {
		loops = proveLoops(tc.code, fn.Handlers)
	}
	if cfg.pairs {
		fuseOverlayPairs(tc, fn.Handlers, prof, cfg.pairMin, loops)
		fusePairs(tc, fn.Handlers, prof, cfg.pairMin, loops)
	}
	// Remaining overlay.get sites (including pair orphans) still get the
	// planned inline decoder — a strength reduction, not a fusion.
	specializeOverlayGets(tc)
	if cfg.regions {
		formRegions(tc, fn.Handlers, loops)
	}
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

// --- discovered superinstructions --------------------------------------------

// pairAux carries the two fused halves of a superinstruction. The copies
// keep their original absolute targets, so the fused executor can detect
// "a did not fall through" purely by comparing against b's pc.
type pairAux struct {
	a, b Instr
	bpc  int
}

func (pa *pairAux) orphanPC() int { return pa.bpc }

// execPair dispatches a fused instruction pair: run a; if it fell through
// to b's pc, run b in the same dispatch. Any raise, retry, or branch out
// of a propagates unchanged (and attributes to the pair's pc, which the
// fusion rules made handler-equivalent to both halves' pcs).
//
// Budget accounting stays exact: the outer dispatch charged one step for
// a, so b charges its own step here, mirroring the dispatch loop's fast
// path. When b's step would reach a checkpoint the pair bails to the
// orphaned b instead, so Hilti::ResourceExhausted fires at exactly the
// same instruction — with the same step count — as under tier-1.
func execPair(ex *Exec, fr *Frame, in *Instr) int {
	pa := in.aux.(*pairAux)
	if t := pa.a.exec(ex, fr, &pa.a); t != pa.bpc {
		return t
	}
	if ex.budget.steps+1 >= ex.budget.nextCheck {
		return pa.bpc
	}
	ex.budget.steps++
	return pa.b.exec(ex, fr, &pa.b)
}

// fuseAdjacent offers every eligible adjacent pair (pc, pc+1) to fuse,
// which returns the superinstruction for pc or false. Eligible: the head
// falls through unconditionally to pc+1, both pcs have identical handler
// coverage (a raise from either half resolves at the pair's pc), the pair
// was measured at least pairMin times when a profile is given, and pc+1 is
// no proven-loop region entry — the pair would run that orphan inline and
// continue past it, so the fall-through path would bypass the region and
// the budget elision its proof paid for. The tail stays at pc+1 as an
// orphan, so branches and handlers targeting it keep working; pairs never
// chain into triples.
func fuseAdjacent(tc *tierCode, hs []handler, prof *opProfile, pairMin uint64, loops []loopRegion,
	fuse func(pc int, a, b *Instr) (Instr, bool)) {
	regionEntry := make(map[int]bool, len(loops))
	for _, lr := range loops {
		regionEntry[lr.lo] = true
	}
	code := tc.code
	for pc := 0; pc+1 < len(code); pc++ {
		a, b := &code[pc], &code[pc+1]
		if isBranch(a) || a.t1 != pc+1 || regionEntry[pc+1] || !sameHandlers(hs, pc, pc+1) ||
			prof != nil && prof.pairCount(a.opID, b.opID) < pairMin {
			continue
		}
		if in, ok := fuse(pc, a, b); ok {
			in.opID, in.t1, in.t2 = pairID(a.opID, b.opID), b.t1, b.t2
			code[pc] = in
			tc.stats.Pairs++
			pc++
		}
	}
}

// fusePairs fuses every eligible pair of inline ops into one generic
// dispatch (execPair); unreachable orphans were already pruned at O1.
func fusePairs(tc *tierCode, hs []handler, prof *opProfile, pairMin uint64, loops []loopRegion) {
	fuseAdjacent(tc, hs, prof, pairMin, loops, func(pc int, a, b *Instr) (Instr, bool) {
		if !rowOf(a.opID).is(opInline) || !rowOf(b.opID).is(opInline) {
			return Instr{}, false
		}
		return Instr{exec: execPair, d: a.d, srcs: a.srcs,
			aux: &pairAux{a: *a, b: *b, bpc: pc + 1}}, true
	})
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

// --- inline caches -----------------------------------------------------------

// installICs replaces struct field access and map lookups with
// inline-cached executors (ops_container.go) — monomorphic on the first
// build, icWays-way polymorphic when wide (a re-promotion). The caches
// live in the shared tier code, so hits benefit every Exec running the
// Program; outgrowing the cache demotes the whole function.
func installICs(tc *tierCode, fn *CompiledFunc, wide bool) {
	for pc := range tc.code {
		in := &tc.code[pc]
		switch rowOf(in.opID) {
		case opStructGet:
			if len(in.srcs) == 2 && in.srcs[1].kind == srcConst &&
				in.srcs[1].val.K == values.KindString && in.d.kind != srcSlot {
				in.aux = &structIC{name: in.srcs[1].val.AsString(), fn: fn, wide: wide}
				in.exec = execStructGetIC
				tc.stats.ICs++
			}
		case opStructSet:
			if len(in.srcs) == 3 && in.srcs[1].kind == srcConst &&
				in.srcs[1].val.K == values.KindString &&
				in.srcs[2].kind != srcSlot {
				in.aux = &structIC{name: in.srcs[1].val.AsString(), fn: fn, wide: wide}
				in.exec = execStructSetIC
				tc.stats.ICs++
			}
		case opMapGet:
			if len(in.srcs) == 2 && in.srcs[1].kind != srcCtor && in.srcs[1].kind != srcSlot {
				in.aux = &mapIC{fn: fn, wide: wide}
				in.exec = execMapGetIC
				tc.stats.ICs++
			}
		case opMapExists:
			if len(in.srcs) == 2 && in.srcs[1].kind != srcCtor && in.srcs[1].kind != srcSlot {
				in.aux = &mapIC{fn: fn, wide: wide}
				in.exec = execMapExistsIC
				tc.stats.ICs++
			}
		}
	}
	if wide {
		tc.stats.WideICs = tc.stats.ICs
	}
}
