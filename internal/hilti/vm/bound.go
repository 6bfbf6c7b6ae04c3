// Verified budget elision: the conservative bound prover and region
// executor of tier-2 (tier2.go).
//
// The tier-1 dispatch loop pays a budget check before every instruction so
// vm.Limits can stop runaway code at a precise point. For code whose
// execution count can be bounded statically, that check is provably
// redundant inside the bound: a straight-line run of N instructions
// executes at most N of them, and a counted loop with constant init, limit
// and step executes a closed-form number. Tier-2 groups such code into
// "verified regions": one region instruction replaces the region's first
// pc, executes the covered instructions in a tight inner loop with no
// per-instruction budget check, and charges the exact executed count at
// exit. Soundness is two-sided:
//
//   - Never under-charge: every executed instruction is counted (the inner
//     loop counts dispatches; the outer loop already counted the region
//     instruction itself as one step).
//   - Never overshoot a limit: the region is entered only when the proven
//     bound fits entirely below the next budget checkpoint
//     (steps + bound < nextCheck). Otherwise the region degrades — only
//     its first instruction runs and control returns to the outer loop,
//     which still holds the original per-instruction-checked code at every
//     pc past the region head. Hilti::ResourceExhausted therefore fires at
//     exactly the same logical instruction as under tier-1.
//
// Only code[lo] is replaced; the originals at lo+1..hi stay in place, so
// side entries (jump targets, handler targets, resumed fibers, restored
// checkpoints) simply run interpretively — transparency over speed.

package vm

import (
	"fmt"

	"hilti/internal/rt/values"
)

const (
	// regionMin is the minimum instruction count worth a region.
	regionMin = 4
	// regionMax caps a region's instruction span.
	regionMax = 256
	// loopBoundMax rejects proven loop bounds so large that charging them
	// as one block would make budget checkpoints uselessly coarse.
	loopBoundMax = 1 << 16
)

// regionAux is the payload of a "region" instruction.
type regionAux struct {
	code  []Instr // copies of the covered instructions (absolute targets)
	base  int     // pc of the region head (code[0]'s original pc)
	bound int     // proven max dispatches per entry
	hdr   int     // offset of a proven loop's header within code, or -1
	iters int     // proven loop iteration count (diagnostics/disasm)
}

// execRegion runs a verified region: dispatch the covered instructions
// without per-instruction budget checks, then charge the exact count.
func execRegion(ex *Exec, fr *Frame, in *Instr) int {
	ra := in.aux.(*regionAux)
	if ex.budget.steps+uint64(ra.bound) >= ex.budget.nextCheck {
		// A budget checkpoint (or the limit itself) falls inside the
		// proven bound: degrade to per-instruction execution so the trip
		// fires at its precise pc. Run just the head instruction — every
		// later pc still holds its original tier-1 instruction.
		return ra.code[0].exec(ex, fr, &ra.code[0])
	}
	code := ra.code
	i, n := 0, 0
	for {
		if n >= ra.bound {
			// The prover guarantees this is unreachable; bail to the
			// outer checked loop rather than run unbounded.
			if tierDebug {
				panic(fmt.Sprintf("vm: verified region at pc %d exceeded proven bound %d",
					ra.base, ra.bound))
			}
			ex.budget.steps += uint64(n - 1)
			return ra.base + i
		}
		t := code[i].exec(ex, fr, &code[i])
		n++
		if ni := t - ra.base; ni > i && ni < len(code) {
			i = ni // forward progress within the region
		} else if ra.hdr >= 0 && ni == ra.hdr {
			i = ni // proven loop back edge
		} else {
			// Leaving the region: fall-through past the end, branch out,
			// return, raise, or retry. Charge the extra dispatches (the
			// outer loop already counted the region entry as one step).
			ex.budget.steps += uint64(n - 1)
			return t
		}
	}
}

// loopRegion is one proven counted loop: pcs [lo, hi] with at most bound
// dispatches per entry at lo and the loop header at offset hdr.
type loopRegion struct {
	lo, hi int
	hdr    int
	bound  int
	iters  int
}

// proveLoops scans for the canonical counted-loop shape and returns every
// loop whose iteration count it can bound. The shape (produced by the
// builders' loop idiom after O1 folding and cmp+br fusion) is:
//
//	lo:    assign       rI <- const INIT
//	[lo+1: jump hdr]                            ; optional block boundary
//	hdr:   int.<cmp>+br rB <- rI, const LIMIT   ; body | exit(outside)
//	...    straight-line body (pair-safe, single write to rI)
//	       int.add      rI <- rI, const STEP
//	hi:    back edge to hdr (the increment itself, or one trailing jump)
//
// The iteration count K follows in closed form; the proven bound is
// preLen + K+1 (header tests) + K*bodyLen. Anything else — register
// limits, extra writes to the counter, branches in the body, steps whose
// sign cannot terminate the loop, bounds past loopBoundMax — is rejected
// and stays on per-instruction budget checks.
func proveLoops(code []Instr, hs []handler) []loopRegion {
	var out []loopRegion
	for p := 0; p+2 < len(code); p++ {
		if lr, ok := proveLoopAt(code, hs, p); ok {
			out = append(out, lr)
			p = lr.hi
		}
	}
	return out
}

func proveLoopAt(code []Instr, hs []handler, p int) (loopRegion, bool) {
	none := loopRegion{}
	// Preheader: assign rI <- const int INIT, falling through.
	pre := &code[p]
	if rowOf(pre.opID) != opAssign || len(pre.srcs) != 1 || pre.t1 != p+1 {
		return none, false
	}
	if pre.srcs[0].kind != srcConst || pre.srcs[0].val.K != values.KindInt {
		return none, false
	}
	if pre.d.kind != srcReg && pre.d.kind != srcSlot {
		return none, false
	}
	riKind, ri := pre.d.kind, pre.d.idx
	init := int64(pre.srcs[0].val.A)
	// Optional block-boundary jump between preheader and header.
	hd := p + 1
	if hd < len(code) && rowOf(code[hd].opID) == opJump {
		if code[hd].t1 != hd+1 {
			return none, false
		}
		hd++
	}
	if hd+1 >= len(code) {
		return none, false
	}
	// Header: fused compare-and-branch on rI against a constant limit.
	h := &code[hd]
	hr := rowOf(h.opID)
	if hr.ctl != ctlBranch {
		return none, false
	}
	var up, incl bool
	switch hr.rel {
	case relLt:
		up = true
	case relLeq:
		up, incl = true, true
	case relGt:
	case relGeq:
		incl = true
	default:
		return none, false
	}
	if len(h.srcs) != 2 || h.srcs[0].kind != riKind || h.srcs[0].idx != ri {
		return none, false
	}
	if h.srcs[1].kind != srcConst || h.srcs[1].val.K != values.KindInt {
		return none, false
	}
	limit := int64(h.srcs[1].val.A)
	if h.t1 != hd+1 {
		return none, false
	}
	if h.d.kind == riKind && h.d.idx == ri {
		return none, false // compare result clobbers the counter
	}
	// Body: straight-line, pair-safe; the first instruction targeting the
	// header ends it — either the increment itself or a trailing jump.
	l := -1
	for q := hd + 1; q < len(code); q++ {
		in := &code[q]
		r := rowOf(in.opID)
		if r.ctl != ctlJump && (r.ctl != ctlNone || !r.is(opInline)) {
			return none, false
		}
		if in.t1 == hd {
			l = q
			break
		}
		if r.ctl == ctlJump || in.t1 != q+1 || q-p >= regionMax {
			return none, false
		}
	}
	if l < 0 {
		return none, false
	}
	// Exit target must leave the region; handler coverage must be uniform
	// (a raise exits the region instruction at pc p, so findHandler must
	// resolve identically for every covered pc).
	if h.t2 >= p && h.t2 <= l {
		return none, false
	}
	for q := p + 1; q <= l; q++ {
		if !sameHandlers(hs, p, q) {
			return none, false
		}
	}
	// Increment: int.add/int.sub of rI by a constant — the last body
	// instruction before the back edge, and the body's only write to the
	// counter (writes before p re-run through the preheader on every
	// region entry, so they cannot perturb the count).
	incPC := l
	if rowOf(code[l].opID) == opJump {
		incPC = l - 1
	}
	if incPC <= hd {
		return none, false
	}
	inc := &code[incPC]
	ir := rowOf(inc.opID)
	if ir != opIntAdd && ir != opIntSub {
		return none, false
	}
	if inc.d.kind != riKind || inc.d.idx != ri || len(inc.srcs) != 2 {
		return none, false
	}
	if inc.srcs[0].kind != riKind || inc.srcs[0].idx != ri {
		return none, false
	}
	if inc.srcs[1].kind != srcConst || inc.srcs[1].val.K != values.KindInt {
		return none, false
	}
	step := int64(inc.srcs[1].val.A)
	if ir == opIntSub {
		step = -step
	}
	for q := hd + 1; q <= l; q++ {
		if q == incPC {
			continue
		}
		if code[q].d.kind == riKind && code[q].d.idx == ri {
			return none, false
		}
	}
	// Overflow window: with |init|,|limit| <= 2^31 and 1 <= |step| <= 2^31
	// the counter stays far from int64 overflow for any proven-small K.
	const win = int64(1) << 31
	if init < -win || init > win || limit < -win || limit > win {
		return none, false
	}
	if step == 0 || step < -win || step > win {
		return none, false
	}
	if up == (step < 0) {
		return none, false // step walks away from the limit: not bounded
	}
	// Closed-form iteration count.
	var k int64
	switch {
	case up && !incl: // i < limit, step > 0
		if init >= limit {
			k = 0
		} else {
			k = (limit - init + step - 1) / step
		}
	case up: // i <= limit
		if init > limit {
			k = 0
		} else {
			k = (limit-init)/step + 1
		}
	case !incl: // i > limit, step < 0
		if init <= limit {
			k = 0
		} else {
			k = (init - limit + (-step) - 1) / (-step)
		}
	default: // i >= limit
		if init < limit {
			k = 0
		} else {
			k = (init-limit)/(-step) + 1
		}
	}
	preLen := int64(hd - p)
	bodyLen := int64(l - hd)
	bound := preLen + (k + 1) + k*bodyLen
	if bound > loopBoundMax {
		return none, false
	}
	return loopRegion{lo: p, hi: l, hdr: hd - p, bound: int(bound), iters: int(k)}, true
}

// formRegions installs verified regions into tc.code: proven counted loops
// first, then straight-line runs of at least regionMin pair-safe
// instructions with uniform handler coverage. Loop proofs were produced on
// the pre-pair-fusion stream; they stay valid because fusion never moves
// an instruction (orphans keep every pc addressable) and only lowers the
// dispatch count, so the proven bound remains an upper bound.
func formRegions(tc *tierCode, hs []handler, loops []loopRegion) {
	code := tc.code
	claimed := make([]bool, len(code))
	for _, lr := range loops {
		for pc := lr.lo; pc <= lr.hi; pc++ {
			claimed[pc] = true
		}
		installRegion(tc, lr.lo, lr.hi, lr.bound, lr.hdr, lr.iters)
		tc.stats.Loops++
	}
	// Straight-line runs. Branches and jumps are fine inside: a target
	// within the region continues the inner loop (forward progress keeps
	// the dispatch count below the region length), any other target exits
	// it. Backward branches exit too (only a proven loop's back edge may
	// re-enter), so unproven loops run one iteration per entry — correct,
	// just unoptimized.
	for lo := 0; lo < len(code); {
		if claimed[lo] || !rowOf(code[lo].opID).regionSafe() || isPairOrphan(code, lo) {
			lo++
			continue
		}
		hi := lo
		for hi+1 < len(code) && hi+1-lo < regionMax && !claimed[hi+1] &&
			rowOf(code[hi+1].opID).regionSafe() && sameHandlers(hs, lo, hi+1) {
			hi++
		}
		if hi-lo+1 >= regionMin {
			installRegion(tc, lo, hi, hi-lo+1, -1, 0)
			for pc := lo; pc <= hi; pc++ {
				claimed[pc] = true
			}
		}
		lo = hi + 1
	}
}

// orphanMarker is implemented by every fused-pair aux (generic pairs,
// specialized overlay pairs): it names the orphaned second half's pc.
type orphanMarker interface{ orphanPC() int }

// isPairOrphan reports whether code[pc] is the orphaned second half of a
// fused pair: the pair executes it inline and continues past it, so the
// fall-through path would bypass a region installed at pc.
func isPairOrphan(code []Instr, pc int) bool {
	if pc == 0 {
		return false
	}
	m, ok := code[pc-1].aux.(orphanMarker)
	return ok && m.orphanPC() == pc
}

// installRegion replaces tc.code[lo] with a region instruction covering
// [lo, hi]; the covered originals stay in place for side entries.
func installRegion(tc *tierCode, lo, hi, bound, hdr, iters int) {
	ra := &regionAux{
		code:  append([]Instr(nil), tc.code[lo:hi+1]...),
		base:  lo,
		bound: bound,
		hdr:   hdr,
		iters: iters,
	}
	tc.code[lo] = Instr{opID: idOf(opRegion), exec: execRegion, aux: ra, t1: lo + 1}
	tc.stats.Regions++
	tc.stats.Verified += hi - lo + 1
}
