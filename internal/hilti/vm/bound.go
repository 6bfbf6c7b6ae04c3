// Verified budget elision: the region executor of tier-2 (tier2.go).
//
// The tier-1 dispatch loop pays a budget check before every instruction so
// vm.Limits can stop runaway code at a precise point. Inside a straight-line
// run of N instructions that check is provably redundant: control only
// moves forward, so the run executes at most N of them. Tier-2 groups such
// runs into "verified regions": one region instruction replaces the run's
// first pc, executes the covered instructions in a tight inner loop with no
// per-instruction budget check, and charges the exact executed count at
// exit. Soundness is two-sided:
//
//   - Never under-charge: every executed instruction is counted (the inner
//     loop counts dispatches; the outer loop already counted the region
//     instruction itself as one step).
//   - Never overshoot a limit: the region is entered only when its bound
//     fits entirely below the next budget checkpoint
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

import "fmt"

const (
	// regionMin is the minimum instruction count worth a region.
	regionMin = 4
	// regionMax caps a region's instruction span.
	regionMax = 256
)

// regionAux is the payload of a "region" instruction.
type regionAux struct {
	code []Instr // copies of the covered instructions (absolute targets)
	base int     // pc of the region head (code[0]'s original pc)
}

// execRegion runs a verified region: dispatch the covered instructions
// without per-instruction budget checks, then charge the exact count.
func execRegion(ex *Exec, fr *Frame, in *Instr) int {
	ra := in.aux.(*regionAux)
	code := ra.code
	if ex.budget.steps+uint64(len(code)) >= ex.budget.nextCheck {
		// A budget checkpoint (or the limit itself) falls inside the
		// region's bound: degrade to per-instruction execution so the trip
		// fires at its precise pc. Run just the head instruction — every
		// later pc still holds its original tier-1 instruction.
		return code[0].exec(ex, fr, &code[0])
	}
	i, n := 0, 0
	for {
		if n >= len(code) {
			// Forward-only progress makes this unreachable; bail to the
			// outer checked loop rather than run unbounded.
			if tierDebug {
				panic(fmt.Sprintf("vm: verified region at pc %d exceeded its bound %d",
					ra.base, len(code)))
			}
			ex.budget.steps += uint64(n - 1)
			return ra.base + i
		}
		t := code[i].exec(ex, fr, &code[i])
		n++
		if ni := t - ra.base; ni > i && ni < len(code) {
			i = ni // forward progress within the region
		} else {
			// Leaving the region: fall-through past the end, branch out,
			// return, raise, or retry. Charge the extra dispatches (the
			// outer loop already counted the region entry as one step).
			ex.budget.steps += uint64(n - 1)
			return t
		}
	}
}

// formRegions installs verified regions into tc.code: straight-line runs
// of at least regionMin region-safe instructions with uniform handler
// coverage. Branches and jumps are fine inside: a target within the region
// continues the inner loop (forward progress keeps the dispatch count below
// the region length), any other target exits it. Backward branches exit
// too, so a loop runs one iteration per entry — correct, just unoptimized.
// A fused overlay pair's orphan never heads a region: the pair executes
// the orphan inline and continues past it, so the fall-through path would
// bypass the region installed there.
func formRegions(tc *tierCode, hs []handler) {
	code := tc.code
	for lo := 0; lo < len(code); {
		if !rowOf(code[lo].opID).regionSafe() || isPairOrphan(code, lo) {
			lo++
			continue
		}
		hi := lo
		for hi+1 < len(code) && hi+1-lo < regionMax &&
			rowOf(code[hi+1].opID).regionSafe() && sameHandlers(hs, lo, hi+1) {
			hi++
		}
		if hi-lo+1 >= regionMin {
			installRegion(tc, lo, hi)
		}
		lo = hi + 1
	}
}

// isPairOrphan reports whether code[pc] is the orphaned second half of a
// fused overlay pair.
func isPairOrphan(code []Instr, pc int) bool {
	if pc == 0 {
		return false
	}
	oa, ok := code[pc-1].aux.(*overlayCmpAux)
	return ok && oa.bpc == pc
}

// installRegion replaces tc.code[lo] with a region instruction covering
// [lo, hi]; the covered originals stay in place for side entries.
func installRegion(tc *tierCode, lo, hi int) {
	ra := &regionAux{code: append([]Instr(nil), tc.code[lo:hi+1]...), base: lo}
	tc.code[lo] = Instr{opID: idOf(opRegion), exec: execRegion, aux: ra, t1: lo + 1}
	tc.stats.Regions++
	tc.stats.Verified += hi - lo + 1
}
