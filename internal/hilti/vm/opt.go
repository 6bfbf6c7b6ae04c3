// Post-lowering optimizer: a small pass pipeline over the linear []Instr
// produced by compile.go. The paper leans on LLVM for "compile-time
// optimization of the instruction stream" (§5); this file substitutes the
// classic subset that pays off for network-analysis code — scalar
// replacement of the (value, iterator) tuples generated parsers take apart
// at once, constant folding, copy propagation, jump threading,
// unreachable-code elimination, and superinstruction fusion of the
// compare-feeds-branch pattern that dominates generated filter and
// firewall loops.
//
// All passes are behavior-preserving, including exception semantics:
// handler ranges are repatched when code is removed, fused instructions
// raise at the compare's pc (the branch half cannot raise), and copy
// propagation is block-local with every jump/switch/handler target acting
// as a barrier.

package vm

import (
	"hilti/internal/rt/values"
)

// OptStats reports what Optimize did to one function.
type OptStats struct {
	Before   int // instructions before optimization
	After    int // instructions after optimization
	Split    int // tuple producers rewritten to two-destination form
	Folded   int // instructions replaced by constant assignments or jumps
	Copies   int // operand reads redirected by copy/constant propagation
	Threaded int // branch targets redirected through jump chains
	Fused    int // compare+branch pairs collapsed
	Removed  int // unreachable instructions deleted
}

// Add accumulates s into the receiver (for whole-program totals).
func (st *OptStats) Add(s OptStats) {
	st.Before += s.Before
	st.After += s.After
	st.Split += s.Split
	st.Folded += s.Folded
	st.Copies += s.Copies
	st.Threaded += s.Threaded
	st.Fused += s.Fused
	st.Removed += s.Removed
}

// defaultOptLevel is the level Link applies; see SetDefaultOptLevel.
var defaultOptLevel = 1

// DefaultOptLevel returns the optimization level Link applies when no
// explicit Options are given.
func DefaultOptLevel() int { return defaultOptLevel }

// SetDefaultOptLevel changes the level Link applies (0 disables the
// optimizer — the -O0 escape hatch). It affects subsequent Link calls
// only; call it before building programs, not concurrently with Link.
func SetDefaultOptLevel(level int) { defaultOptLevel = level }

// Optimize runs the pass pipeline over fn in place and returns statistics.
// Level <= 0 is a no-op.
func Optimize(fn *CompiledFunc, level int) OptStats {
	st := OptStats{Before: len(fn.Code), After: len(fn.Code)}
	if level <= 0 || len(fn.Code) == 0 {
		return st
	}
	// Computed once for the passes below: they add no control edges
	// (constFold only turns a two-way branch into a jump), so the set stays
	// a safe over-approximation.
	lead := leaders(fn)
	splitTuples(fn, lead, &st) // first: it leaves moves for copyProp to forward
	// Propagation and folding feed each other (a propagated constant can
	// complete an all-const operand set), so run them twice.
	for i := 0; i < 2; i++ {
		copyProp(fn, lead, &st)
		constFold(fn, &st)
	}
	threadJumps(fn, &st)
	fuseCmpBr(fn, &st)
	threadJumps(fn, &st) // fused branches expose new chains
	removeUnreachable(fn, &st)
	st.After = len(fn.Code)
	// Level 2: eager ahead-of-time tiering. Runtime promotion
	// (Exec.EnableTiering) builds the same tier-2 code, only later.
	if level >= 2 {
		fn.tiered.Store(true)
		if tc := buildTier2(fn); tc != nil {
			fn.tier2.Store(tc)
		}
	}
	return st
}

// isBranch reports whether in's t2 is a control-flow target (if.else,
// fused compare-and-branch, and tier-2 overlay pairs, whose second half is
// one of those).
func isBranch(in *Instr) bool { return rowOf(in.opID).ctl == ctlBranch }

// successors appends the control successors of fn.Code[pc] to buf.
func successors(fn *CompiledFunc, pc int, buf []int) []int {
	in := &fn.Code[pc]
	switch rowOf(in.opID).ctl {
	case ctlJump:
		return append(buf, in.t1)
	case ctlBranch:
		return append(buf, in.t1, in.t2)
	case ctlSwitch:
		buf = append(buf, in.t1)
		return append(buf, in.aux.(*switchTable).targets...)
	case ctlReturn:
		return buf
	default:
		// Straight-line instruction: falls through to t1. Raising paths
		// are covered by the handler fixpoint in removeUnreachable.
		return append(buf, in.t1)
	}
}

// leaders marks every pc that can be entered from somewhere other than the
// preceding instruction: explicit branch targets, switch cases, and
// exception-handler entry points.
func leaders(fn *CompiledFunc) []bool {
	lead := make([]bool, len(fn.Code)+1)
	var buf []int
	for pc := range fn.Code {
		if rowOf(fn.Code[pc].opID).ctl != ctlNone {
			buf = successors(fn, pc, buf[:0])
			for _, t := range buf {
				lead[t] = true
			}
		}
	}
	for i := range fn.Handlers {
		lead[fn.Handlers[i].target] = true
	}
	return lead
}

// copyProp performs block-local copy and constant propagation: after
// `assign d, s` (s a register or constant), later reads of d within the
// same straight-line region are redirected to s. Any instruction that can
// be entered from elsewhere resets the tracked set; writing a register
// kills bindings involving it.
func copyProp(fn *CompiledFunc, lead []bool, st *OptStats) {
	copies := map[int32]src{}
	for pc := range fn.Code {
		if lead[pc] {
			clear(copies)
		}
		in := &fn.Code[pc]
		reshaped := false
		for i := range in.srcs {
			was := in.srcs[i].kind
			substSrc(&in.srcs[i], copies, st)
			reshaped = reshaped || in.srcs[i].kind != was
		}
		// A substitution that changed an operand's kind (register →
		// constant) invalidates a shape-specialized executor chosen at
		// lowering time; re-pick for the new shape.
		if r := rowOf(in.opID); reshaped && r.pick != nil {
			in.exec = r.shapeExec(in.srcs, in.d)
		}
		if in.d2 != 0 {
			killCopies(copies, in.d2)
		}
		if in.d.kind != srcReg {
			continue
		}
		w := in.d.idx
		killCopies(copies, w)
		if rowOf(in.opID) == opAssign && len(in.srcs) == 1 {
			if s := in.srcs[0]; (s.kind == srcConst || s.kind == srcReg) &&
				!(s.kind == srcReg && s.idx == w) {
				copies[w] = s
			}
		}
	}
}

// killCopies drops every binding that a write to register w invalidates.
func killCopies(copies map[int32]src, w int32) {
	if len(copies) == 0 {
		return
	}
	delete(copies, w)
	for r, rep := range copies {
		if rep.kind == srcReg && rep.idx == w {
			delete(copies, r)
		}
	}
}

func substSrc(s *src, copies map[int32]src, st *OptStats) {
	switch s.kind {
	case srcReg:
		if rep, ok := copies[s.idx]; ok {
			*s = rep
			st.Copies++
		}
	case srcCtor:
		for i := range s.subs {
			substSrc(&s.subs[i], copies, st)
		}
	}
}

// splitTuples is scalar replacement for the tuples of two-result ops
// (two1/two2 rows). Generated parsers write `t = unpack…; v = tuple.index t 0;
// cur = tuple.index t 1`: the tuple lives for two instructions and costs
// two heap objects. For a register whose every definition is such an op,
// whose every read is a tuple.index with a constant in-range index, and
// whose definitions dominate those reads (no read can execute before one
// of them has completed), each producer gets a second destination —
// component 0 goes to the old tuple register, component 1 to a fresh one —
// and each tuple.index becomes a move from the component, which copyProp
// then forwards. A tuple that is passed, stored, returned or indexed
// dynamically anywhere keeps the boxed form, as does all code at O0 — the
// reference the split form is tested against.
//
// A call is such a producer when every return of its callee is a
// two-element constructor (returnsPair): the callee's return leaves the
// constructor unbuilt (execReturnPair) and transfer writes its components
// to the split call's two registers, so no tuple is built on either side.
func splitTuples(fn *CompiledFunc, lead []bool, st *OptStats) {
	var prods, reads []int
	for pc := range fn.Code {
		in := &fn.Code[pc]
		if in.d.kind == srcReg && in.d2 == 0 && isTwoProducer(in) {
			prods = append(prods, pc)
		} else if isComponentRead(in) {
			reads = append(reads, pc)
		}
	}
	if len(prods) == 0 || len(reads) == 0 {
		return
	}
	// other[r]: the register is defined by something that is not one of
	// prods (parameters and catch variables included) or read by something
	// that is not a component read.
	other := make([]bool, fn.NRegs)
	for r := 0; r < fn.NParams; r++ {
		other[r] = true
	}
	for i := range fn.Handlers {
		other[fn.Handlers[i].excReg] = true
	}
	var escape func(s *src)
	escape = func(s *src) {
		switch s.kind {
		case srcReg:
			other[s.idx] = true
		case srcCtor:
			for i := range s.subs {
				escape(&s.subs[i])
			}
		}
	}
	isProd := make([]bool, len(fn.Code))
	for _, p := range prods {
		isProd[p] = true
	}
	for pc := range fn.Code {
		in := &fn.Code[pc]
		if in.d.kind == srcReg && !isProd[pc] {
			other[in.d.idx] = true
		}
		if in.d2 != 0 {
			other[in.d2] = true
		}
		for i := range in.srcs {
			if i > 0 || !isComponentRead(in) {
				escape(&in.srcs[i])
			}
		}
	}
	for _, p := range prods {
		r := fn.Code[p].d.idx
		if other[r] {
			continue
		}
		other[r] = true // visit each register once
		// cut marks r's producers; a read they do not dominate can be
		// reached from entry without passing one of them.
		cut := make([]bool, len(fn.Code))
		split := true
		for _, o := range prods {
			if in := &fn.Code[o]; in.d.idx == r {
				cut[o] = true
				if ct, ok := in.aux.(*callTarget); ok && split {
					split = returnsPair(ct.fn)
				}
			}
		}
		var undominated []bool
		for _, q := range reads {
			if fn.Code[q].srcs[0].idx != r {
				continue
			}
			// Cheap case: q is reached only by falling through from a producer.
			pc := q
			for pc > 0 && !lead[pc] && !cut[pc-1] {
				pc--
			}
			if pc == 0 || lead[pc] {
				if undominated == nil {
					undominated = reachable(fn, cut)
				}
				split = split && !undominated[q]
			}
		}
		if !split {
			continue
		}
		comp := [2]int32{r, int32(fn.NRegs)}
		fn.NRegs++
		for pc, yes := range cut {
			if yes {
				fn.Code[pc].d2 = comp[1]
				st.Split++
			}
		}
		for _, q := range reads {
			if in := &fn.Code[q]; in.srcs[0].idx == r {
				*in = Instr{opID: idOf(opAssign), exec: execAssign,
					d: in.d, srcs: []src{{kind: srcReg, idx: comp[in.srcs[1].val.A]}}, t1: in.t1}
			}
		}
	}
}

// isTwoProducer reports whether in is a two-result op or a call of a compiled
// function — whose returns splitTuples checks only once the destination
// qualifies otherwise.
func isTwoProducer(in *Instr) bool {
	switch aux := in.aux.(type) {
	case twoBody1, twoBody2:
		return true
	case *callTarget:
		return aux.fn != nil && rowOf(in.opID) == opCall
	}
	return false
}

// isComponentRead reports whether in is `tuple.index <reg> <const 0|1>`.
func isComponentRead(in *Instr) bool {
	return rowOf(in.opID) == opTupleIndex && len(in.srcs) == 2 &&
		in.srcs[0].kind == srcReg && in.srcs[1].kind == srcConst &&
		in.srcs[1].val.K == values.KindInt && in.srcs[1].val.A < 2
}

// constFold replaces pure instructions whose operands are all constants
// with a constant assignment, and if.else on a constant condition with an
// unconditional jump. An instruction that raises is left to raise at
// runtime.
func constFold(fn *CompiledFunc, st *OptStats) {
	for pc := range fn.Code {
		in := &fn.Code[pc]
		r := rowOf(in.opID)
		if r == opIfElse && len(in.srcs) == 1 && in.srcs[0].kind == srcConst {
			t := in.t2
			if values.IsTruthy(in.srcs[0].val) {
				t = in.t1
			}
			fn.Code[pc] = Instr{opID: idOf(opJump), exec: execJump, t1: t}
			st.Folded++
			continue
		}
		if !r.folds() || in.d.kind == srcNone || len(in.srcs) == 0 || !allConst(in.srcs) {
			continue
		}
		args := make([]values.Value, len(in.srcs))
		for i := range in.srcs {
			args[i] = in.srcs[i].val
		}
		v, err := r.fn(nil, args)
		if err != nil {
			continue
		}
		fn.Code[pc] = Instr{opID: idOf(opAssign), exec: execAssign,
			d: in.d, srcs: []src{{kind: srcConst, val: v}}, t1: in.t1}
		st.Folded++
	}
}

func allConst(srcs []src) bool {
	for i := range srcs {
		if srcs[i].kind != srcConst {
			return false
		}
	}
	return true
}

// finalTarget follows chains of unconditional jumps starting at t. Cycles
// (empty infinite loops) terminate via the hop bound.
func finalTarget(code []Instr, t int) int {
	for hops := 0; hops <= len(code); hops++ {
		if t < 0 || t >= len(code) || rowOf(code[t].opID).ctl != ctlJump {
			return t
		}
		nt := code[t].t1
		if nt == t {
			return t
		}
		t = nt
	}
	return t
}

// threadJumps redirects every control edge that lands on an unconditional
// jump to the jump's final destination. t1 of a straight-line instruction
// is its fallthrough edge, so this also short-circuits "fall into a jump".
func threadJumps(fn *CompiledFunc, st *OptStats) {
	code := fn.Code
	thread := func(t int) int {
		ft := finalTarget(code, t)
		if ft != t {
			st.Threaded++
		}
		return ft
	}
	for pc := range code {
		retarget(&code[pc], thread)
	}
	for i := range fn.Handlers {
		fn.Handlers[i].target = thread(fn.Handlers[i].target)
	}
}

// retarget rewrites every control target of in through f; a compare's
// t2, still its fallthrough, follows t1.
func retarget(in *Instr, f func(int) int) {
	r := rowOf(in.opID)
	switch r.ctl {
	case ctlReturn:
		// t1 unused.
	case ctlBranch:
		in.t1, in.t2 = f(in.t1), f(in.t2)
	case ctlSwitch:
		in.t1 = f(in.t1)
		tbl := in.aux.(*switchTable)
		for i := range tbl.targets {
			tbl.targets[i] = f(tbl.targets[i])
		}
	default:
		in.t1 = f(in.t1)
		if r.twin != nil {
			in.t2 = in.t1
		}
	}
}

// fuseCmpBr collapses a compare whose result falls through into an if.else
// on that same register into its fused compare-and-branch form: the same
// executor, retargeted to the if.else's targets. The boolean is still
// written to its destination register (other paths may jump directly to
// the if.else or read the flag later); the orphaned if.else survives at
// its pc unless unreachable-code elimination proves no one else targets
// it. The fused instruction raises at the compare's pc, so handler
// resolution is unchanged.
func fuseCmpBr(fn *CompiledFunc, st *OptStats) {
	code := fn.Code
	for pc := range code {
		in := &code[pc]
		r := rowOf(in.opID)
		if r.twin == nil || in.d.kind != srcReg {
			continue
		}
		t := in.t1
		if t < 0 || t >= len(code) || t == pc {
			continue
		}
		br := &code[t]
		if rowOf(br.opID) != opIfElse || len(br.srcs) != 1 ||
			br.srcs[0].kind != srcReg || br.srcs[0].idx != in.d.idx {
			continue
		}
		in.opID = idOf(r.twin)
		in.t1, in.t2 = br.t1, br.t2
		st.Fused++
	}
}

// reachable marks every pc control can reach from pc 0, a raise anywhere
// inside a handler's protected range reaching the handler's target. The
// walk does not continue past an instruction in cut (nil: none), though its
// raise edges still count: what stays reachable is what can execute without
// any of cut having completed, i.e. everything cut does not dominate.
func reachable(fn *CompiledFunc, cut []bool) []bool {
	n := len(fn.Code)
	reach := make([]bool, n)
	var stack, buf []int
	push := func(pc int) {
		if pc >= 0 && pc < n && !reach[pc] {
			reach[pc] = true
			stack = append(stack, pc)
		}
	}
	drain := func() {
		for len(stack) > 0 {
			pc := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cut != nil && cut[pc] {
				continue
			}
			buf = successors(fn, pc, buf[:0])
			for _, t := range buf {
				push(t)
			}
		}
	}
	push(0)
	drain()
	// A handler target becomes reachable once any instruction in its
	// protected range is; iterate to a fixpoint (handlers can chain).
	for changed := true; changed; {
		changed = false
		for i := range fn.Handlers {
			h := &fn.Handlers[i]
			if reach[h.target] {
				continue
			}
			for pc := h.start; pc < h.end && pc < n; pc++ {
				if reach[pc] {
					push(h.target)
					drain()
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// removeUnreachable deletes instructions no control or exception path can
// reach, then repatches every pc-valued field: jump targets, switch
// tables, and handler ranges/targets. Handlers whose protected range ends
// up empty are dropped.
func removeUnreachable(fn *CompiledFunc, st *OptStats) {
	n := len(fn.Code)
	reach := reachable(fn, nil)

	kept := 0
	for pc := 0; pc < n; pc++ {
		if reach[pc] {
			kept++
		}
	}
	if kept == n {
		return
	}
	// remap[pc] = number of kept instructions before pc, i.e. the new pc
	// of a kept instruction and the insertion point for range bounds.
	remap := make([]int, n+1)
	for pc, k := 0, 0; pc < n; pc++ {
		remap[pc] = k
		if reach[pc] {
			k++
		}
	}
	remap[n] = kept

	newCode := make([]Instr, 0, kept)
	remapT := func(t int) int { return remap[t] }
	for pc := 0; pc < n; pc++ {
		if !reach[pc] {
			continue
		}
		in := fn.Code[pc]
		retarget(&in, remapT)
		newCode = append(newCode, in)
	}
	st.Removed += n - kept
	fn.Code = newCode

	newHandlers := fn.Handlers[:0]
	for _, h := range fn.Handlers {
		h.start, h.end = remap[h.start], remap[h.end]
		if h.start >= h.end || !reach[clampPC(h.target, n)] {
			continue
		}
		h.target = remap[h.target]
		newHandlers = append(newHandlers, h)
	}
	fn.Handlers = newHandlers
}

func clampPC(pc, n int) int {
	if pc < 0 {
		return 0
	}
	if pc >= n {
		return n - 1
	}
	return pc
}

// StaticInstrCount sums the post-optimization instruction counts of every
// distinct compiled function (hook bodies included).
func (p *Program) StaticInstrCount() int {
	total := 0
	p.eachFunc(func(fn *CompiledFunc) { total += len(fn.Code) })
	return total
}

// Residue is what of a program's code still takes a generic path:
// struct field accesses by index and by name (the latter only on operands
// of type any), and instructions whose executor gathers its operands
// through Exec.operands — variadic ops, host and builtin calls, hook.run
// and classifier.get on a constructor key.
type Residue struct{ IndexFields, NameFields, Gathering int }

// Residue counts the generic paths left in p's code.
func (p *Program) Residue() (res Residue) {
	p.eachFunc(func(fn *CompiledFunc) {
		for pc := range fn.Code {
			in := &fn.Code[pc]
			r := rowOf(in.opID)
			if r.idx != nil {
				res.NameFields++
			}
			switch aux := in.aux.(type) {
			case *values.StructDef: // a field index form
				res.IndexFields++
			case simpleFn, *hookTarget:
				res.Gathering++
			case *callTarget:
				if aux.fn == nil {
					res.Gathering++
				}
			default:
				if r.name == "classifier.get" && in.srcs[1].kind == srcCtor {
					res.Gathering++
				}
			}
		}
	})
	return res
}

// eachFunc calls f once for every distinct compiled function of p, hook
// bodies included.
func (p *Program) eachFunc(f func(fn *CompiledFunc)) {
	seen := map[*CompiledFunc]bool{}
	visit := func(fn *CompiledFunc) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			f(fn)
		}
	}
	for _, fn := range p.Funcs {
		visit(fn)
	}
	for _, bodies := range p.HookBodies {
		for _, fn := range bodies {
			visit(fn)
		}
	}
}
