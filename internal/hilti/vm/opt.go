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
	"strings"

	"hilti/internal/hilti/types"
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
	// Level 2: eager ahead-of-time tiering. With no runtime profile every
	// safe pair is fused, which keeps -O2 deterministic; runtime promotion
	// (Exec.EnableTiering) reaches the same tier guided by measured pair
	// frequencies instead.
	if level >= 2 {
		fn.tierState.Store(tierActive)
		if tc := buildTier2(fn, nil, tierConfig{pairs: true, regions: true}); tc != nil {
			fn.tier2.Store(tc)
		}
	}
	return st
}

// isBranch reports whether in's t2 is a control-flow target (if.else,
// fused compare-and-branch, and tier-2 pairs whose second half is one of
// those). For every other instruction t2 is either unused or data
// (overlay.get keeps a field index there).
func isBranch(in *Instr) bool {
	return in.op == "if.else" || strings.HasSuffix(in.op, "+br") ||
		strings.HasSuffix(in.op, "+if.else")
}

// successors appends the control successors of fn.Code[pc] to buf.
func successors(fn *CompiledFunc, pc int, buf []int) []int {
	in := &fn.Code[pc]
	switch {
	case in.op == "jump":
		return append(buf, in.t1)
	case isBranch(in):
		return append(buf, in.t1, in.t2)
	case in.op == "switch":
		buf = append(buf, in.t1)
		return append(buf, in.aux.(*switchTable).targets...)
	case in.op == "return.void" || in.op == "return.result":
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
		in := &fn.Code[pc]
		if in.op == "jump" || isBranch(in) || in.op == "switch" {
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
		if reshaped {
			if pick, ok := reshapers[in.op]; ok {
				in.exec = pick(in.srcs, in.d)
			}
		}
		if in.d2 != 0 {
			killCopies(copies, in.d2)
		}
		if in.d.kind != srcReg {
			continue
		}
		w := in.d.idx
		killCopies(copies, w)
		if in.op == "assign" && len(in.srcs) == 1 {
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
// (registerTwo). Generated parsers write `t = unpack…; v = tuple.index t 0;
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
func splitTuples(fn *CompiledFunc, lead []bool, st *OptStats) {
	var prods, reads []int
	for pc := range fn.Code {
		in := &fn.Code[pc]
		if _, ok := in.aux.(twoFn); ok && in.d.kind == srcReg && in.d2 == 0 {
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
		for _, o := range prods {
			cut[o] = fn.Code[o].d.idx == r
		}
		var undominated []bool
		split := true
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
				*in = Instr{op: "assign", opID: internOp("assign"), exec: execAssign,
					d: in.d, srcs: []src{{kind: srcReg, idx: comp[in.srcs[1].val.A]}}, t1: in.t1}
			}
		}
		if int(r) < len(fn.RegTypes) { // the register now holds component 0
			if t := fn.RegTypes[r]; t != nil && t.Kind == types.Tuple && len(t.Params) == 2 {
				fn.RegTypes[r] = t.Params[0]
			} else {
				fn.RegTypes[r] = nil
			}
		}
	}
}

// isComponentRead reports whether in is `tuple.index <reg> <const 0|1>`.
func isComponentRead(in *Instr) bool {
	return in.op == "tuple.index" && len(in.srcs) == 2 &&
		in.srcs[0].kind == srcReg && in.srcs[1].kind == srcConst &&
		in.srcs[1].val.K == values.KindInt && in.srcs[1].val.A < 2
}

// foldKind classifies how an op with all-constant operands is evaluated at
// compile time.
type foldKind uint8

const (
	foldNone    foldKind = iota
	foldIntBin           // aux func(x, y int64) int64
	foldIntCmp           // aux func(x, y int64) bool
	foldEqual            // values.Equal (no aux)
	foldUnequal          // !values.Equal (no aux)
	foldNetHas           // Value.NetContains (no aux)
	foldPure             // aux simpleFn, pure and Exec-independent
)

// foldable lists ops whose results depend only on their operands. Stateful
// ops (containers, bytes, calls, runtime services) are deliberately
// absent; pure-but-fallible ops are included and skipped when they error.
var foldable = map[string]foldKind{
	"int.add": foldIntBin, "int.sub": foldIntBin, "int.mul": foldIntBin,
	"int.eq": foldIntCmp, "int.lt": foldIntCmp, "int.gt": foldIntCmp,
	"int.leq": foldIntCmp, "int.geq": foldIntCmp,
	"equal": foldEqual, "unequal": foldUnequal, "net.contains": foldNetHas,

	"int.div": foldPure, "int.mod": foldPure, "int.shl": foldPure,
	"int.shr": foldPure, "int.and": foldPure, "int.or": foldPure,
	"int.xor": foldPure, "int.ult": foldPure, "int.ugt": foldPure,
	"int.to_double": foldPure, "int.to_time": foldPure,
	"int.to_interval": foldPure, "int.to_string": foldPure,
	"double.add": foldPure, "double.sub": foldPure, "double.mul": foldPure,
	"double.div": foldPure, "double.lt": foldPure, "double.gt": foldPure,
	"double.leq": foldPure, "double.geq": foldPure, "double.to_int": foldPure,
	"double.to_interval": foldPure, "double.to_time": foldPure,
	"bool.and": foldPure, "bool.or": foldPure, "bool.not": foldPure,
	"and": foldPure, "or": foldPure, "not": foldPure,
	"string.concat": foldPure, "string.length": foldPure,
	"string.lower": foldPure, "string.upper": foldPure,
	"string.find": foldPure, "string.to_int": foldPure,
	"time.add": foldPure, "time.sub": foldPure, "time.lt": foldPure,
	"time.gt": foldPure, "time.nsecs": foldPure, "time.to_double": foldPure,
	"interval.add": foldPure, "interval.sub": foldPure,
	"interval.mul": foldPure, "interval.lt": foldPure,
	"interval.gt": foldPure, "interval.nsecs": foldPure,
	"interval.to_double": foldPure,
	"addr.family":        foldPure, "net.family": foldPure, "net.length": foldPure,
	"port.protocol": foldPure, "port.number": foldPure,
	"enum.to_int": foldPure, "bitset.set": foldPure, "bitset.clear": foldPure,
	"bitset.has": foldPure, "tuple.index": foldPure, "tuple.length": foldPure,
}

// constFold replaces pure instructions whose operands are all constants
// with a constant assignment, and if.else on a constant condition with an
// unconditional jump.
func constFold(fn *CompiledFunc, st *OptStats) {
	for pc := range fn.Code {
		in := &fn.Code[pc]
		if in.op == "if.else" && len(in.srcs) == 1 && in.srcs[0].kind == srcConst {
			t := in.t2
			if values.IsTruthy(in.srcs[0].val) {
				t = in.t1
			}
			fn.Code[pc] = Instr{op: "jump", opID: internOp("jump"), exec: execJump, t1: t}
			st.Folded++
			continue
		}
		fk := foldable[in.op]
		if fk == foldNone || in.d.kind == srcNone || len(in.srcs) == 0 || !allConst(in.srcs) {
			continue
		}
		v, ok := evalConst(in, fk)
		if !ok {
			continue
		}
		fn.Code[pc] = Instr{op: "assign", opID: internOp("assign"), exec: execAssign,
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

func evalConst(in *Instr, fk foldKind) (values.Value, bool) {
	switch fk {
	case foldIntBin:
		fn, ok := in.aux.(func(x, y int64) int64)
		if !ok || len(in.srcs) != 2 {
			return values.Nil, false
		}
		return values.Int(fn(in.srcs[0].val.AsInt(), in.srcs[1].val.AsInt())), true
	case foldIntCmp:
		fn, ok := in.aux.(func(x, y int64) bool)
		if !ok || len(in.srcs) != 2 {
			return values.Nil, false
		}
		return values.Bool(fn(in.srcs[0].val.AsInt(), in.srcs[1].val.AsInt())), true
	case foldEqual:
		if len(in.srcs) != 2 {
			return values.Nil, false
		}
		return values.Bool(values.Equal(in.srcs[0].val, in.srcs[1].val)), true
	case foldUnequal:
		if len(in.srcs) != 2 {
			return values.Nil, false
		}
		return values.Bool(!values.Equal(in.srcs[0].val, in.srcs[1].val)), true
	case foldNetHas:
		if len(in.srcs) != 2 {
			return values.Nil, false
		}
		return values.Bool(in.srcs[0].val.NetContains(in.srcs[1].val)), true
	case foldPure:
		fn, ok := in.aux.(simpleFn)
		if !ok {
			return values.Nil, false
		}
		args := make([]values.Value, len(in.srcs))
		for i := range in.srcs {
			args[i] = in.srcs[i].val
		}
		v, err := fn(nil, args)
		if err != nil {
			return values.Nil, false // raises at runtime; leave it alone
		}
		return v, true
	}
	return values.Nil, false
}

// finalTarget follows chains of unconditional jumps starting at t. Cycles
// (empty infinite loops) terminate via the hop bound.
func finalTarget(code []Instr, t int) int {
	for hops := 0; hops <= len(code); hops++ {
		if t < 0 || t >= len(code) || code[t].op != "jump" {
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
	retarget := func(t int) int {
		ft := finalTarget(code, t)
		if ft != t {
			st.Threaded++
		}
		return ft
	}
	for pc := range code {
		in := &code[pc]
		switch {
		case in.op == "return.void" || in.op == "return.result":
			// t1 unused.
		case isBranch(in):
			in.t1 = retarget(in.t1)
			in.t2 = retarget(in.t2)
		case in.op == "switch":
			in.t1 = retarget(in.t1)
			tbl := in.aux.(*switchTable)
			for i := range tbl.targets {
				tbl.targets[i] = retarget(tbl.targets[i])
			}
		default:
			in.t1 = retarget(in.t1)
		}
	}
	for i := range fn.Handlers {
		fn.Handlers[i].target = retarget(fn.Handlers[i].target)
	}
}

// fuseCmpBr collapses a compare whose result falls through into an if.else
// on that same register into one fused compare-and-branch instruction. The
// boolean is still written to its destination register (other paths may
// jump directly to the if.else or read the flag later); the orphaned
// if.else survives at its pc unless unreachable-code elimination proves no
// one else targets it. Fused instructions raise at the compare's pc, so
// handler resolution is unchanged.
func fuseCmpBr(fn *CompiledFunc, st *OptStats) {
	code := fn.Code
	for pc := range code {
		in := &code[pc]
		mk := fuseMaker(in)
		if mk == nil || in.d.kind != srcReg {
			continue
		}
		t := in.t1
		if t < 0 || t >= len(code) || t == pc {
			continue
		}
		br := &code[t]
		if br.op != "if.else" || len(br.srcs) != 1 ||
			br.srcs[0].kind != srcReg || br.srcs[0].idx != in.d.idx {
			continue
		}
		in.exec = mk
		in.op += "+br"
		in.opID = internOp(in.op)
		in.t1, in.t2 = br.t1, br.t2
		st.Fused++
	}
}

// fuseSimple lists simpleFn-dispatched ops that produce a boolean and may
// be fused with a following branch. They keep their aux closure; the fused
// executor adds the branch after the regular evaluate-and-store.
var fuseSimple = map[string]bool{
	"double.lt": true, "double.gt": true, "double.leq": true,
	"double.geq": true, "int.ult": true, "int.ugt": true,
	"time.lt": true, "time.gt": true, "interval.lt": true,
	"interval.gt": true, "bool.and": true, "bool.or": true,
	"bool.not": true, "and": true, "or": true, "not": true,
	"iterator.eq": true, "iterator.at_end": true,
	"iterator.at_end_now": true, "struct.is_set": true, "bitset.has": true,
}

// fuseMaker picks the fused executor for in, or nil when in cannot fuse.
func fuseMaker(in *Instr) func(*Exec, *Frame, *Instr) int {
	switch in.op {
	case "int.eq", "int.lt", "int.gt", "int.leq", "int.geq":
		if _, ok := in.aux.(func(x, y int64) bool); !ok || len(in.srcs) != 2 {
			return nil
		}
		switch {
		case in.srcs[0].kind == srcReg && in.srcs[1].kind == srcReg:
			return execFusedIntCmpRR
		case in.srcs[0].kind == srcReg && in.srcs[1].kind == srcConst:
			return execFusedIntCmpRC
		default:
			return execFusedIntCmpGen
		}
	case "equal", "unequal":
		neg := in.op == "unequal"
		if len(in.srcs) != 2 {
			return nil
		}
		if !neg && in.srcs[0].kind == srcReg && in.srcs[1].kind == srcConst {
			return execFusedEqualRC
		}
		if neg {
			return execFusedUnequalGen
		}
		return execFusedEqualGen
	case "net.contains":
		if len(in.srcs) != 2 {
			return nil
		}
		return execFusedNetContainsGen
	case "set.exists":
		if len(in.srcs) != 2 {
			return nil
		}
		return execFusedSetExists
	case "map.exists":
		if len(in.srcs) != 2 {
			return nil
		}
		return execFusedMapExists
	default:
		if !fuseSimple[in.op] {
			return nil
		}
		if _, ok := in.aux.(simpleFn); !ok {
			return nil
		}
		return execFusedSimple
	}
}

func (in *Instr) branch(b bool) int {
	if b {
		return in.t1
	}
	return in.t2
}

func execFusedIntCmpRR(ex *Exec, fr *Frame, in *Instr) int {
	b := in.aux.(func(x, y int64) bool)(
		int64(fr.R[in.srcs[0].idx].A), int64(fr.R[in.srcs[1].idx].A))
	fr.R[in.d.idx] = values.Bool(b)
	return in.branch(b)
}

func execFusedIntCmpRC(ex *Exec, fr *Frame, in *Instr) int {
	b := in.aux.(func(x, y int64) bool)(
		int64(fr.R[in.srcs[0].idx].A), int64(in.srcs[1].val.A))
	fr.R[in.d.idx] = values.Bool(b)
	return in.branch(b)
}

func execFusedIntCmpGen(ex *Exec, fr *Frame, in *Instr) int {
	b := in.aux.(func(x, y int64) bool)(
		ex.get(fr, &in.srcs[0]).AsInt(), ex.get(fr, &in.srcs[1]).AsInt())
	ex.put(fr, in.d, values.Bool(b))
	return in.branch(b)
}

func execFusedEqualRC(ex *Exec, fr *Frame, in *Instr) int {
	b := values.Equal(fr.R[in.srcs[0].idx], in.srcs[1].val)
	fr.R[in.d.idx] = values.Bool(b)
	return in.branch(b)
}

func execFusedEqualGen(ex *Exec, fr *Frame, in *Instr) int {
	b := values.Equal(ex.get(fr, &in.srcs[0]), ex.get(fr, &in.srcs[1]))
	ex.put(fr, in.d, values.Bool(b))
	return in.branch(b)
}

func execFusedUnequalGen(ex *Exec, fr *Frame, in *Instr) int {
	b := !values.Equal(ex.get(fr, &in.srcs[0]), ex.get(fr, &in.srcs[1]))
	ex.put(fr, in.d, values.Bool(b))
	return in.branch(b)
}

func execFusedNetContainsGen(ex *Exec, fr *Frame, in *Instr) int {
	b := ex.get(fr, &in.srcs[0]).NetContains(ex.get(fr, &in.srcs[1]))
	ex.put(fr, in.d, values.Bool(b))
	return in.branch(b)
}

func execFusedSetExists(ex *Exec, fr *Frame, in *Instr) int {
	s, err := asSet(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	b := setExists(ex, fr, s, &in.srcs[1])
	ex.put(fr, in.d, values.Bool(b))
	return in.branch(b)
}

func execFusedMapExists(ex *Exec, fr *Frame, in *Instr) int {
	m, err := asMap(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	b := mapExists(ex, fr, m, &in.srcs[1])
	ex.put(fr, in.d, values.Bool(b))
	return in.branch(b)
}

// execFusedSimple is execSimple plus the branch on the stored boolean.
func execFusedSimple(ex *Exec, fr *Frame, in *Instr) int {
	v, pc := ex.simple(fr, in)
	if pc < 0 {
		return pc
	}
	return in.branch(values.IsTruthy(v))
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
	for pc := 0; pc < n; pc++ {
		if !reach[pc] {
			continue
		}
		in := fn.Code[pc]
		switch {
		case in.op == "return.void" || in.op == "return.result":
			// t1 unused.
		case isBranch(&in):
			in.t1 = remap[in.t1]
			in.t2 = remap[in.t2]
		case in.op == "switch":
			in.t1 = remap[in.t1]
			tbl := in.aux.(*switchTable)
			for i := range tbl.targets {
				tbl.targets[i] = remap[tbl.targets[i]]
			}
		default:
			in.t1 = remap[in.t1]
		}
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
	seen := map[*CompiledFunc]bool{}
	total := 0
	count := func(fn *CompiledFunc) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			total += len(fn.Code)
		}
	}
	for _, fn := range p.Funcs {
		count(fn)
	}
	for _, bodies := range p.HookBodies {
		for _, fn := range bodies {
			count(fn)
		}
	}
	return total
}
