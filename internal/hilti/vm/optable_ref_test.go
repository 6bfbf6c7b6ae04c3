package vm

import (
	"strings"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/overlay"
	"hilti/internal/rt/values"
)

// The per-op lists the op table replaced, copied verbatim from the opt.go,
// tier2.go and bound.go they lived in — except that the op name is a
// parameter, since an instruction no longer carries it — as the reference
// the table's derived answers are checked against.

type refFoldKind uint8

const (
	refFoldNone    refFoldKind = iota
	refFoldIntBin              // aux func(x, y int64) int64
	refFoldIntCmp              // aux func(x, y int64) bool
	refFoldEqual               // values.Equal (no aux)
	refFoldUnequal             // !values.Equal (no aux)
	refFoldNetHas              // Value.NetContains (no aux)
	refFoldPure                // aux simpleFn, pure and Exec-independent
)

var refFoldable = map[string]refFoldKind{
	"int.add": refFoldIntBin, "int.sub": refFoldIntBin, "int.mul": refFoldIntBin,
	"int.eq": refFoldIntCmp, "int.lt": refFoldIntCmp, "int.gt": refFoldIntCmp,
	"int.leq": refFoldIntCmp, "int.geq": refFoldIntCmp,
	"equal": refFoldEqual, "unequal": refFoldUnequal, "net.contains": refFoldNetHas,

	"int.div": refFoldPure, "int.mod": refFoldPure, "int.shl": refFoldPure,
	"int.shr": refFoldPure, "int.and": refFoldPure, "int.or": refFoldPure,
	"int.xor": refFoldPure, "int.ult": refFoldPure, "int.ugt": refFoldPure,
	"int.to_double": refFoldPure, "int.to_time": refFoldPure,
	"int.to_interval": refFoldPure, "int.to_string": refFoldPure,
	"double.add": refFoldPure, "double.sub": refFoldPure, "double.mul": refFoldPure,
	"double.div": refFoldPure, "double.lt": refFoldPure, "double.gt": refFoldPure,
	"double.leq": refFoldPure, "double.geq": refFoldPure, "double.to_int": refFoldPure,
	"double.to_interval": refFoldPure, "double.to_time": refFoldPure,
	"bool.and": refFoldPure, "bool.or": refFoldPure, "bool.not": refFoldPure,
	"and": refFoldPure, "or": refFoldPure, "not": refFoldPure,
	"string.concat": refFoldPure, "string.length": refFoldPure,
	"string.lower": refFoldPure, "string.upper": refFoldPure,
	"string.find": refFoldPure, "string.to_int": refFoldPure,
	"time.add": refFoldPure, "time.sub": refFoldPure, "time.lt": refFoldPure,
	"time.gt": refFoldPure, "time.nsecs": refFoldPure, "time.to_double": refFoldPure,
	"interval.add": refFoldPure, "interval.sub": refFoldPure,
	"interval.mul": refFoldPure, "interval.lt": refFoldPure,
	"interval.gt": refFoldPure, "interval.nsecs": refFoldPure,
	"interval.to_double": refFoldPure,
	"addr.family":        refFoldPure, "net.family": refFoldPure, "net.length": refFoldPure,
	"port.protocol": refFoldPure, "port.number": refFoldPure,
	"enum.to_int": refFoldPure, "bitset.set": refFoldPure, "bitset.clear": refFoldPure,
	"bitset.has": refFoldPure, "tuple.index": refFoldPure, "tuple.length": refFoldPure,
}

var refFuseSimple = map[string]bool{
	"double.lt": true, "double.gt": true, "double.leq": true,
	"double.geq": true, "int.ult": true, "int.ugt": true,
	"time.lt": true, "time.gt": true, "interval.lt": true,
	"interval.gt": true, "bool.and": true, "bool.or": true,
	"bool.not": true, "and": true, "or": true, "not": true,
	"iterator.eq": true, "iterator.at_end": true,
	"iterator.at_end_now": true, "struct.is_set": true, "bitset.has": true,
	"bytes.equal_nocase": true,
}

// refFuseAccepts is whether fuseMaker returned a fused executor.
func refFuseAccepts(op string, in *Instr) bool {
	switch op {
	case "int.eq", "int.lt", "int.gt", "int.leq", "int.geq":
		if _, ok := in.aux.(func(x, y int64) bool); !ok || len(in.srcs) != 2 {
			return false
		}
		return true
	case "equal", "unequal":
		return len(in.srcs) == 2
	case "net.contains":
		return len(in.srcs) == 2
	case "set.exists":
		return len(in.srcs) == 2
	case "map.exists":
		return len(in.srcs) == 2
	default:
		if !refFuseSimple[op] {
			return false
		}
		_, ok := in.aux.(simpleFn)
		return ok
	}
}

func refSlotCompatible(op string, in *Instr, kind []uint8, rty []*types.Type) bool {
	br := strings.HasSuffix(op, "+br")
	base := strings.TrimSuffix(op, "+br")
	switch base {
	case "assign":
		if br || len(in.srcs) != 1 {
			return false
		}
		s := &in.srcs[0]
		if in.d.kind == srcReg && regSlot(kind, in.d.idx) != slotNone {
			return scalarOperand(s, regSlot(kind, in.d.idx), kind, rty)
		}
		// Boxed destination (register, global, or discarded) fed from a
		// slot: the executor re-boxes by the slot's kind.
		return s.kind == srcReg && regSlot(kind, s.idx) != slotNone
	case "int.add", "int.sub", "int.mul":
		if _, ok := in.aux.(func(x, y int64) int64); !ok || len(in.srcs) != 2 {
			return false
		}
		return scalarOperand(&in.srcs[0], slotInt, kind, rty) &&
			scalarOperand(&in.srcs[1], slotInt, kind, rty)
	case "int.eq", "int.lt", "int.gt", "int.leq", "int.geq":
		if _, ok := in.aux.(func(x, y int64) bool); !ok || len(in.srcs) != 2 {
			return false
		}
		return scalarOperand(&in.srcs[0], slotInt, kind, rty) &&
			scalarOperand(&in.srcs[1], slotInt, kind, rty)
	case "equal", "unequal":
		if len(in.srcs) != 2 {
			return false
		}
		// Both operands must share one scalar domain; raw comparison then
		// matches values.Equal on same-kind scalars.
		return (scalarOperand(&in.srcs[0], slotInt, kind, rty) &&
			scalarOperand(&in.srcs[1], slotInt, kind, rty)) ||
			(scalarOperand(&in.srcs[0], slotBool, kind, rty) &&
				scalarOperand(&in.srcs[1], slotBool, kind, rty))
	case "bool.and", "bool.or", "and", "or":
		return len(in.srcs) == 2 &&
			scalarOperand(&in.srcs[0], slotBool, kind, rty) &&
			scalarOperand(&in.srcs[1], slotBool, kind, rty)
	case "bool.not", "not":
		return len(in.srcs) == 1 && scalarOperand(&in.srcs[0], slotBool, kind, rty)
	case "if.else":
		return !br && len(in.srcs) == 1 // condition slot is a bool: test != 0
	case "return.result":
		return !br && len(in.srcs) == 1 && in.srcs[0].kind == srcReg &&
			regSlot(kind, in.srcs[0].idx) != slotNone
	case "overlay.get":
		// Overlay fields decode into ints; only srcs[0] (the bytes rope)
		// exists and is never slotted, so only the destination matters.
		return !br && in.d.kind == srcReg && regSlot(kind, in.d.idx) == slotInt &&
			len(in.srcs) == 1 && !srcTouchesSlot(&in.srcs[0], kind)
	}
	return false
}

func refPairSafeOp(op string) bool {
	op = strings.TrimSuffix(op, "+br")
	if i := strings.IndexByte(op, '+'); i >= 0 {
		return refPairSafeOp(op[:i]) && refPairSafeOp(op[i+1:])
	}
	switch op {
	case "assign", "if.else", "equal", "unequal", "and", "or", "not",
		"overlay.get", "struct.get", "struct.set", "struct.is_set",
		"struct.get_default", "struct.unset", "net.contains":
		return true
	}
	if i := strings.IndexByte(op, '.'); i > 0 {
		switch op[:i] {
		case "int", "double", "bool", "time", "interval", "addr", "port",
			"net", "enum", "bitset", "tuple", "string":
			return true
		}
	}
	return false
}

func refRegionSafe(op string) bool {
	switch op {
	case "jump", "switch", "return.void", "return.result", "if.else":
		return true
	case "region":
		return false
	}
	return refPairSafeOp(op)
}

func refIsBranch(op string) bool {
	return op == "if.else" || strings.HasSuffix(op, "+br") ||
		strings.HasSuffix(op, "+if.else")
}

// refOperands are the operand shapes tried in every position: a register
// (the position's own) or an int or bool constant, the two constant kinds
// the slot classifier distinguishes.
var refOperands = []func(pos int) ast.Operand{
	func(pos int) ast.Operand { return ast.VarOp([]string{"a", "b", "c"}[pos]) },
	func(int) ast.Operand { return ast.IntOp(7) },
	func(int) ast.Operand { return ast.BoolOp(true) },
}

// lowerSample links `[d =] op(ops...)` at O0 as the first instruction of a
// function with registers a, b, c (params 0-2) and d (3), and blocks "yes"
// and "no" for branch targets; ok is false when op rejects the operands.
func lowerSample(t *testing.T, op string, target bool, ops ...ast.Operand) (Instr, bool) {
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.AnyT, ast.Param{Name: "a", Type: types.AnyT},
		ast.Param{Name: "b", Type: types.AnyT}, ast.Param{Name: "c", Type: types.AnyT})
	d := fb.Local("d", types.AnyT)
	if target {
		fb.Assign(d, op, ops...)
	} else {
		fb.Instr(op, ops...)
	}
	fb.Block("yes")
	fb.ReturnVoid()
	fb.Block("no")
	fb.ReturnVoid()
	prog, err := LinkWith(Options{OptLevel: 0}, b.M)
	if err != nil {
		return Instr{}, false
	}
	code := prog.Fn("M::f").Code
	return code[0], opName(code[0].opID) == op // else op emitted nothing
}

// refSamples lowers r over every operand shape of its arity (one to three
// operands when it takes any number), with and without a destination, plus
// the forms the custom-lowered ops take.
func refSamples(t *testing.T, r *opRow) []Instr {
	var out []Instr
	add := func(target bool, ops ...ast.Operand) {
		if in, ok := lowerSample(t, r.name, target, ops...); ok {
			out = append(out, in)
		}
	}
	var arities []int // the custom-lowered control ops take only their own forms
	switch {
	case r.exec == nil:
	case r.arity < 0:
		arities = []int{1, 2, 3}
	default:
		arities = []int{r.arity}
	}
	for _, n := range arities {
		shapes := 1
		for i := 0; i < n; i++ {
			shapes *= len(refOperands)
		}
		for sh := 0; sh < shapes; sh++ {
			ops := make([]ast.Operand, n)
			for i, x := 0, sh; i < n; i, x = i+1, x/len(refOperands) {
				ops[i] = refOperands[x%len(refOperands)](i)
			}
			add(true, ops...)
			add(false, ops...)
		}
	}
	ov := types.OverlayT(overlay.New("O", overlay.Field{Name: "f", Format: overlay.UInt8}))
	for _, cond := range []ast.Operand{ast.VarOp("a"), ast.IntOp(1), ast.BoolOp(true)} {
		switch r.name {
		case "if.else":
			add(false, cond, ast.LabelOp("yes"), ast.LabelOp("no"))
		case "return.result":
			add(false, cond)
		case "switch":
			add(false, cond, ast.LabelOp("no"), ast.TupleOp(ast.IntOp(1), ast.LabelOp("yes")))
		}
	}
	switch r.name {
	case "jump":
		add(false, ast.LabelOp("yes"))
	case "return.void":
		add(false)
	case "overlay.get":
		add(true, ast.TypeOperand(ov), ast.FieldOperand("f"), ast.VarOp("a"))
	case "call", "hook.run":
		add(true, ast.FuncOperand("host"), ast.VarOp("a"))
	case "new":
		add(true, ast.TypeOperand(types.MapT(types.Int64T, types.Int64T)))
	}
	return out
}

// regStates are the slot states a register can be in as the classifier
// sees it: slotted int or bool, or boxed with a static type of int, bool,
// or nothing known.
var regStates = []struct {
	kind uint8
	rty  *types.Type
}{{slotInt, nil}, {slotBool, nil}, {slotNone, nil}, {slotNone, types.Int64T}, {slotNone, types.BoolT}}

// checkAgainstReference compares every derived predicate for in (named op)
// with the reference lists, over every slot state of the registers in uses.
func checkAgainstReference(t *testing.T, op string, in *Instr) {
	t.Helper()
	r := rowOf(in.opID)
	if got, want := r.folds(), refFoldable[op] != refFoldNone; got != want {
		t.Errorf("%s: folds %v, reference %v", op, got, want)
	}
	if got, want := r.twin != nil, refFuseAccepts(op, in); got != want {
		t.Errorf("%s: fuses %v, reference %v", op, got, want)
	}
	if got, want := r.is(opInline), refPairSafeOp(op); got != want {
		t.Errorf("%s: pair-safe %v, reference %v", op, got, want)
	}
	if got, want := r.regionSafe(), refRegionSafe(op); got != want {
		t.Errorf("%s: region-safe %v, reference %v", op, got, want)
	}
	if got, want := isBranch(in), refIsBranch(op); got != want {
		t.Errorf("%s: branch %v, reference %v", op, got, want)
	}
	var regs []int32
	if in.d.kind == srcReg {
		regs = append(regs, in.d.idx)
	}
	for i := range in.srcs {
		if in.srcs[i].kind == srcReg {
			regs = append(regs, in.srcs[i].idx)
		}
	}
	kind, rty := make([]uint8, 4), make([]*types.Type, 4)
	var walk func(i int)
	walk = func(i int) {
		if i == len(regs) {
			if got, want := r.slotFits(in, kind, rty), refSlotCompatible(op, in, kind, rty); got != want {
				t.Errorf("%s %s kinds %v types %v: slot form %v, reference %v",
					op, (&CompiledFunc{Code: []Instr{*in}}).Disasm(), kind, rty, got, want)
			}
			return
		}
		for _, st := range regStates {
			kind[regs[i]], rty[regs[i]] = st.kind, st.rty
			walk(i + 1)
		}
	}
	walk(0)
}

// TestOpTableMatchesReference: for every defined op, over every operand
// shape and slot assignment, the answers the passes derive from the table
// — fold, fuse with a branch, tier-2 slot form, pair and region safety,
// branch — are the ones the replaced per-op lists gave, for the plain op,
// its fused compare-and-branch form, and superinstructions of them.
func TestOpTableMatchesReference(t *testing.T) {
	var samples []Instr
	for _, r := range definedRows() {
		if strings.HasPrefix(r.name, "test.") {
			continue // test-only rows the reference never knew
		}
		for _, in := range refSamples(t, r) {
			checkAgainstReference(t, r.name, &in)
			if r.twin != nil {
				in.opID = idOf(r.twin)
				checkAgainstReference(t, r.twin.name, &in)
			}
			samples = append(samples, in)
		}
	}
	if len(samples) < 1000 {
		t.Fatalf("only %d samples: lowering shapes broke", len(samples))
	}
	// Superinstruction names: heads that fall through, inline or not, and
	// tails that branch or not, including a pair whose tail is itself a
	// pair. (A branching head never fuses.)
	heads := []uint16{idOf(opNamed("int.add")), idOf(opAssign), idOf(opNamed("call")), idOf(opNamed("map.insert"))}
	tails := append([]uint16{idOf(opNamed("int.lt").twin), idOf(opIfElse),
		pairID(idOf(opOverlayGet), idOf(opNamed("int.eq").twin))}, heads...)
	for _, a := range heads {
		for _, b := range tails {
			id := pairID(a, b)
			in := &Instr{opID: id}
			if got, want := rowOf(id).is(opInline), refPairSafeOp(opName(id)); got != want {
				t.Errorf("%s: pair-safe %v, reference %v", opName(id), got, want)
			}
			if got, want := rowOf(id).regionSafe(), refRegionSafe(opName(id)); got != want {
				t.Errorf("%s: region-safe %v, reference %v", opName(id), got, want)
			}
			if got, want := isBranch(in), refIsBranch(opName(id)); got != want {
				t.Errorf("%s: branch %v, reference %v", opName(id), got, want)
			}
		}
	}
	if in := (Instr{opID: idOf(opRegion)}); rowOf(in.opID).regionSafe() || isBranch(&in) {
		t.Error("region instruction must neither nest nor branch")
	}
}

// testNonzero is a test-only op defined as a single row: a bool-yielding
// integer test that is pure, inline and has an unboxed form.
var testNonzero = defineOp(opRow{name: "test.nonzero", arity: 1, flags: opPure | opCmp | opInline,
	fn:   func(_ *Exec, a []values.Value) (values.Value, error) { return values.Bool(a[0].AsInt() != 0), nil },
	slot: slotInt, slotExec: func(ex *Exec, fr *Frame, in *Instr) int {
		b := slotArg(fr, &in.srcs[0]) != 0
		putSlotBool(ex, fr, in.d, b)
		return in.branch(b)
	}})

// TestAddingAnOpIsOneRow: with no edit beyond its row, test.nonzero folds
// on constants, fuses with a following if.else, gets its slot executor at
// O2, disassembles, and (being opCmp) is run by TestBranchOnEveryBooleanOp
// at every level.
func TestAddingAnOpIsOneRow(t *testing.T) {
	// Folds on a constant.
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.BoolT)
	r := fb.Local("r", types.BoolT)
	fb.Assign(r, testNonzero.name, ast.IntOp(5))
	fb.Return(r)
	fn, st := optStatsFor(t, b.M, "M::f")
	if st.Folded == 0 || !strings.Contains(fn.Disasm(), "assign             r0 <- c:True") {
		t.Fatalf("not folded (%+v):\n%s", st, fn.Disasm())
	}

	// Fuses with its if.else, gets the slot form under eager tier-2, and
	// keeps its meaning at every level.
	build := func() *ast.Module {
		b := ast.NewBuilder("M")
		fb := b.Function("f", types.Int64T, ast.Param{Name: "p", Type: types.Int64T})
		x := fb.Local("x", types.Int64T)
		r := fb.Local("r", types.BoolT)
		fb.Assign(x, "int.add", ast.VarOp("p"), ast.IntOp(1))
		fb.Assign(r, testNonzero.name, x)
		fb.IfElse(r, "yes", "no")
		fb.Block("yes")
		fb.Return(ast.IntOp(1))
		fb.Block("no")
		fb.Return(ast.IntOp(2))
		return b.M
	}
	fn, st = optStatsFor(t, build(), "M::f")
	if st.Fused != 1 || !strings.Contains(fn.Disasm(), "test.nonzero+br    r2 <- r1 ; t1=2 t2=3") {
		t.Fatalf("not fused (%+v):\n%s", st, fn.Disasm())
	}
	fn = linkAt(t, 2, build()).Prog.Fn("M::f")
	ts, _ := fn.Tier2Stats()
	if ts.Slotted != 2 || !strings.Contains(fn.DisasmTier(), "test.nonzero+br    i2 <- i1 ; t1=2 t2=3") {
		t.Fatalf("no slot form (%+v):\n%s", ts, fn.DisasmTier())
	}
	for p, want := range map[int64]int64{-1: 2, 0: 1, 41: 1} {
		for level := 0; level <= 2; level++ {
			if v, err := linkAt(t, level, build()).Call("M::f", values.Int(p)); err != nil || v.AsInt() != want {
				t.Fatalf("O%d f(%d) = %v %v, want %d", level, p, v, err, want)
			}
		}
	}
}

// TestStringLengthCountsRunes: string.length counts as len([]rune(s))
// does — one per invalid byte, too — at every level, and allocates
// nothing on a long string.
func TestStringLengthCountsRunes(t *testing.T) {
	cases := []string{"", "GET", "h\xe9llo \xff\xfe\xc3", "größe", strings.Repeat("ab\x80ü", 1000)}
	build := func() *ast.Module {
		b := ast.NewBuilder("M")
		fb := b.Function("f", types.Int64T, ast.Param{Name: "s", Type: types.StringT})
		r := fb.Local("r", types.Int64T)
		fb.Assign(r, "string.length", ast.VarOp("s"))
		fb.Return(r)
		return b.M
	}
	length := opNamed("string.length").fn
	for _, s := range cases {
		want := int64(len([]rune(s)))
		if v, _ := length(nil, []values.Value{values.String(s)}); v.AsInt() != want {
			t.Errorf("%d bytes: row counts %d, want %d", len(s), v.AsInt(), want)
		}
		for level := 0; level <= 2; level++ {
			if v, err := linkAt(t, level, build()).Call("M::f", values.String(s)); err != nil || v.AsInt() != want {
				t.Errorf("O%d, %d bytes: %v, %v; want %d", level, len(s), v.AsInt(), err, want)
			}
		}
	}
	long := []values.Value{values.String(cases[len(cases)-1])}
	if n := testing.AllocsPerRun(50, func() { length(nil, long) }); n != 0 {
		t.Errorf("string.length of a long string allocates %v times", n)
	}
}
