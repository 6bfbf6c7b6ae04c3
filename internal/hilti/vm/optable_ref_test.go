package vm

import (
	"strings"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/classifier"
	"hilti/internal/rt/container"
	"hilti/internal/rt/overlay"
	"hilti/internal/rt/values"
)

// The per-op lists the op table replaced, copied verbatim from the opt.go
// and tier2.go they lived in — except that the op name is a
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

func refIsBranch(op string) bool {
	return op == "if.else" || strings.HasSuffix(op, "+br") ||
		strings.HasSuffix(op, "+if.else")
}

// refOperands are the operand shapes tried in every position: a register
// (the position's own) or an int or bool constant.
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

// checkAgainstReference compares every derived predicate for in (named op)
// with the reference lists.
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
	if got, want := isBranch(in), refIsBranch(op); got != want {
		t.Errorf("%s: branch %v, reference %v", op, got, want)
	}
}

// TestOpTableMatchesReference: for every defined op, over every operand
// shape, the answers the passes derive from the table — fold, fuse with a
// branch, pair safety, branch — are the ones the replaced per-op lists
// gave, for the plain op, its fused compare-and-branch form, and
// superinstructions of them.
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
			if got, want := isBranch(in), refIsBranch(opName(id)); got != want {
				t.Errorf("%s: branch %v, reference %v", opName(id), got, want)
			}
		}
	}
}

// testNonzero is a test-only op defined as a single row: a bool-yielding
// integer test that is pure and inline.
var testNonzero = defineOp(opRow{name: "test.nonzero", arity: 1, flags: opPure | opCmp | opInline,
	fn: func(_ *Exec, a []values.Value) (values.Value, error) { return values.Bool(a[0].AsInt() != 0), nil }})

// TestAddingAnOpIsOneRow: with no edit beyond its row, test.nonzero folds
// on constants, fuses with a following if.else, disassembles, runs at O2,
// and (being opCmp) is run by TestBranchOnEveryBooleanOp at every level.
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

	// Fuses with its if.else, and keeps its meaning at every level.
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

// keyOpModule defines M::ctor and M::reg, each `r = op c key [-1]; return
// r` over params c, x, y, k: ctor's key is the constructor (x, y), reg's
// the register k. With dflt, op gets the default operand -1.
func keyOpModule(op string, dflt bool) *ast.Module {
	b := ast.NewBuilder("M")
	for _, f := range []struct {
		name string
		key  ast.Operand
	}{
		{"ctor", ast.TupleOp(ast.VarOp("x"), ast.VarOp("y"))},
		{"reg", ast.VarOp("k")},
	} {
		fb := b.Function(f.name, types.AnyT, ast.Param{Name: "c", Type: types.AnyT},
			ast.Param{Name: "x", Type: types.AnyT}, ast.Param{Name: "y", Type: types.AnyT},
			ast.Param{Name: "k", Type: types.AnyT})
		r := fb.Local("r", types.AnyT)
		ops := []ast.Operand{ast.VarOp("c"), f.key}
		if dflt {
			ops = append(ops, ast.IntOp(-1))
		}
		fb.Assign(r, op, ops...)
		fb.Return(r)
	}
	return b.M
}

// TestKeyOpsReadConstructorInPlace: an op that only reads its key reads a
// tuple-constructor key in place, from its elements, and allocates
// nothing. With that key and with the same tuple held in a register, at
// every level, each op agrees with its row's fn on value, exception name
// and message; a nil container raises alike on all three paths. A
// classifier miss raises one shared exception.
func TestKeyOpsReadConstructorInPlace(t *testing.T) {
	hit := []values.Value{values.MustParseAddr("10.1.2.3"), values.MustParseAddr("172.20.0.5")}
	miss := []values.Value{values.MustParseAddr("192.0.2.1"), values.MustParseAddr("172.20.0.5")}
	mkSet := func() values.Value {
		s := container.NewSet()
		s.Insert(values.TupleVal(hit...))
		return values.Ref(values.KindSet, s)
	}
	mkMap := func() values.Value {
		m := container.NewMap()
		m.Insert(values.TupleVal(hit...), values.Int(42))
		return values.Ref(values.KindMap, m)
	}
	mkClassifier := func() values.Value {
		cl := classifier.New(2)
		if err := cl.AddValues(values.Bool(true), values.MustParseNet("10.1.0.0/16"), values.Nil); err != nil {
			t.Fatal(err)
		}
		cl.Compile()
		return values.Ref(values.KindClassifier, cl)
	}
	mkNil := func() values.Value { return values.Nil }
	excOf := func(err error) string {
		if e, ok := err.(*values.Exception); ok {
			return e.Name + ": " + e.Msg
		}
		if err != nil {
			return "not an exception: " + err.Error()
		}
		return ""
	}
	for _, tc := range []struct {
		op   string
		mk   func() values.Value
		dflt bool // map.get_default's default operand, -1
	}{
		{op: "set.exists", mk: mkSet},
		{op: "map.exists", mk: mkMap},
		{op: "map.get", mk: mkMap},
		{op: "map.get_default", mk: mkMap, dflt: true},
		{op: "classifier.get", mk: mkClassifier},
	} {
		ref := opNamed(tc.op).fn
		for level := 0; level <= 2; level++ {
			ex := linkAt(t, level, keyOpModule(tc.op, tc.dflt))
			ctor, reg := ex.Prog.Fn("M::ctor"), ex.Prog.Fn("M::reg")
			for _, mk := range []func() values.Value{tc.mk, mkNil} {
				for ki, k := range [][]values.Value{hit, miss} {
					key := values.TupleVal(k...)
					args := []values.Value{mk(), key}
					if tc.dflt {
						args = append(args, values.Int(-1))
					}
					want, wantErr := ref(ex, args)
					for _, fn := range []*CompiledFunc{ctor, reg} {
						got, err := ex.CallFn(fn, mk(), k[0], k[1], key)
						if values.Format(got) != values.Format(want) || excOf(err) != excOf(wantErr) {
							t.Errorf("O%d %s in %s, key %s: %s %q; row fn %s %q", level, tc.op, fn.Name,
								values.Format(key), values.Format(got), excOf(err), values.Format(want), excOf(wantErr))
						}
					}
					// A constructor key allocates nothing, save in map.get's
					// miss message, which formats the key.
					if raceEnabled || mk().IsNil() || tc.op == "map.get" && ki == 1 {
						continue
					}
					c := mk()
					if n := testing.AllocsPerRun(50, func() { ex.CallFn(ctor, c, k[0], k[1], values.Nil) }); n != 0 {
						t.Errorf("O%d %s, key %s: %v allocs with a constructor key, want 0",
							level, tc.op, values.Format(key), n)
					}
				}
			}
		}
	}

	// Misses, in place or not, raise the one no-match exception, unmodified.
	ex := linkAt(t, 1, keyOpModule("classifier.get", false))
	cl := mkClassifier()
	for _, fn := range []string{"M::ctor", "M::ctor", "M::reg", "M::reg"} {
		_, err := ex.Call(fn, cl, miss[0], miss[1], values.TupleVal(miss...))
		e, _ := err.(*values.Exception)
		if e != errNoClassifierMatch || e.Name != "Hilti::IndexError" || e.Msg != "no classifier match" || !e.Arg.IsNil() {
			t.Fatalf("%s miss raised %#v, want the shared no-match exception", fn, err)
		}
	}
}
