package vm

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/classifier"
	"hilti/internal/rt/container"
	"hilti/internal/rt/hbytes"
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
	refFoldPure                // aux a positional body, pure and Exec-independent
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
		switch in.aux.(type) {
		case body1, body2: // the positional bodies the compare rows declare
			return true
		}
		return false
	}
}

// The recycling rule's classification of every op (recycle.go): a row
// with opReenters may run code outside it, one with opRetains may keep an
// operand, and every other op is listed as neither. An op in no list fails
// TestOpTableMatchesReference, so a new op cannot go unclassified.
var (
	refReenters = refOps(`call hook.run timer_mgr.advance timer_mgr.advance_global timer_mgr.expire`)
	refRetains  = refOps(`set.insert map.insert map.default list.push_back list.push_front
		classifier.add channel.write timer.schedule thread.schedule exception.throw`)
	refNeither = refOps(`addr.family assign bitset.clear bitset.has bitset.set bool.and
		bool.not bool.or and not or bytes.append bytes.append_from bytes.begin bytes.end
		bytes.equal_nocase bytes.find bytes.find_from bytes.freeze bytes.is_frozen
		bytes.length bytes.new bytes.piece bytes.starts_with bytes.sub bytes.to_int
		bytes.to_string bytes.trim bytes.trim_to bytes.unfreeze bytes.wait_frozen
		channel.read channel.size channel.try_read classifier.compile classifier.get
		classifier.matches debug.msg double.add double.div double.geq double.gt
		double.leq double.lt double.mul double.sub double.to_int double.to_interval
		double.to_time enum.to_int equal file.open file.write hash hash.final hash.new
		hash.update if.else int.add int.and int.div int.eq int.geq int.gt int.leq
		int.lt int.mod int.mul int.or int.shl int.shr int.sub int.to_double
		int.to_interval int.to_string int.to_time int.ugt int.ult int.xor
		interval.add interval.gt interval.lt interval.mul interval.nsecs
		interval.sub interval.to_double iterator.at_end iterator.at_end_now
		iterator.deref iterator.diff iterator.end_of iterator.eq iterator.incr
		iterator.incr_by jump list.back list.begin list.elems list.front
		list.pop_front list.size map.clear map.exists map.get map.get_default
		map.keys map.remove map.size map.timeout map.values net.contains net.family
		net.length new nop overlay.get port.number port.protocol profiler.start
		profiler.stop profiler.update regexp.compile regexp.find regexp.match_token
		regexp.matches return.result return.void set.clear set.elems set.exists
		set.remove set.size set.timeout string.concat string.encode string.find
		string.length string.lower string.to_int string.upper struct.get
		struct.get_default struct.is_set struct.set struct.unset switch time.add
		time.gt time.lt time.nsecs time.sub time.to_double timer.cancel
		timer.update timer_mgr.current try.begin try.end tuple.index tuple.length
		unequal unpack.addr4 unpack.addr6 unpack.bytes unpack.fields
		unpack.uint16be unpack.uint16le unpack.uint32be unpack.uint32le
		unpack.uint8 vector.get vector.push_back vector.reserve vector.set
		vector.size yield struct.get_idx struct.get_default_idx struct.set_idx
		struct.is_set_idx struct.unset_idx`)
)

func refOps(list string) map[string]bool {
	m := map[string]bool{}
	for _, op := range strings.Fields(list) {
		m[op] = true
	}
	return m
}

// refEscape is the reference classification of op, a fused form or a
// superinstruction ("a+b" takes either half's flags); known is false for
// an op in no list.
func refEscape(op string) (reenters, retains, known bool) {
	op = strings.TrimSuffix(op, "+br")
	if i := strings.IndexByte(op, '+'); i >= 0 {
		r1, k1, ok1 := refEscape(op[:i])
		r2, k2, ok2 := refEscape(op[i+1:])
		return r1 || r2, k1 || k2, ok1 && ok2
	}
	return refReenters[op], refRetains[op], refReenters[op] || refRetains[op] || refNeither[op]
}

// checkEscape compares r's recycling flags with the reference.
func checkEscape(t *testing.T, op string, r *opRow) {
	t.Helper()
	reenters, retains, known := refEscape(op)
	if !known {
		t.Errorf("%s: not classified for the recycling rule; add it to refReenters, refRetains or refNeither", op)
	}
	if got := r.is(opReenters); got != reenters {
		t.Errorf("%s: re-enters %v, reference %v", op, got, reenters)
	}
	if got := r.is(opRetains); got != retains {
		t.Errorf("%s: retains %v, reference %v", op, got, retains)
	}
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
	checkEscape(t, op, r)
	if got, want := isBranch(in), refIsBranch(op); got != want {
		t.Errorf("%s: branch %v, reference %v", op, got, want)
	}
}

// TestOpTableMatchesReference: for every defined op, over every operand
// shape, the answers the passes derive from the table — fold, fuse with a
// branch, branch — are the ones the replaced per-op lists gave, and its
// recycling flags are the reference classification, for the plain op, its
// fused compare-and-branch form, and superinstructions of them. Every row
// is classified, sampled or not.
func TestOpTableMatchesReference(t *testing.T) {
	var samples []Instr
	for _, r := range definedRows() {
		if strings.HasPrefix(r.name, "test.") {
			continue // test-only rows the reference never knew
		}
		checkEscape(t, r.name, r)
		if r.indexed != nil {
			checkEscape(t, r.indexed.name, r.indexed)
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
	// Superinstruction names: heads that fall through, re-entering,
	// retaining or neither, and tails that branch or not, including a pair whose tail is itself a
	// pair. (A branching head never fuses.)
	heads := []uint16{idOf(opNamed("int.add")), idOf(opAssign), idOf(opNamed("call")), idOf(opNamed("map.insert"))}
	tails := append([]uint16{idOf(opNamed("int.lt").twin), idOf(opIfElse),
		pairID(idOf(opOverlayGet), idOf(opNamed("int.eq").twin))}, heads...)
	for _, a := range heads {
		for _, b := range tails {
			id := pairID(a, b)
			in := &Instr{opID: id}
			checkEscape(t, opName(id), rowOf(id))
			if got, want := isBranch(in), refIsBranch(opName(id)); got != want {
				t.Errorf("%s: branch %v, reference %v", opName(id), got, want)
			}
		}
	}
}

// testNonzero is a test-only op defined as a single row: a bool-yielding
// integer test that is pure, with its body over its one operand.
var testNonzero = defineOp(opRow{name: "test.nonzero", flags: opPure | opCmp,
	f1: func(_ *Exec, a values.Value) (values.Value, error) { return values.Bool(a.AsInt() != 0), nil }})

// TestAddingAnOpIsOneRow: with no edit beyond its row, test.nonzero folds
// on constants, fuses with a following if.else, disassembles, runs at O2,
// and (being opCmp) is run by TestBranchOnEveryBooleanOp at every level and
// checked against its slice form by TestPositionalRowsMatchSliceForm.
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
			ex := linkAt(t, level, build())
			if v, err := ex.Call("M::f", values.Int(p)); err != nil || v.AsInt() != want {
				t.Fatalf("O%d f(%d) = %v %v, want %d", level, p, v, err, want)
			}
			// Its executor reads its operand in place.
			if n := ex.Prog.Residue().Gathering; n != 0 {
				t.Fatalf("O%d: %d instructions gather operands", level, n)
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

// operandCorpus makes, fresh for every run, the values tried in each
// operand position of a positional row: scalars and nil, and the heap
// values rows take — among them a nil iterator, a nil digest and an
// iterator at the end of an open rope, which would block.
var operandCorpus = []func() values.Value{
	func() values.Value { return values.Nil },
	func() values.Value { return values.Int(2) },
	func() values.Value { return values.Int(-1) },
	func() values.Value { return values.Int(1 << 62) }, // an index read off the wire
	func() values.Value { return values.Bool(true) },
	func() values.Value { return values.Double(1.5) },
	func() values.Value { return values.String("x") },
	func() values.Value { return values.TimeVal(2000) },
	func() values.Value { return values.IntervalVal(1000) },
	func() values.Value { return values.MustParseNet("10.0.0.0/8") },
	func() values.Value { return values.MustParseAddr("10.1.2.3") },
	func() values.Value { return values.BytesFrom([]byte("Ab1")) },
	func() values.Value { return values.IterBytes(values.BytesFrom([]byte("Ab1")).AsBytes().Begin()) },
	func() values.Value {
		b := hbytes.New()
		b.Append([]byte("ab")) //nolint:errcheck
		return values.IterBytes(b.Begin().Plus(2))
	},
	func() values.Value { return values.Value{K: values.KindIterBytes} },
	func() values.Value { return values.NewDigest() },
	func() values.Value { return values.Value{K: values.KindDigest} },
	func() values.Value {
		s := values.NewStruct(values.NewStructDef("S", values.StructField{Name: "x"}, values.StructField{Name: "y"}))
		s.Fields[0] = values.Int(1)
		return values.StructVal(s)
	},
	func() values.Value {
		v := container.NewVector(values.Nil)
		v.PushBack(values.Int(1))
		return values.Ref(values.KindVector, v)
	},
	func() values.Value {
		m := container.NewMap()
		m.Insert(values.Int(2), values.String("two"))
		return values.Ref(values.KindMap, m)
	},
	func() values.Value {
		s := container.NewSet()
		s.Insert(values.Int(2))
		return values.Ref(values.KindSet, s)
	},
	func() values.Value {
		l := container.NewList()
		l.PushBack(values.Int(2))
		return values.Ref(values.KindList, l)
	},
}

// outcome runs f on a fresh Exec and renders how it ended: the pc it
// continued at, the values of the registers named, or the exception it
// raised, the suspension it asked for, or a panic.
func outcome(f func(ex *Exec) (pc int, res []values.Value)) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprint("panic: ", r)
		}
	}()
	ex, _ := NewExec(&Program{})
	ex.Out = io.Discard
	pc, res := f(ex)
	switch pc {
	case pcSuspend:
		return "suspend"
	case pcRaise:
		return "raise " + ex.Exc.Name + ": " + ex.Exc.Msg
	}
	out = fmt.Sprintf("pc %d:", pc)
	for _, v := range res {
		out += " " + values.Format(v)
	}
	return out
}

// TestPositionalRowsMatchSliceForm: every row declared with a positional
// body, run through its derived executor — and a compare also through its
// fused +br twin, a two-result op also split into two registers — ends as
// the row's slice form fn says, for every operand tuple of the corpus:
// the same value, exception or suspension, and the branch the value picks.
// Operands are read from registers, a global and a constant alike.
func TestPositionalRowsMatchSliceForm(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range definedRows() {
		if r.f0 == nil && r.f1 == nil && r.f2 == nil && r.f3 == nil && r.two1 == nil && r.two2 == nil {
			continue
		}
		n := r.arity
		two := r.two1 != nil || r.two2 != nil
		type run struct {
			name   string
			exec   execFn
			t2, d2 int // t2 2: branches; d2: the split form's second register
		}
		runs := []run{{r.name, r.derived, 1, 0}}
		if r.twin != nil {
			runs = append(runs, run{r.twin.name, r.twin.exec, 2, 0})
		}
		if two {
			runs = append(runs, run{r.name + " (split)", r.derived, 0, n + 1})
		}
		tuples := 1
		for i := 0; i < n; i++ {
			tuples *= len(operandCorpus)
		}
		for tup := 0; tup < tuples; tup++ {
			mk := func() []values.Value {
				args := make([]values.Value, n)
				for i, x := 0, tup; i < n; i, x = i+1, x/len(operandCorpus) {
					args[i] = operandCorpus[x%len(operandCorpus)]()
				}
				return args
			}
			// vector.reserve extends a vector to any size it is given.
			if r.name == "vector.reserve" && uint64(mk()[1].AsInt()+1) > 64 {
				continue
			}
			for _, e := range runs {
				want := outcome(func(ex *Exec) (int, []values.Value) {
					v, err := r.fn(ex, mk())
					if err != nil {
						return ex.raiseErr(err), nil
					}
					pc := 1
					if e.t2 == 2 && !values.IsTruthy(v) {
						pc = 2
					}
					if e.d2 != 0 {
						t := v.AsTuple()
						return pc, []values.Value{t.Elems[0], t.Elems[1]}
					}
					return pc, []values.Value{v}
				})
				got := outcome(func(ex *Exec) (int, []values.Value) {
					args := mk()
					// Operand 0 from a global, the last of two or three a
					// constant, the others from registers.
					fr := &Frame{R: make([]values.Value, n+2)}
					in := Instr{exec: e.exec, aux: r.aux, d: dst{kind: srcReg, idx: int32(n)}, d2: int32(e.d2), t1: 1, t2: e.t2}
					for i, a := range args {
						s := src{kind: srcReg, idx: int32(i)}
						switch {
						case i == 0:
							ex.Globals = []values.Value{a}
							s = src{kind: srcGlobal}
						case i == n-1 && n > 1:
							s = src{kind: srcConst, val: a}
						}
						fr.R[i] = a
						in.srcs = append(in.srcs, s)
					}
					pc := in.exec(ex, fr, &in)
					if e.d2 != 0 {
						return pc, fr.R[n : n+2]
					}
					return pc, fr.R[n : n+1]
				})
				if got != want {
					t.Fatalf("%s%s: executor ends %q, fn %q", e.name, values.Format(values.TupleVal(mk()...)), got, want)
				}
				seen[got] = true
			}
		}
	}
	for _, want := range []string{"suspend", "raise Hilti::NullReference: nil bytes reference",
		"raise Hilti::NullReference: nil iterator", "raise Hilti::NullReference: nil digest"} {
		if !seen[want] {
			t.Errorf("no row ended %q: the corpus lost a raising case", want)
		}
	}
}
