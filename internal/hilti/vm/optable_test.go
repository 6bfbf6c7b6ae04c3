package vm

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/container"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// definedRows returns every row the AST may name, sorted by name.
func definedRows() []*opRow {
	opTable.RLock()
	defer opTable.RUnlock()
	var rows []*opRow
	for _, r := range opTable.byName {
		if r.lowerable() {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// boolOps lists every op whose result an if.else may consume directly:
// the table's opCmp rows, so a new row is covered without editing here.
func boolOps() []string {
	var ops []string
	for _, r := range definedRows() {
		if r.is(opCmp) {
			ops = append(ops, r.name)
		}
	}
	return ops
}

// boolOpSamples returns operand tuples for a bool-yielding op, chosen so
// that both branch directions occur and, where the op can raise or would
// block, that happens too. Ops it does not know get integers.
func boolOpSamples(op string) [][]values.Value {
	ints := [][]values.Value{
		{values.Int(1), values.Int(2)}, {values.Int(2), values.Int(1)},
		{values.Int(2), values.Int(2)}, {values.Int(-1), values.Int(2)},
	}
	pairs := func(a, b values.Value) [][]values.Value {
		return [][]values.Value{{a, b}, {b, a}, {a, a}}
	}
	switch {
	case strings.HasPrefix(op, "double."):
		return pairs(values.Double(1.5), values.Double(2.5))
	case strings.HasPrefix(op, "time."):
		return pairs(values.TimeVal(1e9), values.TimeVal(2e9))
	case strings.HasPrefix(op, "interval."):
		return pairs(values.IntervalVal(1e9), values.IntervalVal(2e9))
	case op == "bool.not" || op == "not":
		return [][]values.Value{{values.Bool(true)}, {values.Bool(false)}}
	case strings.HasPrefix(op, "bool.") || op == "and" || op == "or":
		return pairs(values.Bool(true), values.Bool(false))
	case op == "equal" || op == "unequal":
		return append(ints, pairs(values.MustParseAddr("10.0.0.1"), values.MustParseAddr("10.0.0.2"))...)
	case op == "net.contains":
		n := values.MustParseNet("10.1.3.0/24")
		return [][]values.Value{{n, values.MustParseAddr("10.1.3.7")}, {n, values.MustParseAddr("10.1.4.7")}}
	case op == "set.exists" || op == "map.exists":
		s, m := container.NewSet(), container.NewMap()
		s.Insert(values.Int(1))
		m.Insert(values.Int(1), values.Int(10))
		c := values.Ref(values.KindSet, s)
		if op == "map.exists" {
			c = values.Ref(values.KindMap, m)
		}
		return [][]values.Value{{c, values.Int(1)}, {c, values.Int(2)}, {values.Nil, values.Int(1)}}
	case strings.HasPrefix(op, "iterator."):
		b := values.BytesFrom([]byte("ab")).AsBytes()
		open := hbytes.New()
		open.Append([]byte("ab")) //nolint:errcheck
		begin, next := values.IterBytes(b.Begin()), values.IterBytes(b.Begin().Next())
		end := values.IterBytes(b.Begin().Plus(2))
		openEnd := values.IterBytes(open.Begin().Plus(2))
		if op == "iterator.eq" {
			return pairs(begin, next)
		}
		return [][]values.Value{{begin}, {end}, {openEnd}}
	case op == "struct.is_set":
		s := values.NewStruct(values.NewStructDef("S", values.StructField{Name: "x"}, values.StructField{Name: "y"}))
		s.SetName("x", values.Int(1))
		return [][]values.Value{{values.StructVal(s), values.String("x")}, {values.StructVal(s), values.String("y")}}
	case op == "bytes.equal_nocase":
		b := func(s string) values.Value { return values.BytesFrom([]byte(s)) }
		return [][]values.Value{{b("Content-Length"), b("content-length")}, {b("chunked"), b("chunked ")},
			{b("a"), values.Nil}}
	case op == "bitset.has":
		bs := func(a uint64) values.Value { return values.Value{K: values.KindBitset, A: a} }
		return [][]values.Value{{bs(5), bs(4)}, {bs(5), bs(2)}}
	}
	if n := opNamed(op).arity; n == 1 {
		for i := range ints {
			ints[i] = ints[i][:1]
		}
	}
	return ints
}

// constable reports whether v may be an instruction constant; heap values
// (containers, structs, byte iterators) and nil are always passed in.
func constable(v values.Value) bool {
	switch v.K {
	case values.KindInt, values.KindBool, values.KindDouble, values.KindTime,
		values.KindInterval, values.KindAddr, values.KindNet, values.KindString,
		values.KindBitset:
		return true
	}
	return false
}

func sampleType(v values.Value) *types.Type {
	switch v.K {
	case values.KindInt:
		return types.Int64T
	case values.KindBool:
		return types.BoolT
	}
	return types.AnyT
}

// boolOpModule emits, for op over args with the operands in constMask
// inlined as constants:
//
//	br(...)  { r = op(...); if.else r yes no; yes: return 1; no: return 2 }
//	val(...) { r = op(...); return r }
//
// br is the fused compare-and-branch shape at O1, val the plain compare.
// Each starts with a branch on a constant whose dead arm O1 deletes, so
// the compare moves and its targets are rewritten.
func boolOpModule(op string, args []values.Value, constMask int) (*ast.Module, []values.Value) {
	b := ast.NewBuilder("M")
	var params []ast.Param
	var ops []ast.Operand
	var passed []values.Value
	for i, a := range args {
		if constMask&(1<<i) != 0 {
			ops = append(ops, ast.ConstOp(a, sampleType(a)))
			continue
		}
		name := fmt.Sprintf("p%d", i)
		params = append(params, ast.Param{Name: name, Type: sampleType(a)})
		ops = append(ops, ast.VarOp(name))
		passed = append(passed, a)
	}
	deadArm := func(fb *ast.FuncBuilder, ret ast.Operand) {
		fb.IfElse(ast.BoolOp(true), "body", "dead")
		fb.Block("dead")
		fb.Return(ret)
		fb.Block("body")
	}
	fb := b.Function("br", types.Int64T, params...)
	r := fb.Local("r", types.BoolT)
	deadArm(fb, ast.IntOp(0))
	fb.Assign(r, op, ops...)
	fb.IfElse(r, "yes", "no")
	fb.Block("yes")
	fb.Return(ast.IntOp(1))
	fb.Block("no")
	fb.Return(ast.IntOp(2))
	fv := b.Function("val", types.BoolT, params...)
	rv := fv.Local("r", types.BoolT)
	deadArm(fv, ast.BoolOp(false))
	fv.Assign(rv, op, ops...)
	fv.Return(rv)
	return b.M, passed
}

// TestBranchOnEveryBooleanOp runs every bool-yielding op under an if.else
// and as a plain value, over register and constant operand shapes, at O0,
// O1 and eager O2. Result and raised exception must agree at every level;
// O1 and O2 must charge the same steps, and O0 exactly one more on the
// branch shape when the compare completes (the if.else fusion absorbs).
func TestBranchOnEveryBooleanOp(t *testing.T) {
	for _, op := range boolOps() {
		for si, args := range boolOpSamples(op) {
			for mask := 0; mask < 1<<len(args)-1; mask++ { // all-constant folds away
				ok := true
				for i, a := range args {
					ok = ok && (mask&(1<<i) == 0 || constable(a))
				}
				if !ok {
					continue
				}
				name := fmt.Sprintf("%s/sample%d/const%b", op, si, mask)
				t.Run(name, func(t *testing.T) { checkBoolOp(t, op, args, mask) })
			}
		}
	}
}

func checkBoolOp(t *testing.T, op string, args []values.Value, mask int) {
	type outcome struct {
		res   string
		steps uint64
	}
	run := func(ex *Exec, fn string, passed []values.Value) outcome {
		v, err := ex.Call(fn, passed...)
		if err != nil {
			return outcome{"raise " + excName(err), ex.Steps()}
		}
		return outcome{values.Format(v), ex.Steps()}
	}
	var br, val [3]outcome
	for level := 0; level <= 2; level++ {
		m, passed := boolOpModule(op, args, mask)
		// O1 is linked at O0 and optimized by hand to see the pass statistics.
		prog, err := LinkWith(Options{OptLevel: level &^ 1}, m)
		if err != nil {
			t.Fatal(err)
		}
		if level == 1 {
			Optimize(prog.Fn("M::val"), 1)
			if st := Optimize(prog.Fn("M::br"), 1); st.Fused == 0 {
				t.Fatalf("O1 did not fuse %s into its if.else:\n%s", op, prog.Fn("M::br").Disasm())
			}
		}
		ex, err := NewExec(prog)
		if err != nil {
			t.Fatal(err)
		}
		br[level] = run(ex, "M::br", passed)
		val[level] = run(ex, "M::val", passed)
	}
	for level := 1; level <= 2; level++ {
		if br[level].res != br[0].res || val[level].res != val[0].res {
			t.Fatalf("O%d diverged: br %q val %q, O0 br %q val %q",
				level, br[level].res, val[level].res, br[0].res, val[0].res)
		}
	}
	if br[1].steps != br[2].steps || val[0].steps != val[1].steps || val[1].steps != val[2].steps {
		t.Fatalf("step ledgers diverged: br %d/%d/%d val %d/%d/%d", br[0].steps, br[1].steps,
			br[2].steps, val[0].steps, val[1].steps, val[2].steps)
	}
	absorbed := uint64(1)
	if strings.HasPrefix(br[0].res, "raise ") {
		absorbed = 0
	}
	if br[0].steps != br[1].steps+absorbed {
		t.Fatalf("O0 charged %d steps, O1 %d: the fused if.else should absorb exactly %d",
			br[0].steps, br[1].steps, absorbed)
	}
}

// TestOpTableConcurrentLinks links and tiers the same program on several
// goroutines at once: op ids and superinstruction rows are interned on
// first use, from whichever goroutine gets there first. Run under -race.
func TestOpTableConcurrentLinks(t *testing.T) {
	const workers = 4
	dis := make(chan string, workers)
	for w := 0; w < workers; w++ {
		go func() {
			prog, err := LinkWith(Options{OptLevel: 2}, countModule().M, spinModule().M)
			if err != nil {
				dis <- err.Error()
				return
			}
			dis <- prog.Fn("M::count").DisasmTier() + prog.Fn("M::spin").DisasmTier()
		}()
	}
	first := <-dis
	for w := 1; w < workers; w++ {
		if got := <-dis; got != first {
			t.Fatalf("concurrent links disagree:\n%s\n---\n%s", first, got)
		}
	}
}
