package vm

import (
	"fmt"
	"strings"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// Tests for calls that return in two registers: a call to a function whose
// every return is a two-element constructor, read only by tuple.index, is
// split (splitTuples) and the callee's return writes both components
// (execReturnPair, transfer) — no tuple on either side.

var bytesPairT = types.TupleT(types.BytesT, iterT)

// pairModule holds the callee shapes and the callers the differential runs.
//
//	take(cur, n) -> (bytes, iter): n bytes at cur — suspends on an open rope
//	    that is short, raises on a frozen one, and throws for n == 99;
//	    returns on two paths, the second a constructor with a constant.
//	split(cur, n): bytes.length(b) * 1000 + the distance to the end iterator.
//	boxed(cur, n, s): the same, but the tuple is also stored in s.f.
//	caught(cur, n): split, inside a try range that catches what take raises.
//	twice(cur): split, calls take in a loop, summing the lengths.
//	viaReg(cur): calls tupleReg, which returns a tuple register — no split.
//	falls(cur, n): calls mayFall, which can run off its end — no split.
func pairModule() *ast.Module {
	b := ast.NewBuilder("M")
	{
		fb := b.Function("take", bytesPairT, ast.Param{Name: "cur", Type: iterT}, ast.Param{Name: "n", Type: types.Int64T})
		tup := fb.Local("tup", bytesPairT)
		v := fb.Local("v", types.BytesT)
		end := fb.Local("end", iterT)
		c := fb.Local("c", types.BoolT)
		fb.Assign(c, "int.eq", ast.VarOp("n"), ast.IntOp(99))
		fb.IfElse(c, "throw", "read")
		fb.Block("throw")
		fb.Instr("exception.throw", ast.StringOp("M::Bad"), ast.StringOp("n is 99"))
		fb.Block("read")
		fb.Assign(tup, "unpack.bytes", ast.VarOp("cur"), ast.VarOp("n"))
		fb.Assign(v, "tuple.index", tup, ast.IntOp(0))
		fb.Assign(end, "tuple.index", tup, ast.IntOp(1))
		fb.Assign(c, "int.eq", ast.VarOp("n"), ast.IntOp(0))
		fb.IfElse(c, "empty", "full")
		fb.Block("empty")
		fb.Return(ast.TupleOp(ast.ConstOp(values.BytesFrom([]byte("none")), types.BytesT), ast.VarOp("cur")))
		fb.Block("full")
		fb.Return(ast.TupleOp(v, end))
	}
	// readPair emits t = call callee(args); v = t[0]; end = t[1]; r = ...
	readPair := func(fb *ast.FuncBuilder, callee string, args ...ast.Operand) (t, r ast.Operand) {
		t = fb.Local("t", bytesPairT)
		v := fb.Local("v", types.BytesT)
		end := fb.Local("end", iterT)
		l := fb.Local("l", types.Int64T)
		d := fb.Local("d", types.Int64T)
		r = fb.Local("r", types.Int64T)
		fb.CallResult(t, callee, args...)
		fb.Assign(v, "tuple.index", t, ast.IntOp(0))
		fb.Assign(end, "tuple.index", t, ast.IntOp(1))
		fb.Assign(l, "bytes.length", v)
		fb.Assign(d, "iterator.diff", ast.VarOp("cur"), end)
		fb.Assign(r, "int.mul", l, ast.IntOp(1000))
		fb.Assign(r, "int.add", r, d)
		return t, r
	}
	curN := []ast.Param{{Name: "cur", Type: iterT}, {Name: "n", Type: types.Int64T}}
	{
		fb := b.Function("split", types.Int64T, curN...)
		_, r := readPair(fb, "take", ast.VarOp("cur"), ast.VarOp("n"))
		fb.Return(r)
	}
	{
		fb := b.Function("boxed", types.Int64T, append(curN, ast.Param{Name: "s", Type: types.AnyT})...)
		t, r := readPair(fb, "take", ast.VarOp("cur"), ast.VarOp("n"))
		fb.Instr("struct.set", ast.VarOp("s"), ast.FieldOperand("f"), t)
		fb.Return(r)
	}
	{
		fb := b.Function("caught", types.Int64T, curN...)
		e := fb.Local("e", types.ExcT)
		fb.TryBegin("catch", e)
		_, r := readPair(fb, "take", ast.VarOp("cur"), ast.VarOp("n"))
		fb.TryEnd()
		fb.Return(r)
		fb.Block("catch")
		fb.Return(ast.IntOp(-1))
	}
	{
		fb := b.Function("twice", types.Int64T, ast.Param{Name: "cur", Type: iterT})
		t := fb.Local("t", bytesPairT)
		v := fb.Local("v", types.BytesT)
		l := fb.Local("l", types.Int64T)
		sum := fb.Local("sum", types.Int64T)
		i := fb.Local("i", types.Int64T)
		c := fb.Local("c", types.BoolT)
		fb.Jump("loop")
		fb.Block("loop")
		fb.CallResult(t, "take", ast.VarOp("cur"), ast.IntOp(2))
		fb.Assign(v, "tuple.index", t, ast.IntOp(0))
		fb.Assign(ast.VarOp("cur"), "tuple.index", t, ast.IntOp(1))
		fb.Assign(l, "bytes.length", v)
		fb.Assign(sum, "int.add", sum, l)
		fb.Assign(i, "int.add", i, ast.IntOp(1))
		fb.Assign(c, "int.lt", i, ast.IntOp(3))
		fb.IfElse(c, "loop", "done")
		fb.Block("done")
		fb.Return(sum)
	}
	{
		fb := b.Function("tupleReg", bytesPairT, ast.Param{Name: "cur", Type: iterT})
		tup := fb.Local("tup", bytesPairT)
		fb.Assign(tup, "unpack.bytes", ast.VarOp("cur"), ast.IntOp(1))
		fb.Return(tup)
		fb = b.Function("viaReg", types.Int64T, ast.Param{Name: "cur", Type: iterT})
		_, r := readPair(fb, "tupleReg", ast.VarOp("cur"))
		fb.Return(r)
	}
	{
		fb := b.Function("mayFall", bytesPairT, curN...)
		c := fb.Local("c", types.BoolT)
		fb.Assign(c, "int.gt", ast.VarOp("n"), ast.IntOp(0))
		fb.IfElse(c, "ret", "off")
		fb.Block("ret")
		fb.Return(ast.TupleOp(ast.ConstOp(values.BytesFrom([]byte("x")), types.BytesT), ast.VarOp("cur")))
		fb.Block("off") // no return: runs off the end, returning nothing
		fb = b.Function("falls", types.Int64T, curN...)
		e := fb.Local("e", types.ExcT)
		fb.TryBegin("catch", e)
		_, r := readPair(fb, "mayFall", ast.VarOp("cur"), ast.VarOp("n"))
		fb.TryEnd()
		fb.Return(r)
		fb.Block("catch")
		fb.Return(ast.IntOp(-1))
	}
	return b.M
}

func TestPairReturnSplitsOnlyWhatItMay(t *testing.T) {
	for fn, want := range map[string]int{
		"M::split": 1, "M::caught": 1, "M::twice": 1, // read only by tuple.index
		"M::boxed":  0, // the tuple escapes into s.f
		"M::viaReg": 0, // the callee returns a tuple register
		"M::falls":  0, // the callee can run off its end
	} {
		f, _ := optStatsFor(t, pairModule(), fn)
		calls := 0
		for _, in := range f.Code {
			if rowOf(in.opID) == opCall && in.d2 != 0 {
				calls++
			}
		}
		if calls != want {
			t.Errorf("%s: %d split calls, want %d\n%s", fn, calls, want, f.Disasm())
		}
	}
	f, _ := optStatsFor(t, pairModule(), "M::split")
	const golden = `func M::split (params=2 regs=9)
0000 call               r2, r8 <- r0, r1
0001 assign             r3 <- r2
0002 assign             r4 <- r8
0003 bytes.length       r5 <- r2
0004 iterator.diff      r6 <- r0, r8
0005 int.mul            r7 <- r5, c:1000
0006 int.add            r7 <- r7, r6
0007 return.result      _ <- r7
`
	if got := f.Disasm(); got != golden {
		t.Errorf("split caller:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestPairReturnDifferential runs every caller at O0 (the boxed reference:
// the callee builds the tuple), O1 and O2 over input that suffices, input
// that is short on a frozen rope (take raises), n = 99 (take throws), and
// input that arrives in pieces (take suspends and resumes inside the split
// call, two parses interleaved on one Exec). Everything observable must
// match, including the tuple boxed stores and take called directly.
func TestPairReturnDifferential(t *testing.T) {
	sdef := values.NewStructDef("S", values.StructField{Name: "f"})
	run := func(ex *Exec) string {
		var out []string
		call := func(fn string, args ...values.Value) {
			v, err := ex.Call(fn, args...)
			out = append(out, fmt.Sprintf("%s%s = %s / %v", fn, values.Format(values.TupleVal(args...)), values.Format(v), err))
		}
		for _, n := range []int64{0, 3, 5, 99} {
			for _, fn := range []string{"M::split", "M::caught", "M::falls"} {
				call(fn, frozen('a', 'b', 'c', 'd'), values.Int(n))
			}
			s := values.NewStruct(sdef)
			call("M::boxed", frozen('a', 'b', 'c', 'd'), values.Int(n), values.StructVal(s))
			out = append(out, values.Format(values.StructVal(s)))
			call("M::take", frozen('a', 'b', 'c', 'd'), values.Int(n))
		}
		call("M::twice", frozen(1, 2, 3, 4, 5, 6, 7))
		call("M::twice", frozen(1, 2, 3))
		call("M::viaReg", frozen(7, 8))

		// Suspend inside the split call: two parses, each rope growing a
		// byte per resume, interleaved with a direct call on the same Exec.
		type parse struct {
			rope *hbytes.Bytes
			run  *Resumable
			rest []byte
		}
		var ps []*parse
		for i, fn := range []string{"M::twice", "M::split"} {
			msg := []byte{9, 8, 7, 6, 5, 4, 3}
			p := &parse{rope: hbytes.New(), rest: msg}
			args := []values.Value{values.IterBytes(p.rope.Begin())}
			if i == 1 {
				args = append(args, values.Int(5))
			}
			p.run = ex.FiberCall(ex.Prog.Fn(fn), args...)
			ps = append(ps, p)
		}
		for step := 0; step < 9; step++ {
			for i, p := range ps {
				v, done, err := p.run.Resume()
				out = append(out, fmt.Sprintf("%d.%d: %s %v %v", step, i, values.Format(v), done, err))
				if len(p.rest) > 0 {
					p.rope.Append(p.rest[:1])
					p.rest = p.rest[1:]
				}
			}
			call("M::split", frozen('x', 'y'), values.Int(1))
		}
		return strings.Join(out, "\n")
	}
	want := run(linkAt(t, 0, pairModule()))
	for _, level := range []int{1, 2} {
		if got := run(linkAt(t, level, pairModule())); got != want {
			t.Fatalf("O%d diverges from the O0 reference:\n--- O%d ---\n%s\n--- O0 ---\n%s", level, level, got, want)
		}
	}
	t.Log("\n" + want)
}
