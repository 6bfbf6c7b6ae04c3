package vm

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/values"
)

// linkAt links modules at an explicit optimization level.
func linkAt(t *testing.T, level int, mods ...*ast.Module) *Exec {
	t.Helper()
	prog, err := LinkWith(Options{OptLevel: level}, mods...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExec(prog)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// optStatsFor compiles at -O0 and runs the optimizer by hand so tests can
// inspect per-pass statistics.
func optStatsFor(t *testing.T, m *ast.Module, fname string) (*CompiledFunc, OptStats) {
	t.Helper()
	prog, err := LinkWith(Options{OptLevel: 0}, m)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Fn(fname)
	if fn == nil {
		t.Fatalf("no function %s", fname)
	}
	return fn, Optimize(fn, 1)
}

func TestOptConstFold(t *testing.T) {
	// y = (2*3)+4 over constants folds to a single materialized 10.
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T)
	y := fb.Local("y", types.Int64T)
	fb.Assign(y, "int.mul", ast.IntOp(2), ast.IntOp(3))
	fb.Assign(y, "int.add", y, ast.IntOp(4))
	fb.Return(y)

	fn, st := optStatsFor(t, b.M, "M::f")
	if st.Folded < 2 {
		t.Fatalf("folded %d instructions, want >= 2\n%s", st.Folded, fn.Disasm())
	}
	if dis := fn.Disasm(); !strings.Contains(dis, "c:10") {
		t.Fatalf("folded constant 10 not materialized:\n%s", dis)
	}

	ex := linkAt(t, 1, b.M)
	if v, err := ex.Call("M::f"); err != nil || v.AsInt() != 10 {
		t.Fatalf("got %v %v", v, err)
	}
}

func TestOptCopyPropagation(t *testing.T) {
	// y = x; z = y+1 — the y read is replaced by x, making the copy dead.
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T, ast.Param{Name: "x", Type: types.Int64T})
	y := fb.Local("y", types.Int64T)
	z := fb.Local("z", types.Int64T)
	fb.Assign(y, "assign", ast.VarOp("x"))
	fb.Assign(z, "int.add", y, ast.IntOp(1))
	fb.Return(z)

	_, st := optStatsFor(t, b.M, "M::f")
	if st.Copies == 0 {
		t.Fatal("no copies propagated")
	}
	ex := linkAt(t, 1, b.M)
	if v, err := ex.Call("M::f", values.Int(41)); err != nil || v.AsInt() != 42 {
		t.Fatalf("got %v %v", v, err)
	}
}

func TestOptJumpThreading(t *testing.T) {
	// A chain of empty blocks threads to the final target and the hops die.
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T)
	fb.Jump("a")
	fb.Block("a")
	fb.Jump("b")
	fb.Block("b")
	fb.Jump("c")
	fb.Block("c")
	fb.Return(ast.IntOp(7))

	fn, st := optStatsFor(t, b.M, "M::f")
	if st.Threaded == 0 {
		t.Fatalf("no jumps threaded:\n%s", fn.Disasm())
	}
	if st.Removed == 0 {
		t.Fatalf("threaded-over jumps not removed:\n%s", fn.Disasm())
	}
	ex := linkAt(t, 1, b.M)
	if v, err := ex.Call("M::f"); err != nil || v.AsInt() != 7 {
		t.Fatalf("got %v %v", v, err)
	}
}

func TestOptFusionGolden(t *testing.T) {
	// The canonical counting loop: `c = i < n; if c ...` fuses into one
	// int.lt+br instruction. Golden disassembly pins the whole post-opt
	// shape — operand layout, branch targets, and the shrunken body.
	fn, st := optStatsFor(t, spinModule().M, "M::spin")
	if st.Fused == 0 {
		t.Fatalf("no compare fused into branch:\n%s", fn.Disasm())
	}
	const want = `func M::spin (params=1 regs=3)
0000 assign             r1 <- c:0
0001 int.lt+br          r2 <- r1, r0 ; t1=2 t2=3
0002 int.add            r1 <- r1, c:1 ; t1=1
0003 return.result      _ <- r1
`
	if got := fn.Disasm(); got != want {
		t.Fatalf("post-optimization disassembly changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// And the fused loop still counts correctly.
	ex := linkAt(t, 1, spinModule().M)
	if v, err := ex.Call("M::spin", values.Int(1234)); err != nil || v.AsInt() != 1234 {
		t.Fatalf("got %v %v", v, err)
	}
}

func TestOptDeadCodeElimination(t *testing.T) {
	// An if.else over a constant condition folds to a jump; the untaken
	// branch becomes unreachable and is removed.
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T)
	c := fb.Local("c", types.BoolT)
	fb.Assign(c, "bool.and", ast.BoolOp(true), ast.BoolOp(true))
	fb.IfElse(c, "yes", "no")
	fb.Block("yes")
	fb.Return(ast.IntOp(1))
	fb.Block("no")
	fb.Return(ast.IntOp(2))

	fn, st := optStatsFor(t, b.M, "M::f")
	if st.Removed == 0 {
		t.Fatalf("dead branch not removed:\n%s", fn.Disasm())
	}
	if dis := fn.Disasm(); strings.Contains(dis, "c:2") {
		t.Fatalf("unreachable branch survived:\n%s", dis)
	}
	ex := linkAt(t, 1, b.M)
	if v, err := ex.Call("M::f"); err != nil || v.AsInt() != 1 {
		t.Fatalf("got %v %v", v, err)
	}
}

// tryModule raises inside a try whose handler must stay attached to the
// right pc range after the optimizer moves and deletes code around it.
func tryModule() *ast.Builder {
	b := ast.NewBuilder("M")
	fb := b.Function("guarded", types.Int64T, ast.Param{Name: "k", Type: types.Int64T})
	m := fb.Local("m", types.RefT(types.MapT(types.Int64T, types.Int64T)))
	e := fb.Local("e", types.ExcT)
	v := fb.Local("v", types.Int64T)
	pad := fb.Local("pad", types.Int64T)
	// Foldable padding before the try so DCE/threading renumbers pcs.
	fb.Assign(pad, "int.mul", ast.IntOp(3), ast.IntOp(7))
	fb.Jump("body")
	fb.Block("body")
	fb.Assign(m, "new", ast.TypeOperand(types.MapT(types.Int64T, types.Int64T)))
	fb.Instr("map.insert", m, ast.IntOp(1), ast.IntOp(100))
	fb.TryBeginNamed("catch", e, "Hilti::IndexError")
	fb.Assign(v, "map.get", m, ast.VarOp("k"))
	fb.TryEnd()
	fb.Return(v)
	fb.Block("catch")
	fb.Return(ast.IntOp(-1))
	return b
}

func TestOptHandlerRangesSurviveCodeMotion(t *testing.T) {
	for _, level := range []int{0, 1} {
		ex := linkAt(t, level, tryModule().M)
		if v, err := ex.Call("M::guarded", values.Int(1)); err != nil || v.AsInt() != 100 {
			t.Fatalf("O%d hit: %v %v", level, v, err)
		}
		// Missing key raises IndexError; the handler must still catch it.
		if v, err := ex.Call("M::guarded", values.Int(2)); err != nil || v.AsInt() != -1 {
			t.Fatalf("O%d miss should be caught in-language: %v %v", level, v, err)
		}
	}
}

func TestOptUncaughtExceptionIdentical(t *testing.T) {
	// An exception with no handler must surface identically at both levels.
	b := ast.NewBuilder("M")
	fb := b.Function("boom", types.Int64T)
	m := fb.Local("m", types.RefT(types.MapT(types.Int64T, types.Int64T)))
	v := fb.Local("v", types.Int64T)
	fb.Assign(v, "map.get", m, ast.IntOp(5))
	fb.Return(v)

	var names [2]string
	for _, level := range []int{0, 1} {
		ex := linkAt(t, level, b.M)
		_, err := ex.Call("M::boom")
		var exc *values.Exception
		if !errors.As(err, &exc) {
			t.Fatalf("O%d: want exception, got %v", level, err)
		}
		names[level] = exc.Name
	}
	if names[0] != names[1] {
		t.Fatalf("exception identity differs: O0=%s O1=%s", names[0], names[1])
	}
}

// TestOptDifferential runs a set of behaviorally diverse programs at -O0 and
// -O1 and requires identical results — the optimizer's core contract.
func TestOptDifferential(t *testing.T) {
	type prog struct {
		name  string
		build func() *ast.Module
		entry string
		args  []values.Value
	}
	progs := []prog{
		{"spin", func() *ast.Module { return spinModule().M }, "M::spin", []values.Value{values.Int(5000)}},
		{"fib", func() *ast.Module {
			b := ast.NewBuilder("M")
			fb := b.Function("fib", types.Int64T, ast.Param{Name: "n", Type: types.Int64T})
			c := fb.Local("c", types.BoolT)
			a := fb.Local("a", types.Int64T)
			bb := fb.Local("b", types.Int64T)
			r := fb.Local("r", types.Int64T)
			n1 := fb.Local("n1", types.Int64T)
			n2 := fb.Local("n2", types.Int64T)
			fb.Assign(c, "int.lt", ast.VarOp("n"), ast.IntOp(2))
			fb.IfElse(c, "base", "rec")
			fb.Block("base")
			fb.Return(ast.VarOp("n"))
			fb.Block("rec")
			fb.Assign(n1, "int.sub", ast.VarOp("n"), ast.IntOp(1))
			fb.Assign(n2, "int.sub", ast.VarOp("n"), ast.IntOp(2))
			fb.CallResult(a, "fib", n1)
			fb.CallResult(bb, "fib", n2)
			fb.Assign(r, "int.add", a, bb)
			fb.Return(r)
			return b.M
		}, "M::fib", []values.Value{values.Int(17)}},
		{"setops", func() *ast.Module {
			b := ast.NewBuilder("M")
			fb := b.Function("f", types.BoolT, ast.Param{Name: "a", Type: types.AddrT})
			s := fb.Local("s", types.RefT(types.SetT(types.AddrT)))
			r := fb.Local("r", types.BoolT)
			fb.Instr("set.insert", s, ast.VarOp("a"))
			fb.Assign(r, "set.exists", s, ast.VarOp("a"))
			fb.Return(r)
			return b.M
		}, "M::f", []values.Value{values.MustParseAddr("192.168.1.1")}},
		{"strings", func() *ast.Module {
			b := ast.NewBuilder("M")
			fb := b.Function("f", types.StringT, ast.Param{Name: "s", Type: types.StringT})
			r := fb.Local("r", types.StringT)
			fb.Assign(r, "string.concat", ast.VarOp("s"), ast.StringOp("-suffix"))
			fb.Return(r)
			return b.M
		}, "M::f", []values.Value{values.String("prefix")}},
	}
	for _, p := range progs {
		ex0 := linkAt(t, 0, p.build())
		ex1 := linkAt(t, 1, p.build())
		v0, err0 := ex0.Call(p.entry, p.args...)
		v1, err1 := ex1.Call(p.entry, p.args...)
		if (err0 == nil) != (err1 == nil) {
			t.Fatalf("%s: error divergence: O0=%v O1=%v", p.name, err0, err1)
		}
		if values.Format(v0) != values.Format(v1) {
			t.Fatalf("%s: result divergence: O0=%v O1=%v", p.name, v0, v1)
		}
	}
}

func TestOptStaticCountShrinks(t *testing.T) {
	p0, err := LinkWith(Options{OptLevel: 0}, spinModule().M)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := LinkWith(Options{OptLevel: 1}, spinModule().M)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := p0.StaticInstrCount(), p1.StaticInstrCount(); b >= a {
		t.Fatalf("optimizer did not shrink code: %d -> %d", a, b)
	}
}

// Pooled frames must hold no values: a retained reference in a dead frame
// would keep arbitrarily large object graphs (packet buffers, containers)
// alive across calls.
func TestFreedFramesHoldNoValues(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("hold", types.Int64T, ast.Param{Name: "s", Type: types.StringT})
	r := fb.Local("r", types.Int64T)
	pad := fb.Local("pad", types.StringT)
	fb.Assign(pad, "assign", ast.VarOp("s"))
	fb.Assign(r, "string.length", pad)
	fb.Return(r)

	ex := mustLink(t, b.M)
	if v, err := ex.Call("M::hold", values.String("payload")); err != nil || v.AsInt() != 7 {
		t.Fatalf("got %v %v", v, err)
	}
	if len(ex.freeFrames) == 0 {
		t.Fatal("frame was not pooled")
	}
	for _, fr := range ex.freeFrames {
		for i, v := range fr.R[:cap(fr.R)] {
			if v != (values.Value{}) {
				t.Fatalf("pooled frame register %d retains %v", i, v)
			}
		}
		for i, v := range fr.args[:cap(fr.args)] {
			if v != (values.Value{}) {
				t.Fatalf("pooled frame operand scratch %d retains %v", i, v)
			}
		}
		if fr.Ret != values.Nil {
			t.Fatalf("pooled frame Ret retains %v", fr.Ret)
		}
	}
}

// TestCopyPropShapedExec: copy propagation that turns a register operand
// into a constant must re-pick the shape-specialized executor (PR 4's
// drive-by fix: `int.add a k` with k = 7 kept the reg+reg executor and
// read a stale register).
func TestCopyPropShapedExec(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T, ast.Param{Name: "a", Type: types.Int64T}, ast.Param{Name: "b", Type: types.Int64T})
	k := fb.Local("k", types.Int64T)
	r := fb.Local("r", types.Int64T)
	fb.Assign(k, "assign", ast.IntOp(7))
	fb.Assign(r, "int.add", ast.VarOp("a"), k)
	fb.Return(r)
	for _, level := range []int{0, 1} {
		if v, err := linkAt(t, level, b.M).Call("M::f", values.Int(100), values.Int(999)); err != nil || v.AsInt() != 107 {
			t.Errorf("O%d: got %v %v, want 107", level, v, err)
		}
	}
}

// A pooled frame moves between functions of different widths: freeFrame
// clears only the registers the last call exposed, so a wider reuse must
// still find every register it exposes Nil — at O1 and on tier-2 code.
func TestPooledFrameExposesOnlyNil(t *testing.T) {
	b := ast.NewBuilder("M")
	build := func(name string, width int) {
		fb := b.Function(name, types.Int64T, ast.Param{Name: "s", Type: types.StringT})
		prev := ast.VarOp("s")
		for i := 0; i < width; i++ {
			l := fb.Local("l"+strconv.Itoa(i), types.StringT)
			fb.Assign(l, "string.concat", prev, ast.VarOp("s"))
			prev = l
		}
		n := fb.Local("n", types.Int64T)
		fb.Assign(n, "string.length", prev)
		fb.Return(n)
	}
	build("wide", 12)
	build("narrow", 2)
	for _, level := range []int{1, 2} {
		ex := linkAt(t, level, b.M)
		wide, narrow := ex.Prog.Fn("M::wide"), ex.Prog.Fn("M::narrow")
		if level == 2 && !(wide.TierActive() && narrow.TierActive()) {
			t.Fatal("O2 link did not install tier-2 code")
		}
		length := map[*CompiledFunc]int64{wide: 2 * 13, narrow: 2 * 3}
		for i, fn := range []*CompiledFunc{wide, narrow, wide} {
			fr := ex.newFrame(fn)
			for r, v := range fr.R {
				if v != (values.Value{}) {
					t.Fatalf("O%d call %d (%s): register %d exposes %v", level, i, fn.Name, r, v)
				}
			}
			ex.freeFrame(fr)
			if v, err := ex.CallFn(fn, values.String("ab")); err != nil || v.AsInt() != length[fn] {
				t.Fatalf("O%d %s: %v %v", level, fn.Name, v, err)
			}
			if len(ex.freeFrames) != 1 || ex.freeFrames[0] != fr {
				t.Fatalf("O%d call %d: the frame was not reused and pooled again", level, i)
			}
		}
	}
}
