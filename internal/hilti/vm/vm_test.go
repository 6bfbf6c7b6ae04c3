package vm

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/container"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/threads"
	"hilti/internal/rt/values"
)

func mustLink(t *testing.T, mods ...*ast.Module) *Exec {
	t.Helper()
	prog, err := Link(mods...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExec(prog)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestHelloWorld(t *testing.T) {
	// The paper's Figure 3 program.
	b := ast.NewBuilder("Main")
	b.Import("Hilti")
	fb := b.Function("run", types.VoidT)
	fb.Call("Hilti::print", ast.StringOp("Hello, World!"))
	fb.ReturnVoid()

	ex := mustLink(t, b.M)
	var out bytes.Buffer
	ex.Out = &out
	if _, err := ex.Call("Main::run"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "Hello, World!\n" {
		t.Fatalf("output %q", out.String())
	}
}

func TestArithmeticAndLocals(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T, ast.Param{Name: "x", Type: types.Int64T})
	y := fb.Local("y", types.Int64T)
	fb.Assign(y, "int.mul", ast.VarOp("x"), ast.IntOp(3))
	fb.Assign(y, "int.add", y, ast.IntOp(4))
	fb.Return(y)

	ex := mustLink(t, b.M)
	v, err := ex.Call("M::f", values.Int(10))
	if err != nil || v.AsInt() != 34 {
		t.Fatalf("got %v %v", v, err)
	}
}

func TestRecursionFib(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("fib", types.Int64T, ast.Param{Name: "n", Type: types.Int64T})
	c := fb.Local("c", types.BoolT)
	a := fb.Local("a", types.Int64T)
	bb := fb.Local("b", types.Int64T)
	fb.Assign(c, "int.lt", ast.VarOp("n"), ast.IntOp(2))
	fb.IfElse(c, "base", "rec")
	fb.Block("base")
	fb.Return(ast.VarOp("n"))
	fb.Block("rec")
	n1 := fb.Local("n1", types.Int64T)
	n2 := fb.Local("n2", types.Int64T)
	fb.Assign(n1, "int.sub", ast.VarOp("n"), ast.IntOp(1))
	fb.Assign(n2, "int.sub", ast.VarOp("n"), ast.IntOp(2))
	fb.CallResult(a, "fib", n1)
	fb.CallResult(bb, "fib", n2)
	r := fb.Local("r", types.Int64T)
	fb.Assign(r, "int.add", a, bb)
	fb.Return(r)

	ex := mustLink(t, b.M)
	v, err := ex.Call("M::fib", values.Int(15))
	if err != nil || v.AsInt() != 610 {
		t.Fatalf("fib(15) = %v, %v", v, err)
	}
}

func TestGlobalsAndSets(t *testing.T) {
	// The paper's Figure 8 pattern: a global set of addresses.
	b := ast.NewBuilder("M")
	b.Global("hosts", types.RefT(types.SetT(types.AddrT)))
	fb := b.Function("add", types.VoidT, ast.Param{Name: "a", Type: types.AddrT})
	fb.Instr("set.insert", ast.VarOp("hosts"), ast.VarOp("a"))
	fb.ReturnVoid()
	fb2 := b.Function("count", types.Int64T)
	n := fb2.Local("n", types.Int64T)
	fb2.Assign(n, "set.size", ast.VarOp("hosts"))
	fb2.Return(n)

	ex := mustLink(t, b.M)
	ex.Call("M::add", values.MustParseAddr("1.2.3.4"))
	ex.Call("M::add", values.MustParseAddr("5.6.7.8"))
	ex.Call("M::add", values.MustParseAddr("1.2.3.4"))
	v, err := ex.Call("M::count")
	if err != nil || v.AsInt() != 2 {
		t.Fatalf("count = %v, %v", v, err)
	}
}

func TestTryCatchIndexError(t *testing.T) {
	// The paper's Figure 5 pattern: classifier.get under try/catch.
	b := ast.NewBuilder("M")
	fb := b.Function("lookup", types.BoolT, ast.Param{Name: "k", Type: types.Int64T})
	m := fb.Local("m", types.RefT(types.MapT(types.Int64T, types.BoolT)))
	v := fb.Local("v", types.BoolT)
	e := fb.Local("e", types.ExcT)
	fb.Assign(m, "new", ast.TypeOperand(types.MapT(types.Int64T, types.BoolT)))
	fb.Instr("map.insert", m, ast.IntOp(1), ast.BoolOp(true))
	fb.TryBegin("catch", e)
	fb.Assign(v, "map.get", m, ast.VarOp("k"))
	fb.TryEnd()
	fb.Return(v)
	fb.Block("catch")
	fb.Return(ast.BoolOp(false))

	ex := mustLink(t, b.M)
	v1, err := ex.Call("M::lookup", values.Int(1))
	if err != nil || !v1.AsBool() {
		t.Fatalf("hit: %v %v", v1, err)
	}
	v2, err := ex.Call("M::lookup", values.Int(99))
	if err != nil || v2.AsBool() {
		t.Fatalf("miss should return false via catch: %v %v", v2, err)
	}
}

func TestUncaughtExceptionSurfacesAsError(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("boom", types.VoidT)
	x := fb.Local("x", types.Int64T)
	fb.Assign(x, "int.div", ast.IntOp(1), ast.IntOp(0))
	fb.ReturnVoid()

	ex := mustLink(t, b.M)
	_, err := ex.Call("M::boom")
	if err == nil || !strings.Contains(err.Error(), "DivisionByZero") {
		t.Fatalf("got %v", err)
	}
}

func TestExceptionPropagatesThroughCalls(t *testing.T) {
	b := ast.NewBuilder("M")
	inner := b.Function("inner", types.VoidT)
	x := inner.Local("x", types.Int64T)
	inner.Assign(x, "int.div", ast.IntOp(1), ast.IntOp(0))
	inner.ReturnVoid()

	outer := b.Function("outer", types.BoolT)
	e := outer.Local("e", types.ExcT)
	outer.TryBegin("catch", e)
	outer.Call("inner")
	outer.TryEnd()
	outer.Return(ast.BoolOp(false))
	outer.Block("catch")
	outer.Return(ast.BoolOp(true))

	ex := mustLink(t, b.M)
	v, err := ex.Call("M::outer")
	if err != nil || !v.AsBool() {
		t.Fatalf("exception did not propagate into caller's catch: %v %v", v, err)
	}
}

func TestHookBodiesRunInPriorityOrder(t *testing.T) {
	b := ast.NewBuilder("M")
	h1 := b.Hook("ev", 0)
	h1.Call("Hilti::print", ast.StringOp("low"))
	h1.ReturnVoid()
	h2 := b.Hook("ev", 10)
	h2.Call("Hilti::print", ast.StringOp("high"))
	h2.ReturnVoid()
	run := b.Function("run", types.VoidT)
	run.Instr("hook.run", ast.FuncOperand("ev"))
	run.ReturnVoid()

	ex := mustLink(t, b.M)
	var out bytes.Buffer
	ex.Out = &out
	if _, err := ex.Call("M::run"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "high\nlow\n" {
		t.Fatalf("output %q", out.String())
	}
}

func TestHooksMergeAcrossModules(t *testing.T) {
	// The paper's custom linker merges hook bodies across compilation units.
	b1 := ast.NewBuilder("A")
	h1 := b1.Hook("ev", 0)
	h1.Call("Hilti::print", ast.StringOp("from A"))
	h1.ReturnVoid()
	b2 := ast.NewBuilder("B")
	h2 := b2.Hook("ev", 0)
	h2.Call("Hilti::print", ast.StringOp("from B"))
	h2.ReturnVoid()
	run := b2.Function("run", types.VoidT)
	run.Instr("hook.run", ast.FuncOperand("ev"))
	run.ReturnVoid()

	ex := mustLink(t, b1.M, b2.M)
	var out bytes.Buffer
	ex.Out = &out
	ex.Call("B::run")
	if out.String() != "from A\nfrom B\n" {
		t.Fatalf("output %q", out.String())
	}
}

func TestGlobalsAreThreadLocalAcrossExecs(t *testing.T) {
	b := ast.NewBuilder("M")
	b.Global("n", types.Int64T)
	fb := b.Function("incr", types.Int64T)
	fb.Assign(ast.VarOp("n"), "int.add", ast.VarOp("n"), ast.IntOp(1))
	fb.Return(ast.VarOp("n"))
	prog, err := Link(b.M)
	if err != nil {
		t.Fatal(err)
	}
	ex1, _ := NewExec(prog)
	ex2, _ := NewExec(prog)
	ex1.Call("M::incr")
	ex1.Call("M::incr")
	v, _ := ex2.Call("M::incr")
	if v.AsInt() != 1 {
		t.Fatalf("globals leaked across execution contexts: %v", v)
	}
}

func TestSwitchInstruction(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("pick", types.StringT, ast.Param{Name: "x", Type: types.Int64T})
	fb.Instr("switch", ast.VarOp("x"), ast.LabelOp("dflt"),
		ast.Operand{Kind: ast.CtorOp, Elems: []ast.Operand{ast.IntOp(1), ast.LabelOp("one")}},
		ast.Operand{Kind: ast.CtorOp, Elems: []ast.Operand{ast.IntOp(2), ast.LabelOp("two")}})
	fb.Block("one")
	fb.Return(ast.StringOp("one"))
	fb.Block("two")
	fb.Return(ast.StringOp("two"))
	fb.Block("dflt")
	fb.Return(ast.StringOp("other"))

	ex := mustLink(t, b.M)
	for arg, want := range map[int64]string{1: "one", 2: "two", 9: "other"} {
		v, err := ex.Call("M::pick", values.Int(arg))
		if err != nil || v.AsString() != want {
			t.Fatalf("pick(%d) = %v, %v", arg, v, err)
		}
	}
}

func TestFiberSuspensionOnBytes(t *testing.T) {
	// A function that reads a fixed-size chunk from a bytes value suspends
	// until enough data has arrived — the incremental-parsing model.
	b := ast.NewBuilder("M")
	fb := b.Function("read8", types.BytesT, ast.Param{Name: "data", Type: types.BytesT})
	it := fb.Local("it", types.IterT(types.BytesT))
	tup := fb.Local("tup", types.TupleT(types.BytesT, types.IterT(types.BytesT)))
	out := fb.Local("out", types.BytesT)
	fb.Assign(it, "bytes.begin", ast.VarOp("data"))
	fb.Assign(tup, "unpack.bytes", it, ast.IntOp(8))
	fb.Assign(out, "tuple.index", tup, ast.IntOp(0))
	fb.Return(out)

	ex := mustLink(t, b.M)
	data := hbytes.New()
	data.Append([]byte("abc"))

	r := ex.FiberCall(ex.Prog.Fn("M::read8"), values.BytesVal(data))
	_, done, err := r.Resume()
	if done || err != nil {
		t.Fatalf("should suspend: done=%v err=%v", done, err)
	}
	data.Append([]byte("defgh"))
	v, done, err := r.Resume()
	if !done || err != nil {
		t.Fatalf("should complete: done=%v err=%v", done, err)
	}
	if v.AsBytes().String() != "abcdefgh" {
		t.Fatalf("got %q", v.AsBytes().String())
	}
}

func TestFiberAbort(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("stall", types.VoidT, ast.Param{Name: "data", Type: types.BytesT})
	it := fb.Local("it", types.IterT(types.BytesT))
	tup := fb.Local("tup", types.TupleT(types.BytesT, types.IterT(types.BytesT)))
	fb.Assign(it, "bytes.begin", ast.VarOp("data"))
	fb.Assign(tup, "unpack.bytes", it, ast.IntOp(100))
	fb.ReturnVoid()

	ex := mustLink(t, b.M)
	data := hbytes.New()
	r := ex.FiberCall(ex.Prog.Fn("M::stall"), values.BytesVal(data))
	_, done, _ := r.Resume()
	if done {
		t.Fatal("should suspend")
	}
	r.Abort()
	if !r.Done() {
		t.Fatal("should be done after abort")
	}
}

func TestWouldBlockWithoutFiberRaises(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.VoidT, ast.Param{Name: "data", Type: types.BytesT})
	it := fb.Local("it", types.IterT(types.BytesT))
	tup := fb.Local("tup", types.TupleT(types.BytesT, types.IterT(types.BytesT)))
	fb.Assign(it, "bytes.begin", ast.VarOp("data"))
	fb.Assign(tup, "unpack.bytes", it, ast.IntOp(4))
	fb.ReturnVoid()

	ex := mustLink(t, b.M)
	data := hbytes.New()
	_, err := ex.Call("M::f", values.BytesVal(data))
	if err == nil || !strings.Contains(err.Error(), "WouldBlock") {
		t.Fatalf("got %v", err)
	}
}

// TestBytesAppendFrom: bytes.append_from appends n input bytes from an
// iterator and yields the iterator after them; like unpack.bytes it
// suspends short of input on an open rope, and raises past a frozen end or
// on a negative length, leaving the destination alone.
func TestBytesAppendFrom(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T, ast.Param{Name: "out", Type: types.BytesT},
		ast.Param{Name: "data", Type: types.BytesT}, ast.Param{Name: "n", Type: types.Int64T})
	begin := fb.Local("begin", types.IterT(types.BytesT))
	it := fb.Local("it", types.IterT(types.BytesT))
	d := fb.Local("d", types.Int64T)
	fb.Assign(begin, "bytes.begin", ast.VarOp("data"))
	fb.Assign(it, "iterator.incr", begin)
	fb.Assign(it, "bytes.append_from", ast.VarOp("out"), it, ast.VarOp("n"))
	fb.Assign(d, "iterator.diff", begin, it)
	fb.Return(d)
	ex := mustLink(t, b.M)

	out, data := hbytes.NewFromString("x"), hbytes.NewFromString("abc")
	r := ex.FiberCall(ex.Prog.Fn("M::f"), values.BytesVal(out), values.BytesVal(data), values.Int(5))
	if _, done, err := r.Resume(); done || err != nil || out.String() != "x" {
		t.Fatalf("should suspend with out untouched: done=%v err=%v out=%q", done, err, out.String())
	}
	data.Append([]byte("defg"))
	if v, done, err := r.Resume(); !done || err != nil || v.AsInt() != 6 || out.String() != "xbcdef" {
		t.Fatalf("resumed: %v done=%v err=%v out=%q", v, done, err, out.String())
	}

	data.Freeze()
	for _, n := range []int64{7, -1} {
		if _, err := ex.Call("M::f", values.BytesVal(out), values.BytesVal(data), values.Int(n)); excName(err) != "Hilti::ValueError" {
			t.Errorf("n=%d: %v, want Hilti::ValueError", n, err)
		}
	}
	out.Freeze()
	if _, err := ex.Call("M::f", values.BytesVal(out), values.BytesVal(data), values.Int(1)); err == nil {
		t.Error("appending to a frozen destination succeeded")
	}
	if out.String() != "xbcdef" {
		t.Fatalf("a failed append changed out to %q", out.String())
	}
}

func TestThreadScheduleIsolation(t *testing.T) {
	// thread.schedule runs the target on its own virtual thread with its
	// own globals; per-thread counters never race (paper §3.2).
	b := ast.NewBuilder("M")
	b.Global("count", types.Int64T)
	fb := b.Function("bump", types.VoidT)
	fb.Assign(ast.VarOp("count"), "int.add", ast.VarOp("count"), ast.IntOp(1))
	fb.ReturnVoid()

	prog, err := Link(b.M)
	if err != nil {
		t.Fatal(err)
	}
	sched := threads.NewScheduler(4)
	defer sched.Shutdown()
	for i := 0; i < 100; i++ {
		if err := ScheduleCall(sched, prog, uint64(i%8), "M::bump"); err != nil {
			t.Fatal(err)
		}
	}
	sched.Drain()
	// EachContext runs the callback on the worker goroutines concurrently,
	// so the accumulator must be atomic.
	var total atomic.Int64
	sched.EachContext(func(ctx *threads.Context) {
		if e, ok := ctx.Host["hilti.exec"].(*Exec); ok {
			total.Add(e.Globals[0].AsInt())
		}
	})
	if total.Load() != 100 {
		t.Fatalf("total = %d", total.Load())
	}
}

func TestHostFunctionCallOut(t *testing.T) {
	// HILTI code can invoke arbitrary host functions (paper §3.4).
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T)
	x := fb.Local("x", types.Int64T)
	fb.CallResult(x, "host_double", ast.IntOp(21))
	fb.Return(x)

	ex := mustLink(t, b.M)
	ex.RegisterHost("host_double", func(ex *Exec, args []values.Value) (values.Value, error) {
		return values.Int(args[0].AsInt() * 2), nil
	})
	v, err := ex.Call("M::f")
	if err != nil || v.AsInt() != 42 {
		t.Fatalf("got %v %v", v, err)
	}
}

func TestUnknownFunctionError(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.VoidT)
	fb.Call("does_not_exist")
	fb.ReturnVoid()
	ex := mustLink(t, b.M)
	if _, err := ex.Call("M::f"); err == nil {
		t.Fatal("unknown callee should raise")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []func(*ast.Builder){
		func(b *ast.Builder) { // undefined variable
			fb := b.Function("f", types.VoidT)
			fb.Assign(ast.VarOp("x"), "int.add", ast.VarOp("nope"), ast.IntOp(1))
		},
		func(b *ast.Builder) { // undefined label
			fb := b.Function("f", types.VoidT)
			fb.Jump("nowhere")
		},
		func(b *ast.Builder) { // unknown op
			fb := b.Function("f", types.VoidT)
			fb.Instr("frob.nicate", ast.IntOp(1))
		},
		func(b *ast.Builder) { // unclosed try
			fb := b.Function("f", types.VoidT)
			fb.TryBegin("c", ast.Operand{})
			fb.Block("c")
			fb.ReturnVoid()
		},
	}
	for i, mk := range cases {
		b := ast.NewBuilder("M")
		mk(b)
		if _, err := Link(b.M); err == nil {
			t.Errorf("case %d: expected link error", i)
		}
	}
}

func TestGlobalAutoInitContainers(t *testing.T) {
	b := ast.NewBuilder("M")
	b.Global("m", types.RefT(types.MapT(types.StringT, types.Int64T)))
	b.Global("v", types.RefT(types.VectorT(types.Int64T)))
	b.Global("l", types.RefT(types.ListT(types.Int64T)))
	ex := mustLink(t, b.M)
	if _, ok := ex.Globals[0].O.(*container.Map); !ok {
		t.Fatal("map global not initialized")
	}
	if _, ok := ex.Globals[1].O.(*container.Vector); !ok {
		t.Fatal("vector global not initialized")
	}
	if _, ok := ex.Globals[2].O.(*container.List); !ok {
		t.Fatal("list global not initialized")
	}
}

func TestMapExpirationViaGlobalTime(t *testing.T) {
	b := ast.NewBuilder("M")
	b.Global("dyn", types.RefT(types.SetT(types.Int64T)))
	setup := b.Function("setup", types.VoidT)
	setup.Instr("set.timeout", ast.VarOp("dyn"),
		ast.ConstOp(values.EnumVal(container.ExpireStrategyEnum, 2), nil),
		ast.ConstOp(values.Seconds(300), types.IntervalT))
	setup.ReturnVoid()
	add := b.Function("add", types.VoidT, ast.Param{Name: "x", Type: types.Int64T})
	add.Instr("set.insert", ast.VarOp("dyn"), ast.VarOp("x"))
	add.ReturnVoid()
	check := b.Function("check", types.BoolT,
		ast.Param{Name: "t", Type: types.TimeT}, ast.Param{Name: "x", Type: types.Int64T})
	bv := check.Local("b", types.BoolT)
	check.Instr("timer_mgr.advance_global", ast.VarOp("t"))
	check.Assign(bv, "set.exists", ast.VarOp("dyn"), ast.VarOp("x"))
	check.Return(bv)

	ex := mustLink(t, b.M)
	ex.Call("M::setup")
	ex.Call("M::add", values.Int(7))
	v, _ := ex.Call("M::check", values.TimeVal(100e9), values.Int(7))
	if !v.AsBool() {
		t.Fatal("should exist at t=100s")
	}
	v, _ = ex.Call("M::check", values.TimeVal(500e9), values.Int(7))
	if v.AsBool() {
		t.Fatal("should have expired by t=500s (last access 100s + 300s)")
	}
}

func TestResumeAfterCompletionErrors(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T)
	fb.Return(ast.IntOp(1))
	ex := mustLink(t, b.M)
	r := ex.FiberCall(ex.Prog.Fn("M::f"))
	v, done, err := r.Resume()
	if !done || err != nil || v.AsInt() != 1 {
		t.Fatalf("got %v %v %v", v, done, err)
	}
	v2, done2, err2 := r.Resume()
	if !done2 || err2 != nil || v2.AsInt() != 1 {
		t.Fatalf("second resume should replay result: %v %v %v", v2, done2, err2)
	}
}

func TestExceptionTypeVisible(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.VoidT)
	m := fb.Local("m", types.RefT(types.MapT(types.Int64T, types.Int64T)))
	x := fb.Local("x", types.Int64T)
	fb.Assign(m, "new", ast.TypeOperand(types.MapT(types.Int64T, types.Int64T)))
	fb.Assign(x, "map.get", m, ast.IntOp(5))
	fb.ReturnVoid()
	ex := mustLink(t, b.M)
	_, err := ex.Call("M::f")
	var exc *values.Exception
	if !errors.As(err, &exc) || exc.Name != "Hilti::IndexError" {
		t.Fatalf("got %v", err)
	}
}

func BenchmarkVMFib20(b *testing.B) {
	bd := ast.NewBuilder("M")
	fb := bd.Function("fib", types.Int64T, ast.Param{Name: "n", Type: types.Int64T})
	c := fb.Local("c", types.BoolT)
	a := fb.Local("a", types.Int64T)
	bb := fb.Local("b", types.Int64T)
	fb.Assign(c, "int.lt", ast.VarOp("n"), ast.IntOp(2))
	fb.IfElse(c, "base", "rec")
	fb.Block("base")
	fb.Return(ast.VarOp("n"))
	fb.Block("rec")
	n1 := fb.Local("n1", types.Int64T)
	n2 := fb.Local("n2", types.Int64T)
	fb.Assign(n1, "int.sub", ast.VarOp("n"), ast.IntOp(1))
	fb.Assign(n2, "int.sub", ast.VarOp("n"), ast.IntOp(2))
	fb.CallResult(a, "fib", n1)
	fb.CallResult(bb, "fib", n2)
	r := fb.Local("r", types.Int64T)
	fb.Assign(r, "int.add", a, bb)
	fb.Return(r)
	prog, err := Link(bd.M)
	if err != nil {
		b.Fatal(err)
	}
	ex, _ := NewExec(prog)
	fn := prog.Fn("M::fib")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.CallFn(fn, values.Int(20)); err != nil {
			b.Fatal(err)
		}
	}
}
