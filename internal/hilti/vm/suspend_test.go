package vm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// Tests for the explicit call stack: calls that park inside the VM
// (Resumable), what a parked call consists of, and what happens to it when
// a Go panic passes through the dispatch loop.

// atLevels runs f against a fresh Exec of the module at O0, O1 and eager
// tier-2: parking must not depend on which code array is running.
func atLevels(t *testing.T, build func() *ast.Module, f func(t *testing.T, ex *Exec)) {
	for _, level := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("O%d", level), func(t *testing.T) { f(t, linkAt(t, level, build())) })
	}
}

// noter registers the host function note(x), which records its argument.
func noter(ex *Exec) *[]int64 {
	var notes []int64
	ex.RegisterHost("note", func(_ *Exec, a []values.Value) (values.Value, error) {
		notes = append(notes, a[0].AsInt())
		return values.Nil, nil
	})
	return &notes
}

func mustPark(t *testing.T, r *Resumable) {
	t.Helper()
	if v, done, err := r.Resume(); done || err != nil {
		t.Fatalf("should park: %v done=%v err=%v", v, done, err)
	}
}

func mustFinish(t *testing.T, r *Resumable) values.Value {
	t.Helper()
	v, done, err := r.Resume()
	if !done || err != nil {
		t.Fatalf("should complete: %v done=%v err=%v", v, done, err)
	}
	return v
}

func excName(err error) string {
	var exc *values.Exception
	if errors.As(err, &exc) {
		return exc.Name
	}
	return fmt.Sprint(err)
}

// assertIdle checks that nothing of a finished, aborted or dead call is left
// on the Exec: no activation, no stale slot behind the stack pointer, depth
// back at zero, and every pooled frame empty.
func assertIdle(t *testing.T, ex *Exec) {
	t.Helper()
	if len(ex.stack) != 0 || ex.budget.vmDepth != 0 {
		t.Fatalf("exec not idle: %d activations, depth %d", len(ex.stack), ex.budget.vmDepth)
	}
	for i, a := range ex.stack[:cap(ex.stack)] {
		if a.fr != nil {
			t.Fatalf("stale activation in stack slot %d: %+v", i, a)
		}
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
	}
}

func TestSuspendInSecondHookBody(t *testing.T) {
	build := func() *ast.Module {
		b := ast.NewBuilder("M")
		cur := ast.Param{Name: "cur", Type: iterT}
		h1 := b.Hook("ev", 10, cur)
		h1.Call("note", ast.IntOp(1))
		h1.ReturnVoid()
		h2 := b.Hook("ev", 5, cur)
		v := h2.Local("v", types.Int64T)
		emitUnpack(h2, "unpack.uint16be", v) // parks: the rope is one byte short
		h2.Call("note", v)
		h2.ReturnVoid()
		fb := b.Function("f", types.VoidT, cur)
		fb.Instr("hook.run", ast.FuncOperand("ev"), ast.VarOp("cur"))
		fb.Call("note", ast.IntOp(3))
		fb.ReturnVoid()
		return b.M
	}
	atLevels(t, build, func(t *testing.T, ex *Exec) {
		notes := noter(ex)
		ex.Hooks.Get("ev").Add(func(args []values.Value) (values.Value, bool) {
			*notes = append(*notes, 100+int64(len(args)))
			return values.Nil, false
		})
		rope := hbytes.NewFrom([]byte{0x01})
		r := ex.FiberCall(ex.Prog.Fn("M::f"), values.IterBytes(rope.Begin()))
		mustPark(t, r)
		if want := []int64{1}; !reflect.DeepEqual(*notes, want) {
			t.Fatalf("parked in the second body: notes %v, want %v", *notes, want)
		}
		if len(r.stack) != 2 || r.stack[0].body != 1 {
			t.Fatalf("parked state: %d activations, hook.run at body %d", len(r.stack), r.stack[0].body)
		}
		rope.Append([]byte{0x02})
		mustFinish(t, r)
		// The first body is not run again, the host-registered body runs
		// after both HILTI bodies with the same arguments, then f goes on.
		if want := []int64{1, 0x0102, 101, 3}; !reflect.DeepEqual(*notes, want) {
			t.Fatalf("notes %v, want %v", *notes, want)
		}
		assertIdle(t, ex)
	})
}

func TestSuspendInsideTryKeepsHandler(t *testing.T) {
	build := func() *ast.Module {
		b := ast.NewBuilder("M")
		fb := b.Function("f", types.Int64T, ast.Param{Name: "cur", Type: iterT})
		v := fb.Local("v", types.Int64T)
		e := fb.Local("e", types.ExcT)
		fb.TryBegin("catch", e)
		emitUnpack(fb, "unpack.uint32be", v)
		fb.TryEnd()
		fb.Return(v)
		fb.Block("catch")
		fb.Return(ast.IntOp(-1))
		return b.M
	}
	atLevels(t, build, func(t *testing.T, ex *Exec) {
		// Input arrives: the retried unpack completes.
		rope := hbytes.NewFrom([]byte{0, 0})
		r := ex.FiberCall(ex.Prog.Fn("M::f"), values.IterBytes(rope.Begin()))
		mustPark(t, r)
		rope.Append([]byte{1, 2})
		if v := mustFinish(t, r); v.AsInt() != 0x0102 {
			t.Fatalf("got %v", v)
		}
		// Input ends instead: the retried unpack raises, and the handler
		// that covered the pc before the park still covers it.
		rope = hbytes.NewFrom([]byte{0, 0})
		r = ex.FiberCall(ex.Prog.Fn("M::f"), values.IterBytes(rope.Begin()))
		mustPark(t, r)
		rope.Freeze()
		if v := mustFinish(t, r); v.AsInt() != -1 {
			t.Fatalf("handler did not cover the retried instruction: %v", v)
		}
		assertIdle(t, ex)
	})
}

// A fused instruction that parks is retried whole, and nothing before it is
// run again: iterator.at_end fuses with its branch at O1, and no suspending
// op may become the second half of a tier-2 pair (a retry would re-run the
// first half — here the increment).
func TestSuspendInFusedInstruction(t *testing.T) {
	build := func() *ast.Module {
		b := ast.NewBuilder("M")
		fb := b.Function("f", types.Int64T, ast.Param{Name: "cur", Type: iterT})
		n := fb.Local("n", types.Int64T)
		c := fb.Local("c", types.BoolT)
		fb.Assign(n, "assign", ast.IntOp(0))
		fb.Jump("loop")
		fb.Block("loop")
		fb.Assign(n, "int.add", n, ast.IntOp(1))
		fb.Assign(c, "iterator.at_end", ast.VarOp("cur"))
		fb.IfElse(c, "done", "body")
		fb.Block("body")
		fb.Assign(ast.VarOp("cur"), "iterator.incr_by", ast.VarOp("cur"), ast.IntOp(1))
		fb.Jump("loop")
		fb.Block("done")
		fb.Return(n)
		return b.M
	}
	atLevels(t, build, func(t *testing.T, ex *Exec) {
		rope := hbytes.New()
		r := ex.FiberCall(ex.Prog.Fn("M::f"), values.IterBytes(rope.Begin()))
		const k = 5
		for i := 0; i < k; i++ {
			mustPark(t, r)
			rope.Append([]byte{byte(i)})
		}
		mustPark(t, r)
		rope.Freeze()
		if v := mustFinish(t, r); v.AsInt() != k+1 {
			t.Fatalf("%d iterations counted over %d bytes, want %d", v.AsInt(), k, k+1)
		}
	})
}

// tierModule is f(cur, x) = 3x + uint16(cur): k = 3x is computed before the
// unpack that parks and lives in an unboxed slot under tier-2, in a boxed
// register otherwise — so resuming on the other tier's code reads garbage.
func tierModule() *ast.Module {
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T, ast.Param{Name: "cur", Type: iterT}, ast.Param{Name: "x", Type: types.Int64T})
	k := fb.Local("k", types.Int64T)
	v := fb.Local("v", types.Int64T)
	fb.Assign(k, "int.mul", ast.VarOp("x"), ast.IntOp(3))
	emitUnpack(fb, "unpack.uint16be", v)
	fb.Assign(k, "int.add", k, v)
	fb.Return(k)
	return b.M
}

func TestSuspendAcrossTierChange(t *testing.T) {
	park := func(t *testing.T, ex *Exec) (*Resumable, *hbytes.Bytes) {
		rope := hbytes.NewFrom([]byte{0x01})
		r := ex.FiberCall(ex.Prog.Fn("M::f"), values.IterBytes(rope.Begin()), values.Int(7))
		mustPark(t, r)
		return r, rope
	}
	t.Run("promoted while parked", func(t *testing.T) {
		ex := linkAt(t, 1, tierModule())
		fn := ex.Prog.Fn("M::f")
		r, rope := park(t, ex)
		promoteTier2(fn)
		if st, ok := fn.Tier2Stats(); !ok || st.SlotRegs == 0 {
			t.Fatalf("test needs k in a slot under tier-2: %+v\n%s", st, fn.DisasmTier())
		}
		rope.Append([]byte{0x02})
		if v := mustFinish(t, r); v.AsInt() != 21+0x0102 {
			t.Fatalf("resumed on the wrong code array: %v", v)
		}
		// A new activation does pick the tier-2 code up.
		if v, err := ex.Call("M::f", frozen(0, 9), values.Int(1)); err != nil || v.AsInt() != 12 {
			t.Fatalf("tier-2 call: %v %v", v, err)
		}
	})
}

// Three parked calls and plain host calls interleave on one Exec with
// limits armed; each accounts exactly the instructions it executes alone.
func TestResumablesInterleavedKeepTheirBudgets(t *testing.T) {
	build := func() *ast.Module {
		b := spinModule()
		fb := b.Function("g", types.Int64T, ast.Param{Name: "cur", Type: iterT}, ast.Param{Name: "n", Type: types.Int64T})
		v := fb.Local("v", types.Int64T)
		s := fb.Local("s", types.Int64T)
		fb.CallResult(s, "spin", ast.VarOp("n"))
		emitUnpack(fb, "unpack.uint16be", v)
		fb.CallResult(s, "spin", ast.VarOp("n"))
		fb.Assign(s, "int.add", s, v)
		fb.Return(s)
		return b.M
	}
	type call struct {
		n    int64
		rope *hbytes.Bytes
		r    *Resumable
	}
	start := func(ex *Exec, n int64) *call {
		c := &call{n: n, rope: hbytes.New()}
		c.r = ex.FiberCall(ex.Prog.Fn("M::g"), values.IterBytes(c.rope.Begin()), values.Int(n))
		return c
	}
	atLevels(t, build, func(t *testing.T, ex *Exec) {
		ex.Limits = Limits{Instructions: 50_000}
		sizes := []int64{10, 200, 3000}
		// Reference: each call alone, parked once per missing byte.
		var alone []uint64
		for _, n := range sizes {
			c := start(ex, n)
			mustPark(t, c.r)
			c.rope.Append([]byte{1})
			mustPark(t, c.r)
			c.rope.Append([]byte{2})
			if v := mustFinish(t, c.r); v.AsInt() != n+0x0102 {
				t.Fatalf("alone n=%d: %v", n, v)
			}
			alone = append(alone, c.r.budget.steps)
		}
		if _, err := ex.Call("M::spin", values.Int(7)); err != nil {
			t.Fatal(err)
		}
		hostSteps := ex.Steps()

		host := func() {
			t.Helper()
			if _, err := ex.Call("M::spin", values.Int(7)); err != nil || ex.Steps() != hostSteps {
				t.Fatalf("host call between resumes: %v, %d steps, want %d", err, ex.Steps(), hostSteps)
			}
		}
		var calls []*call
		for _, n := range sizes {
			calls = append(calls, start(ex, n))
		}
		// A fourth one blows its own budget and nobody else's.
		hog := start(ex, 1_000_000)
		if _, done, err := hog.r.Resume(); !done || excName(err) != ExcResourceExhausted {
			t.Fatalf("hog: done=%v err=%v", done, err)
		}
		for _, feed := range [][]byte{{1}, {2}} {
			for _, c := range calls {
				mustPark(t, c.r)
				host()
			}
			for _, c := range calls {
				c.rope.Append(feed)
			}
		}
		for i := len(calls) - 1; i >= 0; i-- {
			c := calls[i]
			if v := mustFinish(t, c.r); v.AsInt() != c.n+0x0102 {
				t.Fatalf("interleaved n=%d: %v", c.n, v)
			}
			if c.r.budget.steps != alone[i] {
				t.Fatalf("n=%d accounted %d instructions interleaved, %d alone", c.n, c.r.budget.steps, alone[i])
			}
			host()
		}
		assertIdle(t, ex)
	})
}

// Would-block under a native re-entry cannot park — Go frames stand between
// the instruction and the Resumable — and raises instead.
func TestSuspendUnderHostReentryRaises(t *testing.T) {
	b := ast.NewBuilder("M")
	cur := ast.Param{Name: "cur", Type: iterT}
	rd := b.Function("read2", types.Int64T, cur)
	v := rd.Local("v", types.Int64T)
	emitUnpack(rd, "unpack.uint16be", v)
	rd.Return(v)
	h := b.Hook("ev", 0, cur)
	hv := h.Local("v", types.Int64T)
	emitUnpack(h, "unpack.uint16be", hv)
	h.ReturnVoid()
	for _, via := range []string{"call", "hook"} {
		fb := b.Function("outer_"+via, types.Int64T, cur)
		r := fb.Local("r", types.Int64T)
		fb.CallResult(r, "reenter_"+via, ast.VarOp("cur"))
		fb.Return(r)
	}
	ex := mustLink(t, b.M)
	ex.RegisterHost("reenter_call", func(ex *Exec, a []values.Value) (values.Value, error) {
		return ex.CallFn(ex.Prog.Fn("M::read2"), a[0])
	})
	ex.RegisterHost("reenter_hook", func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(0), ex.RunHook("ev", a[0])
	})
	for _, via := range []string{"call", "hook"} {
		rope := hbytes.NewFrom([]byte{0x01})
		r := ex.FiberCall(ex.Prog.Fn("M::outer_"+via), values.IterBytes(rope.Begin()))
		_, done, err := r.Resume()
		if !done || excName(err) != "Hilti::WouldBlock" {
			t.Fatalf("via %s: done=%v err=%v, want Hilti::WouldBlock", via, done, err)
		}
		if ex.parked != 0 {
			t.Fatalf("via %s: %d calls still count as parked", via, ex.parked)
		}
		assertIdle(t, ex)
	}
}

func TestResumableAbortFreesEveryFrame(t *testing.T) {
	b := ast.NewBuilder("M")
	cur := ast.Param{Name: "cur", Type: iterT}
	for i, name := range []string{"a", "b", "c"} {
		fb := b.Function(name, types.Int64T, cur)
		v := fb.Local("v", types.Int64T)
		keep := fb.Local("keep", iterT) // a second reference to the rope per frame
		fb.Assign(keep, "assign", ast.VarOp("cur"))
		if i < 2 {
			fb.CallResult(v, []string{"b", "c"}[i], ast.VarOp("cur"))
		} else {
			emitUnpack(fb, "unpack.uint16be", v)
		}
		fb.Return(v)
	}
	ex := mustLink(t, b.M)
	rope := hbytes.NewFrom([]byte{0x01})
	r := ex.FiberCall(ex.Prog.Fn("M::a"), values.IterBytes(rope.Begin()))
	mustPark(t, r)
	if len(r.stack) != 3 {
		t.Fatalf("parked %d deep, want 3", len(r.stack))
	}
	pooled := len(ex.freeFrames)
	r.Abort()
	if !r.Done() || r.stack != nil || ex.parked != 0 {
		t.Fatalf("after abort: done=%v stack=%v parked=%d", r.Done(), r.stack, ex.parked)
	}
	if _, done, err := r.Resume(); !done || !errors.Is(err, ErrAborted) {
		t.Fatalf("resume after abort: done=%v err=%v", done, err)
	}
	if got := len(ex.freeFrames) - pooled; got != 3 {
		t.Fatalf("abort returned %d frames, want 3", got)
	}
	assertIdle(t, ex) // which includes: no pooled frame still references the rope
}

// TestCallDepthAfterPanic is the regression test for a Go panic passing
// through CallFn: the depth used to stay at 1 for the life of the Exec, so
// no later call re-armed the budget (steps accumulated until a clean call
// tripped ResourceExhausted) or was harvested.
func TestCallDepthAfterPanic(t *testing.T) {
	b := spinModule()
	fb := b.Function("nested", types.VoidT)
	fb.Call("inner")
	fb.ReturnVoid()
	fi := b.Function("inner", types.VoidT)
	fi.Call("boom")
	fi.ReturnVoid()
	ex := mustLink(t, b.M)
	ex.RegisterHost("boom", func(*Exec, []values.Value) (values.Value, error) { panic("host bug") })
	m := ex.AttachMetrics()
	ex.Limits = Limits{Instructions: 5000}

	if _, err := ex.Call("M::spin", values.Int(300)); err != nil {
		t.Fatal(err)
	}
	clean := ex.Steps()
	if 9*clean <= 5000 {
		t.Fatalf("test needs nine calls to exceed the limit: %d steps each", clean)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not reach the host")
			}
		}()
		ex.Call("M::nested") //nolint:errcheck
	}()
	assertIdle(t, ex)
	m.Sync()
	before := m.Invocations.Load()
	for i := 1; i <= 9; i++ {
		if _, err := ex.Call("M::spin", values.Int(300)); err != nil || ex.Steps() != clean {
			t.Fatalf("clean call %d after the panic: %v, Steps()=%d, want %d", i, err, ex.Steps(), clean)
		}
	}
	m.Sync()
	if got := m.Invocations.Load() - before; got != 9 {
		t.Fatalf("harvest stopped after the panic: %d of 9 invocations counted", got)
	}
}

// A panic through Resume kills that call and nothing else: the Exec is
// idle again, the host's budget is back, a neighbour parked on the same
// Exec goes on, and no frame of the dead call ever runs again.
func TestResumablePanicKillsOnlyThatCall(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T, ast.Param{Name: "cur", Type: iterT}, ast.Param{Name: "bad", Type: types.Int64T})
	v := fb.Local("v", types.Int64T)
	emitUnpack(fb, "unpack.uint8", v)
	fb.CallResult(v, "inner", ast.VarOp("cur"), ast.VarOp("bad"))
	fb.Call("note", v)
	fb.Return(v)
	fi := b.Function("inner", types.Int64T, ast.Param{Name: "cur", Type: iterT}, ast.Param{Name: "bad", Type: types.Int64T})
	w := fi.Local("w", types.Int64T)
	fi.Call("maybe_boom", ast.VarOp("bad"))
	emitUnpack(fi, "unpack.uint8", w)
	fi.Return(w)
	ex := mustLink(t, b.M)
	notes := noter(ex)
	ex.RegisterHost("maybe_boom", func(_ *Exec, a []values.Value) (values.Value, error) {
		if a[0].AsInt() != 0 {
			panic("host bug")
		}
		return values.Nil, nil
	})
	ex.Limits = Limits{Instructions: 10_000}

	start := func(bad int64) (*Resumable, *hbytes.Bytes) {
		rope := hbytes.New()
		r := ex.FiberCall(ex.Prog.Fn("M::f"), values.IterBytes(rope.Begin()), values.Int(bad))
		mustPark(t, r)
		return r, rope
	}
	good, goodRope := start(0)
	dead, deadRope := start(1)
	goodRope.Append([]byte{1})
	mustPark(t, good) // two deep, inside inner
	deadRope.Append([]byte{1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not reach the host")
			}
		}()
		dead.Resume() //nolint:errcheck
	}()
	assertIdle(t, ex)
	if !dead.Done() || dead.stack != nil || ex.parked != 1 {
		t.Fatalf("dead call: done=%v stack=%v, %d calls parked", dead.Done(), dead.stack, ex.parked)
	}
	deadRope.Append([]byte{2})
	if _, done, err := dead.Resume(); !done || err == nil {
		t.Fatalf("resuming the dead call: done=%v err=%v", done, err)
	}
	goodRope.Append([]byte{7})
	if v := mustFinish(t, good); v.AsInt() != 7 {
		t.Fatalf("neighbour: %v", v)
	}
	if want := []int64{7}; !reflect.DeepEqual(*notes, want) {
		t.Fatalf("notes %v, want %v: a frame of the dead call ran", *notes, want)
	}
	if _, err := ex.Call("M::inner", frozen(5), values.Int(0)); err != nil {
		t.Fatalf("exec unusable after the panic: %v", err)
	}
}

// Runaway recursion ends in a catchable exception, not a dead process.
func TestCallDepthExhaustedIsCatchable(t *testing.T) {
	b := ast.NewBuilder("M")
	fb := b.Function("down", types.Int64T, ast.Param{Name: "x", Type: types.Int64T})
	r := fb.Local("r", types.Int64T)
	fb.CallResult(r, "down", ast.VarOp("x"))
	fb.Return(r)
	g := b.Function("guard", types.Int64T)
	gr := g.Local("r", types.Int64T)
	e := g.Local("e", types.ExcT)
	g.TryBeginNamed("catch", e, ExcStackExhausted)
	g.CallResult(gr, "down", ast.IntOp(1))
	g.TryEnd()
	g.Return(gr)
	g.Block("catch")
	g.Return(ast.IntOp(42))
	atLevels(t, func() *ast.Module { return b.M }, func(t *testing.T, ex *Exec) {
		m := ex.AttachMetrics()
		if _, err := ex.Call("M::down", values.Int(1)); excName(err) != ExcStackExhausted {
			t.Fatalf("got %v, want %s", err, ExcStackExhausted)
		}
		assertIdle(t, ex)
		if v, err := ex.Call("M::guard"); err != nil || v.AsInt() != 42 {
			t.Fatalf("catch and continue: %v %v", v, err)
		}
		assertIdle(t, ex)
		m.Sync()
		if got := m.FrameDepthMax.Load(); got != maxCallDepth+1 {
			t.Fatalf("hilti_vm_frame_depth_max = %d, want %d", got, maxCallDepth+1)
		}
	})
}

func TestSuspendGaugeCountsLiveResumables(t *testing.T) {
	ex := mustLink(t, twoFieldsModule())
	m := ex.AttachMetrics()
	fn := ex.Prog.Fn("M::f")
	var rs []*Resumable
	for i := 0; i < 3; i++ {
		rs = append(rs, ex.FiberCall(fn, values.IterBytes(hbytes.New().Begin())))
		mustPark(t, rs[i])
	}
	rs[0].Abort()
	// The gauges move at the harvest point: the next completed invocation.
	if _, err := ex.Call("M::f", frozen(0, 0, 0, 1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	m.Sync()
	if got := m.Suspended.Load(); got != 2 {
		t.Fatalf("hilti_vm_suspended_calls = %d, want 2", got)
	}
	if got := m.FiberSuspends.Load(); got != 3 {
		t.Fatalf("suspends = %d, want 3", got)
	}
}

// BenchmarkResumableSwitch is the §5 context-switch measurement on the VM's
// own stack: a call waiting for input is resumed, retries and parks again.
func BenchmarkResumableSwitch(b *testing.B) {
	bd := ast.NewBuilder("M")
	fb := bd.Function("wait", types.BoolT, ast.Param{Name: "cur", Type: iterT})
	c := fb.Local("c", types.BoolT)
	fb.Assign(c, "iterator.at_end", ast.VarOp("cur"))
	fb.Return(c)
	prog, err := Link(bd.M)
	if err != nil {
		b.Fatal(err)
	}
	ex, _ := NewExec(prog)
	r := ex.FiberCall(prog.Fn("M::wait"), values.IterBytes(hbytes.New().Begin()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, done, _ := r.Resume(); done {
			b.Fatal("should park")
		}
	}
}
