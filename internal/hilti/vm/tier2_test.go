package vm

import (
	"errors"
	"strings"
	"testing"

	"hilti/internal/bpf"
	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// countModule is a classic counted loop with constant bounds: sum = 2*100
// via 100 iterations.
func countModule() *ast.Builder {
	b := ast.NewBuilder("M")
	fb := b.Function("count", types.Int64T)
	s := fb.Local("s", types.Int64T)
	i := fb.Local("i", types.Int64T)
	c := fb.Local("c", types.BoolT)
	fb.Assign(s, "assign", ast.IntOp(0))
	fb.Assign(i, "assign", ast.IntOp(0))
	fb.Jump("hdr")
	fb.Block("hdr")
	fb.Assign(c, "int.lt", i, ast.IntOp(100))
	fb.IfElse(c, "body", "done")
	fb.Block("body")
	fb.Assign(s, "int.add", s, ast.IntOp(2))
	fb.Assign(i, "int.add", i, ast.IntOp(1))
	fb.Jump("hdr")
	fb.Block("done")
	fb.Return(s)
	return b
}

func TestTier2CountedLoopVerified(t *testing.T) {
	ex := linkAt(t, 2, countModule().M)
	fn := ex.Prog.Fn("M::count")
	if !fn.TierActive() {
		t.Fatal("O2 link did not install tier-2 code")
	}
	v, err := ex.Call("M::count")
	if err != nil || v.AsInt() != 200 {
		t.Fatalf("got %v %v", v, err)
	}
	// Tier-2 charges exactly the instructions tier-1 executes.
	o1 := linkAt(t, 1, countModule().M)
	if _, err := o1.Call("M::count"); err != nil {
		t.Fatal(err)
	}
	if ex.Steps() != o1.Steps() {
		t.Fatalf("step accounting diverged: tier2=%d o1=%d", ex.Steps(), o1.Steps())
	}
}

func TestTier2DisasmGolden(t *testing.T) {
	fn := linkAt(t, 2, filterModule(t)).Prog.Fn("Filter::filter")
	got := fn.DisasmTier()
	const want = `func Filter::filter (params=1 regs=9)
0000 overlay.get+int.eq+br r1 <- r0 ; t1=2 t2=9
0001 int.eq+br          r2 <- r1, c:2048 ; t1=2 t2=9
0002 overlay.get+equal+br r3 <- r0 ; t1=8 t2=4
0003 equal+br           r4 <- r3, c:10.1.9.77 ; t1=8 t2=4
0004 overlay.get+equal+br r5 <- r0 ; t1=8 t2=6
0005 equal+br           r6 <- r5, c:10.1.9.77 ; t1=8 t2=6
0006 overlay.get+net.contains+br r7 <- r0 ; t1=8 t2=9
0007 net.contains+br    r8 <- c:10.1.3.0/24, r7 ; t1=8 t2=9
0008 return.result      _ <- c:True
0009 return.result      _ <- c:False
`
	if got != want {
		t.Fatalf("tier-2 disassembly drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The tier-1 view of the same function must be unchanged by tiering.
	if strings.Contains(fn.Disasm(), "overlay.get+") {
		t.Fatalf("tier-1 disassembly polluted by tier-2 code:\n%s", fn.Disasm())
	}
}

// TestTier2Differential runs behaviorally diverse programs at O0, O1 and
// O2 (eager tier-2) and requires identical observable behavior.
func TestTier2Differential(t *testing.T) {
	type prog struct {
		name  string
		build func() *ast.Module
		entry string
		args  []values.Value
	}
	progs := []prog{
		{"count", func() *ast.Module { return countModule().M }, "M::count", nil},
		{"spin", func() *ast.Module { return spinModule().M }, "M::spin", []values.Value{values.Int(5000)}},
		{"guarded-hit", func() *ast.Module { return tryModule().M }, "M::guarded", []values.Value{values.Int(1)}},
		{"guarded-miss", func() *ast.Module { return tryModule().M }, "M::guarded", []values.Value{values.Int(2)}},
	}
	for _, p := range progs {
		var results [3]string
		for _, level := range []int{0, 1, 2} {
			ex := linkAt(t, level, p.build())
			v, err := ex.Call(p.entry, p.args...)
			if err != nil {
				var exc *values.Exception
				if !errors.As(err, &exc) {
					t.Fatalf("%s O%d: %v", p.name, level, err)
				}
				results[level] = "exc:" + exc.Name
			} else {
				results[level] = values.Format(v)
			}
		}
		if results[0] != results[1] || results[1] != results[2] {
			t.Fatalf("%s diverged: O0=%s O1=%s O2=%s",
				p.name, results[0], results[1], results[2])
		}
	}
}

// TestTier2RuntimePromotion exercises the runtime path: invocation
// counting promotes a hot function mid-stream, transparently.
func TestTier2RuntimePromotion(t *testing.T) {
	ex := linkAt(t, 1, spinModule().M)
	ex.EnableOpcodeProfile()
	ex.EnableTiering(8)
	fn := ex.Prog.Fn("M::spin")
	for i := 0; i < 20; i++ {
		promoted := fn.TierActive()
		v, err := ex.Call("M::spin", values.Int(500))
		if err != nil || v.AsInt() != 500 {
			t.Fatalf("call %d (promoted=%v): %v %v", i, promoted, v, err)
		}
		if i >= 8 && !fn.TierActive() {
			t.Fatalf("call %d: function not promoted past threshold", i)
		}
	}
	if _, ok := fn.Tier2Stats(); !ok {
		t.Fatal("no tier-2 stats after promotion")
	}
}

// TestTier2BudgetParity arms an instruction budget over a register-bounded
// loop and requires the ResourceExhausted trip to be bit-identical between
// O1 and O2: same exception, same step count at the raise.
func TestTier2BudgetParity(t *testing.T) {
	var steps [2]uint64
	for k, level := range []int{1, 2} {
		ex := linkAt(t, level, spinModule().M)
		ex.Limits = Limits{Instructions: 10_000}
		_, err := ex.Call("M::spin", values.Int(1_000_000))
		var exc *values.Exception
		if !errors.As(err, &exc) || exc.Name != ExcResourceExhausted {
			t.Fatalf("O%d: want ResourceExhausted, got %v", level, err)
		}
		steps[k] = ex.Steps()
	}
	if steps[0] != steps[1] {
		t.Fatalf("budget trip diverged: O1=%d steps, O2=%d steps", steps[0], steps[1])
	}
}

// TestTier2ProvenLoopUnderBudget runs the constant-bounded counted loop
// with a budget that the whole invocation fits into, and with one it does
// not: tier-2 must neither trip a fitting budget nor miss an exceeded one.
func TestTier2ProvenLoopUnderBudget(t *testing.T) {
	// Fits: the loop needs ~400 steps; 1000 must not trip.
	ex := linkAt(t, 2, countModule().M)
	ex.Limits = Limits{Instructions: 1000}
	if v, err := ex.Call("M::count"); err != nil || v.AsInt() != 200 {
		t.Fatalf("fitting budget tripped: %v %v", v, err)
	}
	// Does not fit: O1 and O2 must trip identically.
	var steps [2]uint64
	for k, level := range []int{1, 2} {
		ex := linkAt(t, level, countModule().M)
		ex.Limits = Limits{Instructions: 50}
		_, err := ex.Call("M::count")
		var exc *values.Exception
		if !errors.As(err, &exc) || exc.Name != ExcResourceExhausted {
			t.Fatalf("O%d: want ResourceExhausted, got %v", level, err)
		}
		steps[k] = ex.Steps()
	}
	if steps[0] != steps[1] {
		t.Fatalf("budget trip diverged: O1=%d O2=%d", steps[0], steps[1])
	}
}

// TestTier2ExceptionInRegion makes sure a raise inside a try range still
// resolves to the correct handler under tier-2 code, which addresses the
// same pcs as tier-1.
func TestTier2ExceptionInRegion(t *testing.T) {
	for _, args := range []int64{1, 2} {
		want, _ := linkAt(t, 0, tryModule().M).Call("M::guarded", values.Int(args))
		got, err := linkAt(t, 2, tryModule().M).Call("M::guarded", values.Int(args))
		if err != nil || got.AsInt() != want.AsInt() {
			t.Fatalf("k=%d: tier2 %v %v, want %v", args, got, err, want)
		}
	}
}

// TestTier2ConcurrentPromotion races several Execs over one shared Program
// while one of them promotes the hot function; run under -race in CI.
func TestTier2ConcurrentPromotion(t *testing.T) {
	prog, err := LinkWith(Options{OptLevel: 1}, spinModule().M)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		w := w
		go func() {
			ex, err := NewExec(prog)
			if err != nil {
				done <- err
				return
			}
			if w == 0 {
				ex.EnableOpcodeProfile()
				ex.EnableTiering(4)
			}
			for i := 0; i < 200; i++ {
				v, err := ex.Call("M::spin", values.Int(100))
				if err != nil || v.AsInt() != 100 {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if !prog.Fn("M::spin").TierActive() {
		t.Fatal("shared function never promoted")
	}
}

// TestRuntimePromotionMatchesEagerO2 promotes the §6.2 filter at runtime,
// with the opcode profile on, on IPv6 frames only: the ethertype test sends
// every one of them to the false return, so none of the address compares
// ever executes before promotion. The promoted code must still be exactly
// what eager O2 builds — the lowering reads the code, not the traffic.
func TestRuntimePromotionMatchesEagerO2(t *testing.T) {
	mod := filterModule(t)
	eager := linkAt(t, 2, mod).Prog.Fn("Filter::filter")

	ex := linkAt(t, 1, mod)
	ex.EnableOpcodeProfile()
	ex.EnableTiering(8)
	fn := ex.Prog.Fn("Filter::filter")
	frame := make([]byte, 60)
	frame[12], frame[13] = 0x86, 0xdd // IPv6
	rope := hbytes.New()
	for i := 0; i < 16; i++ {
		rope.Reset(frame)
		if v, err := ex.CallFn(fn, values.BytesVal(rope)); err != nil || v.AsBool() {
			t.Fatalf("call %d: %v %v", i, v, err)
		}
	}
	if !fn.TierActive() {
		t.Fatal("filter not promoted past the threshold")
	}
	if got, want := fn.DisasmTier(), eager.DisasmTier(); got != want {
		t.Fatalf("runtime promotion differs from eager O2:\n--- promoted ---\n%s--- eager ---\n%s", got, want)
	}
	if st, _ := fn.Tier2Stats(); st.Pairs != 4 {
		t.Fatalf("promoted filter has %d overlay pairs, want 4: %+v\n%s", st.Pairs, st, fn.DisasmTier())
	}
}

// filterModule is the §6.2 filter, the program tier-2 exists for: four
// overlay reads, each followed by the compare-and-branch tier-2 fuses.
func filterModule(t testing.TB) *ast.Module {
	e, err := bpf.ParseFilter("host 10.1.9.77 or src net 10.1.3.0/24")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := bpf.CompileHILTI(e)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// ipv4Frame is a minimal Ethernet+IPv4 frame from src to dst.
func ipv4Frame(src, dst [4]byte) []byte {
	f := make([]byte, 60)
	f[12], f[13], f[14] = 0x08, 0x00, 0x45
	copy(f[26:30], src[:])
	copy(f[30:34], dst[:])
	return f
}

// callOutcome is what a budgeted call of the filter leaves behind.
type callOutcome struct {
	match bool
	exc   string
	steps uint64
}

func callFilter(t testing.TB, ex *Exec, frame []byte, limit uint64) callOutcome {
	ex.Limits = Limits{Instructions: limit}
	v, err := ex.Call("Filter::filter", values.BytesVal(hbytes.NewFrom(frame)))
	o := callOutcome{steps: ex.Steps()}
	if err != nil {
		var exc *values.Exception
		if !errors.As(err, &exc) {
			t.Fatalf("non-exception error %v", err)
		}
		o.exc = exc.Name
	} else {
		o.match = v.AsBool()
	}
	return o
}

// TestTier2FusedPairBudgetParity arms every instruction budget from 1 to
// one past a call's step count over the §6.2 filter, on a packet that
// matches and one that does not, at O1 and at eager O2. A fused overlay
// pair charges its second half itself, or bails to the orphan compare when
// that step would reach a checkpoint; either way both levels must return
// the same result or trip at the same step.
func TestTier2FusedPairBudgetParity(t *testing.T) {
	o1, o2 := linkAt(t, 1, filterModule(t)), linkAt(t, 2, filterModule(t))
	if st, _ := o2.Prog.Fn("Filter::filter").Tier2Stats(); st.Pairs != 4 {
		t.Fatalf("eager O2 fused %d overlay pairs, want 4", st.Pairs)
	}
	frames := map[string][]byte{
		"match":    ipv4Frame([4]byte{10, 1, 3, 9}, [4]byte{192, 168, 0, 1}),
		"no match": ipv4Frame([4]byte{10, 2, 3, 9}, [4]byte{192, 168, 0, 1}),
	}
	for name, frame := range frames {
		full := callFilter(t, o1, frame, 0)
		if full.match != (name == "match") {
			t.Fatalf("%s: unbudgeted O1 call returned %v", name, full.match)
		}
		for limit := uint64(1); limit <= full.steps+1; limit++ {
			a, b := callFilter(t, o1, frame, limit), callFilter(t, o2, frame, limit)
			if a != b {
				t.Fatalf("%s, limit %d: O1 %+v, O2 %+v", name, limit, a, b)
			}
			if tripped := a.exc != ""; tripped != (limit <= full.steps) || tripped && a.exc != ExcResourceExhausted {
				t.Fatalf("%s, limit %d of %d steps: %+v", name, limit, full.steps, a)
			}
		}
	}
}
