package vm

import (
	"errors"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/values"
)

// FuzzLoopBoundProver holds O1/O2 step parity on counted-loop shapes whose
// back edges leave the verified region. Generated loops — upward and
// downward, inclusive and strict, diverging steps, second writes to the
// counter — run at O1 and at O2 under the same instruction budget, with
// tierDebug armed so a verified region that exceeds its bound panics
// instead of silently bailing. The obligation "never under-charge, never
// miss a limit" reduces to: both levels return the same value or the same
// exception, having charged exactly the same number of steps.
func FuzzLoopBoundProver(f *testing.F) {
	f.Add(int64(0), int64(100), int64(1), uint8(0), uint8(2), false)              // classic upward loop
	f.Add(int64(100), int64(0), int64(-3), uint8(2), uint8(0), false)             // downward, int.gt
	f.Add(int64(-50), int64(50), int64(7), uint8(1), uint8(4), false)             // inclusive, stride 7
	f.Add(int64(5), int64(5), int64(1), uint8(3), uint8(1), false)                // boundary: one iteration
	f.Add(int64(0), int64(10), int64(-1), uint8(0), uint8(1), false)              // diverging step: unprovable
	f.Add(int64(0), int64(1000), int64(1), uint8(0), uint8(3), true)              // double counter write: unprovable
	f.Add(int64(1<<19), int64(-(1 << 19)), int64(-64), uint8(3), uint8(0), false) // widest window
	f.Fuzz(func(t *testing.T, init, limit, step int64, cmpSel, bodySel uint8, doubleWrite bool) {
		// Clamp into the prover's overflow window (and beyond it at the
		// edges, so rejection paths run too).
		init %= 1 << 20
		limit %= 1 << 20
		step %= 64
		if step == 0 {
			step = 1
		}
		cmpOp := []string{"int.lt", "int.leq", "int.gt", "int.geq"}[cmpSel%4]
		bodyN := int(bodySel % 5)

		build := func() *ast.Module {
			b := ast.NewBuilder("M")
			fb := b.Function("loop", types.Int64T)
			s := fb.Local("s", types.Int64T)
			i := fb.Local("i", types.Int64T)
			c := fb.Local("c", types.BoolT)
			fb.Assign(s, "assign", ast.IntOp(0))
			fb.Assign(i, "assign", ast.IntOp(init))
			fb.Jump("hdr")
			fb.Block("hdr")
			fb.Assign(c, cmpOp, i, ast.IntOp(limit))
			fb.IfElse(c, "body", "done")
			fb.Block("body")
			for j := 0; j < bodyN; j++ {
				fb.Assign(s, "int.add", s, ast.IntOp(1))
			}
			if doubleWrite {
				fb.Assign(i, "int.add", i, ast.IntOp(0))
			}
			fb.Assign(i, "int.add", i, ast.IntOp(step))
			fb.Jump("hdr")
			fb.Block("done")
			fb.Return(s)
			return b.M
		}

		wasDebug := tierDebug
		tierDebug = true
		defer func() { tierDebug = wasDebug }()

		// The budget bounds even diverging loops; verified regions whose
		// bound fits run budget-check-free and must still land on the same
		// count.
		type outcome struct {
			val   int64
			exc   string
			steps uint64
		}
		run := func(level int) outcome {
			ex := linkAt(t, level, build())
			ex.Limits = Limits{Instructions: 10_000}
			v, err := ex.Call("M::loop")
			o := outcome{steps: ex.Steps()}
			if err != nil {
				var exc *values.Exception
				if !errors.As(err, &exc) {
					t.Fatalf("O%d: non-exception error %v", level, err)
				}
				o.exc = exc.Name
			} else {
				o.val = v.AsInt()
			}
			return o
		}
		o1, o2 := run(1), run(2)
		if o1 != o2 {
			t.Fatalf("init=%d limit=%d step=%d cmp=%s body=%d dw=%v:\nO1=%+v\nO2=%+v",
				init, limit, step, cmpOp, bodyN, doubleWrite, o1, o2)
		}
	})
}
