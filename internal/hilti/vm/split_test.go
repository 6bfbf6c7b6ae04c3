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

// Tests for the allocation-free generic path: operand scratch on the Frame
// (Exec.operands) and tuple scalar replacement (splitTuples).

var (
	iterT = types.IterT(types.BytesT)
	pairT = types.TupleT(types.Int64T, iterT)
)

// emitUnpack appends the shape BinPAC++ generates for one integer field:
// t = op cur; val = t[0]; cur = t[1].
func emitUnpack(fb *ast.FuncBuilder, op string, val ast.Operand) ast.Operand {
	t := fb.Temp(pairT)
	fb.Assign(t, op, ast.VarOp("cur"))
	fb.Assign(val, "tuple.index", t, ast.IntOp(0))
	fb.Assign(ast.VarOp("cur"), "tuple.index", t, ast.IntOp(1))
	return t
}

// twoFieldsModule parses a uint32 then a uint16 from cur and returns
// 65536*first + second.
func twoFieldsModule() *ast.Module {
	b := ast.NewBuilder("M")
	fb := b.Function("f", types.Int64T, ast.Param{Name: "cur", Type: iterT})
	a := fb.Local("a", types.Int64T)
	c := fb.Local("c", types.Int64T)
	r := fb.Local("r", types.Int64T)
	emitUnpack(fb, "unpack.uint32be", a)
	emitUnpack(fb, "unpack.uint16be", c)
	fb.Assign(r, "int.mul", a, ast.IntOp(65536))
	fb.Assign(r, "int.add", r, c)
	fb.Return(r)
	return b.M
}

func TestSplitTuplesGolden(t *testing.T) {
	prog, err := LinkWith(Options{OptLevel: 0}, twoFieldsModule())
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Fn("M::f")
	const boxed = `func M::f (params=1 regs=6)
0000 unpack.uint32be    r4 <- r0
0001 tuple.index        r1 <- r4, c:0
0002 tuple.index        r0 <- r4, c:1
0003 unpack.uint16be    r5 <- r0
0004 tuple.index        r2 <- r5, c:0
0005 tuple.index        r0 <- r5, c:1
0006 int.mul            r3 <- r1, c:65536
0007 int.add            r3 <- r3, r2
0008 return.result      _ <- r3
0009 return.void        _
`
	if got := fn.Disasm(); got != boxed {
		t.Fatalf("O0 (reference) form changed:\n--- got ---\n%s--- want ---\n%s", got, boxed)
	}

	// The pass alone: producers gain a second destination, reads become
	// moves; nothing else changes.
	var st OptStats
	splitTuples(fn, leaders(fn), &st)
	const split = `func M::f (params=1 regs=8)
0000 unpack.uint32be    r4, r6 <- r0
0001 assign             r1 <- r4
0002 assign             r0 <- r6
0003 unpack.uint16be    r5, r7 <- r0
0004 assign             r2 <- r5
0005 assign             r0 <- r7
0006 int.mul            r3 <- r1, c:65536
0007 int.add            r3 <- r3, r2
0008 return.result      _ <- r3
0009 return.void        _
`
	if got := fn.Disasm(); got != split || st.Split != 2 {
		t.Fatalf("after splitTuples (Split=%d):\n--- got ---\n%s--- want ---\n%s", st.Split, got, split)
	}
	splitTuples(fn, leaders(fn), &st)
	if got := fn.Disasm(); got != split || st.Split != 2 {
		t.Fatalf("splitTuples is not idempotent:\n%s", got)
	}

	// The whole pipeline: copyProp forwards the moves into their readers.
	fn, st = optStatsFor(t, twoFieldsModule(), "M::f")
	const optimized = `func M::f (params=1 regs=8)
0000 unpack.uint32be    r4, r6 <- r0
0001 assign             r1 <- r4
0002 assign             r0 <- r6
0003 unpack.uint16be    r5, r7 <- r6
0004 assign             r2 <- r5
0005 assign             r0 <- r7
0006 int.mul            r3 <- r4, c:65536
0007 int.add            r3 <- r3, r5
0008 return.result      _ <- r3
`
	if got := fn.Disasm(); got != optimized || st.Split != 2 {
		t.Fatalf("after Optimize (Split=%d):\n--- got ---\n%s--- want ---\n%s", st.Split, got, optimized)
	}
}

// splitCase is one program run at O0 (boxed reference), O1 and O2 (split
// form, the latter under tier-2 re-lowering); run renders everything
// observable about the execution into a string that must match across levels.
type splitCase struct {
	name  string
	build func() *ast.Module
	split int // producers splitTuples must rewrite in M::f
	run   func(t *testing.T, ex *Exec) string
}

func frozen(data ...byte) values.Value {
	return values.IterBytes(values.BytesFrom(data).AsBytes().Begin())
}

func callF(args ...values.Value) func(*testing.T, *Exec) string {
	return func(_ *testing.T, ex *Exec) string {
		v, err := ex.Call("M::f", args...)
		return fmt.Sprintf("%s / %v", values.Format(v), err)
	}
}

func TestSplitTuplesDifferential(t *testing.T) {
	sdef := values.NewStructDef("S", values.StructField{Name: "f"})
	cases := []splitCase{
		{name: "would-block mid-unpack, two parses interleaved on one Exec",
			build: twoFieldsModule, split: 2,
			run: func(t *testing.T, ex *Exec) string {
				// Each rope starts one byte short of the first field, then
				// grows in steps that strand the parse inside each unpack.
				type parse struct {
					rope *hbytes.Bytes
					run  *Resumable
					rest []byte
				}
				var ps []*parse
				for _, msg := range [][]byte{{0, 0, 1, 2, 3, 4}, {9, 8, 7, 6, 5, 4}} {
					p := &parse{rope: hbytes.NewFrom(msg[:3]), rest: msg[3:]}
					p.run = ex.FiberCall(ex.Prog.Fn("M::f"), values.IterBytes(p.rope.Begin()))
					ps = append(ps, p)
				}
				var out []string
				for step := 0; step < 4; step++ {
					for i, p := range ps {
						v, done, err := p.run.Resume()
						out = append(out, fmt.Sprintf("%d.%d: %s %v %v", step, i, values.Format(v), done, err))
						if len(p.rest) > 0 {
							p.rope.Append(p.rest[:1])
							p.rest = p.rest[1:]
						}
					}
				}
				return strings.Join(out, "\n")
			}},
		{name: "raise inside a handler range leaves both destinations alone",
			build: func() *ast.Module {
				b := ast.NewBuilder("M")
				fb := b.Function("f", types.Int64T, ast.Param{Name: "cur", Type: iterT})
				v := fb.Local("v", types.Int64T)
				e := fb.Local("e", types.ExcT)
				d := fb.Local("d", types.Int64T)
				emitUnpack(fb, "unpack.uint8", v) // v = first byte, cur advances
				fb.TryBegin("catch", e)
				emitUnpack(fb, "unpack.uint32be", v) // runs off the frozen end
				fb.TryEnd()
				fb.Return(ast.IntOp(-1))
				fb.Block("catch")
				// v and cur must still be what the first unpack left.
				fb.Assign(d, "iterator.deref", ast.VarOp("cur"))
				fb.Assign(v, "int.mul", v, ast.IntOp(1000))
				fb.Assign(v, "int.add", v, d)
				fb.Return(v)
				return b.M
			}, split: 2, run: callF(frozen(7, 42, 1))},
		{name: "tuple passed to a call stays a tuple",
			build: func() *ast.Module {
				b := ast.NewBuilder("M")
				g := b.Function("g", types.Int64T, ast.Param{Name: "p", Type: pairT})
				x := g.Local("x", types.Int64T)
				g.Assign(x, "tuple.index", ast.VarOp("p"), ast.IntOp(0))
				g.Return(x)
				fb := b.Function("f", types.Int64T, ast.Param{Name: "cur", Type: iterT})
				v := fb.Local("v", types.Int64T)
				w := fb.Local("w", types.Int64T)
				tup := emitUnpack(fb, "unpack.uint16be", v)
				fb.CallResult(w, "g", tup)
				fb.Assign(v, "int.add", v, w)
				fb.Return(v)
				return b.M
			}, split: 0, run: callF(frozen(1, 2))},
		{name: "tuple stored in a struct field stays a tuple",
			build: func() *ast.Module {
				b := ast.NewBuilder("M")
				fb := b.Function("f", types.AnyT, ast.Param{Name: "cur", Type: iterT},
					ast.Param{Name: "s", Type: types.AnyT})
				v := fb.Local("v", types.Int64T)
				out := fb.Local("out", types.AnyT)
				tup := emitUnpack(fb, "unpack.uint16be", v)
				fb.Instr("struct.set", ast.VarOp("s"), ast.FieldOperand("f"), tup)
				fb.Assign(out, "struct.get", ast.VarOp("s"), ast.FieldOperand("f"))
				fb.Return(out)
				return b.M
			}, split: 0,
			run: func(t *testing.T, ex *Exec) string {
				return callF(frozen(1, 2), values.StructVal(values.NewStruct(sdef)))(t, ex)
			}},
		{name: "returned tuple stays a tuple",
			build: func() *ast.Module {
				b := ast.NewBuilder("M")
				fb := b.Function("f", pairT, ast.Param{Name: "cur", Type: iterT})
				v := fb.Local("v", types.Int64T)
				fb.Return(emitUnpack(fb, "unpack.uint16be", v))
				return b.M
			}, split: 0, run: callF(frozen(1, 2))},
		{name: "read reachable around the definition is not rewritten",
			build: func() *ast.Module {
				b := ast.NewBuilder("M")
				fb := b.Function("f", types.Int64T, ast.Param{Name: "cur", Type: iterT},
					ast.Param{Name: "skip", Type: types.BoolT})
				tup := fb.Local("tup", pairT)
				v := fb.Local("v", types.Int64T)
				e := fb.Local("e", types.ExcT)
				fb.IfElse(ast.VarOp("skip"), "join", "parse")
				fb.Block("parse")
				fb.Assign(tup, "unpack.uint16be", ast.VarOp("cur"))
				fb.Jump("join")
				fb.Block("join")
				fb.TryBegin("catch", e)
				fb.Assign(v, "tuple.index", tup, ast.IntOp(0)) // nil tuple when skipped: raises
				fb.TryEnd()
				fb.Return(v)
				fb.Block("catch")
				fb.Return(ast.IntOp(-2))
				return b.M
			}, split: 0,
			run: func(t *testing.T, ex *Exec) string {
				return callF(frozen(1, 2), values.Bool(false))(t, ex) + "\n" +
					callF(frozen(1, 2), values.Bool(true))(t, ex)
			}},
		{name: "second read in a later block, dominated through a branch",
			build: func() *ast.Module {
				// The regexp.match_token shape: test component 0, branch,
				// read component 1 on one arm only.
				b := ast.NewBuilder("M")
				fb := b.Function("f", types.Int64T, ast.Param{Name: "cur", Type: iterT})
				tup := fb.Local("tup", pairT)
				v := fb.Local("v", types.Int64T)
				ok := fb.Local("ok", types.BoolT)
				end := fb.Local("end", iterT)
				d := fb.Local("d", types.Int64T)
				fb.Assign(tup, "unpack.uint8", ast.VarOp("cur"))
				fb.Assign(v, "tuple.index", tup, ast.IntOp(0))
				fb.Assign(ok, "int.gt", v, ast.IntOp(0))
				fb.IfElse(ok, "yes", "no")
				fb.Block("no")
				fb.Return(ast.IntOp(-1))
				fb.Block("yes")
				fb.Assign(end, "tuple.index", tup, ast.IntOp(1))
				fb.Assign(d, "iterator.deref", end)
				fb.Return(d)
				return b.M
			}, split: 1,
			run: func(t *testing.T, ex *Exec) string {
				return callF(frozen(5, 77))(t, ex) + "\n" + callF(frozen(0, 77))(t, ex)
			}},
		{name: "one tuple register reused by every unpack of a loop",
			build: func() *ast.Module {
				// The hand-written DNS name parser's shape: sum length-prefixed
				// bytes until a zero length, one shared temporary.
				b := ast.NewBuilder("M")
				fb := b.Function("f", types.Int64T, ast.Param{Name: "cur", Type: iterT})
				tup := fb.Local("tup", pairT)
				n := fb.Local("n", types.Int64T)
				v := fb.Local("v", types.Int64T)
				sum := fb.Local("sum", types.Int64T)
				more := fb.Local("more", types.BoolT)
				fb.Jump("head")
				fb.Block("head")
				fb.Assign(tup, "unpack.uint8", ast.VarOp("cur"))
				fb.Assign(n, "tuple.index", tup, ast.IntOp(0))
				fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
				fb.Assign(more, "int.gt", n, ast.IntOp(0))
				fb.IfElse(more, "body", "done")
				fb.Block("body")
				fb.Assign(tup, "unpack.uint8", ast.VarOp("cur"))
				fb.Assign(v, "tuple.index", tup, ast.IntOp(0))
				fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
				fb.Assign(sum, "int.add", sum, v)
				fb.Assign(n, "int.sub", n, ast.IntOp(1))
				fb.Assign(more, "int.gt", n, ast.IntOp(0))
				fb.IfElse(more, "body", "head")
				fb.Block("done")
				fb.Return(sum)
				return b.M
			}, split: 2,
			run: func(t *testing.T, ex *Exec) string {
				return callF(frozen(2, 10, 20, 1, 5, 0))(t, ex) + "\n" +
					callF(frozen(3, 1, 2))(t, ex) // runs off the end inside the loop
			}},
		{name: "a register also defined by something else is not rewritten",
			build: func() *ast.Module {
				b := ast.NewBuilder("M")
				fb := b.Function("f", types.Int64T, ast.Param{Name: "cur", Type: iterT},
					ast.Param{Name: "dflt", Type: pairT}, ast.Param{Name: "use", Type: types.BoolT})
				tup := fb.Local("tup", pairT)
				v := fb.Local("v", types.Int64T)
				fb.Assign(tup, "unpack.uint8", ast.VarOp("cur"))
				fb.IfElse(ast.VarOp("use"), "swap", "read")
				fb.Block("swap")
				fb.Set(tup, ast.VarOp("dflt"))
				fb.Jump("read")
				fb.Block("read")
				fb.Assign(v, "tuple.index", tup, ast.IntOp(0))
				fb.Return(v)
				return b.M
			}, split: 0,
			run: func(t *testing.T, ex *Exec) string {
				dflt := values.TupleVal(values.Int(99), values.Nil)
				return callF(frozen(7), dflt, values.Bool(false))(t, ex) + "\n" +
					callF(frozen(7), dflt, values.Bool(true))(t, ex)
			}},
		{name: "host function re-enters the VM between operand gather and result store",
			build: func() *ast.Module {
				b := ast.NewBuilder("M")
				// inner uses the generic path and a host call of its own.
				g := b.Function("inner", types.Int64T, ast.Param{Name: "n", Type: types.Int64T},
					ast.Param{Name: "cur", Type: iterT})
				x := g.Local("x", types.Int64T)
				y := g.Local("y", types.Int64T)
				emitUnpack(g, "unpack.uint8", x)
				g.CallResult(y, "leaf", ast.VarOp("n"), x)
				g.Return(y)
				fb := b.Function("f", types.Int64T, ast.Param{Name: "a", Type: types.Int64T},
					ast.Param{Name: "b", Type: types.Int64T})
				r := fb.Local("r", types.Int64T)
				fb.CallResult(r, "reenter", ast.VarOp("a"), ast.VarOp("b"))
				fb.Return(r)
				return b.M
			}, split: 0,
			run: func(t *testing.T, ex *Exec) string {
				ex.RegisterHost("leaf", func(_ *Exec, args []values.Value) (values.Value, error) {
					return values.Int(args[0].AsInt()*100 + args[1].AsInt()), nil
				})
				inner := ex.Prog.Fn("M::inner")
				ex.RegisterHost("reenter", func(ex *Exec, args []values.Value) (values.Value, error) {
					// Two nested activations, one of them recursing back into
					// M::f's own host call, before this call's operands are read.
					n1, err := ex.CallFn(inner, values.Int(3), frozen(9))
					if err != nil {
						return values.Nil, err
					}
					var n2 values.Value
					if args[0].AsInt() > 0 {
						if n2, err = ex.Call("M::f", values.Int(0), values.Int(5)); err != nil {
							return values.Nil, err
						}
					}
					return values.Int(args[0].AsInt()*1_000_000 + args[1].AsInt()*10_000 +
						n1.AsInt() + n2.AsInt()), nil
				})
				return callF(values.Int(7), values.Int(8))(t, ex)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, st := optStatsFor(t, tc.build(), "M::f"); st.Split != tc.split {
				t.Fatalf("splitTuples rewrote %d producers, want %d", st.Split, tc.split)
			}
			want := tc.run(t, linkAt(t, 0, tc.build()))
			for _, level := range []int{1, 2} {
				if got := tc.run(t, linkAt(t, level, tc.build())); got != want {
					t.Fatalf("O%d diverges from the O0 reference:\n--- O%d ---\n%s\n--- O0 ---\n%s",
						level, level, got, want)
				}
			}
			t.Log("\n" + want)
		})
	}
}

// TestGenericPathAllocFree pins the two mechanisms' effect: a warmed-up
// call that runs generic (simpleFn-dispatched) instructions, a host call
// with arguments, or a split unpack allocates nothing.
func TestGenericPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b := ast.NewBuilder("M")

	one := b.Function("one", types.Int64T, ast.Param{Name: "b", Type: types.BytesT})
	n := one.Local("n", types.Int64T)
	one.Assign(n, "bytes.length", ast.VarOp("b"))
	one.Return(n)

	two := b.Function("two", types.Int64T, ast.Param{Name: "x", Type: iterT}, ast.Param{Name: "y", Type: iterT})
	d := two.Local("d", types.Int64T)
	two.Assign(d, "iterator.diff", ast.VarOp("x"), ast.VarOp("y"))
	two.Return(d)

	host := b.Function("host", types.Int64T, ast.Param{Name: "x", Type: types.Int64T}, ast.Param{Name: "y", Type: types.Int64T})
	h := host.Local("h", types.Int64T)
	host.CallResult(h, "add", ast.VarOp("x"), ast.VarOp("y"))
	host.Return(h)

	un := b.Function("unpack", types.Int64T, ast.Param{Name: "cur", Type: iterT})
	v := un.Local("v", types.Int64T)
	emitUnpack(un, "unpack.uint16be", v)
	un.Return(v)

	ex := linkAt(t, 1, b.M)
	ex.RegisterHost("add", func(_ *Exec, args []values.Value) (values.Value, error) {
		return values.Int(args[0].AsInt() + args[1].AsInt()), nil
	})
	rope := hbytes.NewFrom([]byte{0x12, 0x34, 0x56})
	for _, tc := range []struct {
		fn   string
		args []values.Value
		want int64
	}{
		{"M::one", []values.Value{values.BytesVal(rope)}, 3},
		{"M::two", []values.Value{values.IterBytes(rope.Begin()), values.IterBytes(rope.End())}, 3},
		{"M::host", []values.Value{values.Int(40), values.Int(2)}, 42},
		{"M::unpack", []values.Value{values.IterBytes(rope.Begin())}, 0x1234},
	} {
		fn := ex.Prog.Fn(tc.fn)
		var got values.Value
		var err error
		allocs := testing.AllocsPerRun(100, func() { got, err = ex.CallFn(fn, tc.args...) })
		if err != nil || got.AsInt() != tc.want {
			t.Fatalf("%s = %v, %v; want %d", tc.fn, got, err, tc.want)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0\n%s", tc.fn, allocs, fn.Disasm())
		}
	}
}
