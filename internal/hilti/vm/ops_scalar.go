// Scalar instructions: integers, doubles, booleans, strings, times,
// intervals, addresses, networks, ports, enums — the "domain-specific data
// types" rows of Table 1. Integer arithmetic operates on 64-bit values;
// narrower int<N> widths are a static property enforced by the checker, as
// in the paper's prototype.

package vm

import (
	"fmt"
	"strings"

	"hilti/internal/hilti/ast"
	"hilti/internal/rt/values"
)

// reshapers maps an op whose executor is shape-specialized at lowering
// time to the function that picks the right executor for a given operand
// shape. Optimizer passes that rewrite operand kinds in place (copy/
// constant propagation turning a register into a constant) MUST re-pick
// through this map, or a stale specialization would index the register
// file with a constant's idx.
var reshapers = map[string]func(srcs []src, d dst) func(*Exec, *Frame, *Instr) int{}

// pickIntFast selects the executor for a two-operand integer op.
func pickIntFast(srcs []src, d dst) func(*Exec, *Frame, *Instr) int {
	if d.kind == srcReg && srcs[0].kind == srcReg {
		switch srcs[1].kind {
		case srcReg:
			return execIntFastRRR
		case srcConst:
			return execIntFastRCR
		}
	}
	return execIntFast
}

// registerIntFast registers a two-operand integer op with a dedicated
// executor (no closure dispatch, no boxing round trip beyond the Value).
func registerIntFast(op string, fn func(x, y int64) int64) {
	reshapers[op] = pickIntFast
	register(op, func(c *fnCompiler, in *ast.Instr) error {
		srcs, err := c.srcsOf(in.Ops)
		if err != nil || len(srcs) != 2 {
			if err == nil {
				err = fmt.Errorf("%s expects 2 operands", in.Op)
			}
			return err
		}
		d, err := c.dstOf(in.Target)
		if err != nil {
			return err
		}
		c.emit(Instr{exec: pickIntFast(srcs, d), d: d, srcs: srcs, aux: fn})
		return nil
	})
}

// execIntFastRRR is the all-register specialization of execIntFast.
func execIntFastRRR(ex *Exec, fr *Frame, in *Instr) int {
	x := int64(fr.R[in.srcs[0].idx].A)
	y := int64(fr.R[in.srcs[1].idx].A)
	fr.R[in.d.idx] = values.Int(in.aux.(func(x, y int64) int64)(x, y))
	return in.t1
}

// execIntFastRCR is the register-op-constant specialization of execIntFast
// — the dominant shape in generated filter code (`off = hl * 4`).
func execIntFastRCR(ex *Exec, fr *Frame, in *Instr) int {
	x := int64(fr.R[in.srcs[0].idx].A)
	y := int64(in.srcs[1].val.A)
	fr.R[in.d.idx] = values.Int(in.aux.(func(x, y int64) int64)(x, y))
	return in.t1
}

func execIntFast(ex *Exec, fr *Frame, in *Instr) int {
	x := ex.get(fr, &in.srcs[0]).AsInt()
	y := ex.get(fr, &in.srcs[1]).AsInt()
	ex.put(fr, in.d, values.Int(in.aux.(func(x, y int64) int64)(x, y)))
	return in.t1
}

// pickIntCmpFast selects the executor for a two-operand integer compare.
func pickIntCmpFast(srcs []src, d dst) func(*Exec, *Frame, *Instr) int {
	if d.kind == srcReg && srcs[0].kind == srcReg {
		switch srcs[1].kind {
		case srcReg:
			return execIntCmpFastRRR
		case srcConst:
			return execIntCmpFastRCR
		}
	}
	return execIntCmpFast
}

// registerIntCmpFast registers a two-operand integer comparison with a
// dedicated executor.
func registerIntCmpFast(op string, fn func(x, y int64) bool) {
	reshapers[op] = pickIntCmpFast
	register(op, func(c *fnCompiler, in *ast.Instr) error {
		srcs, err := c.srcsOf(in.Ops)
		if err != nil || len(srcs) != 2 {
			if err == nil {
				err = fmt.Errorf("%s expects 2 operands", in.Op)
			}
			return err
		}
		d, err := c.dstOf(in.Target)
		if err != nil {
			return err
		}
		c.emit(Instr{exec: pickIntCmpFast(srcs, d), d: d, srcs: srcs, aux: fn})
		return nil
	})
}

// execIntCmpFastRRR is the all-register specialization of execIntCmpFast.
func execIntCmpFastRRR(ex *Exec, fr *Frame, in *Instr) int {
	x := int64(fr.R[in.srcs[0].idx].A)
	y := int64(fr.R[in.srcs[1].idx].A)
	fr.R[in.d.idx] = values.Bool(in.aux.(func(x, y int64) bool)(x, y))
	return in.t1
}

// execIntCmpFastRCR is the register-vs-constant specialization (the shape
// of every protocol-number test in generated filters).
func execIntCmpFastRCR(ex *Exec, fr *Frame, in *Instr) int {
	x := int64(fr.R[in.srcs[0].idx].A)
	y := int64(in.srcs[1].val.A)
	fr.R[in.d.idx] = values.Bool(in.aux.(func(x, y int64) bool)(x, y))
	return in.t1
}

func execIntCmpFast(ex *Exec, fr *Frame, in *Instr) int {
	x := ex.get(fr, &in.srcs[0]).AsInt()
	y := ex.get(fr, &in.srcs[1]).AsInt()
	ex.put(fr, in.d, values.Bool(in.aux.(func(x, y int64) bool)(x, y)))
	return in.t1
}

// registerShaped registers a fixed-arity op whose lowering consults pick
// for a shape-specialized executor, falling back to simpleFn dispatch. The
// generic fn stays in aux either way so the constant folder (and, for
// boolean ops, the fusion pass) can evaluate the op without the executor.
func registerShaped(op string, arity int, fn simpleFn,
	pick func(srcs []src, d dst) func(*Exec, *Frame, *Instr) int) {
	pickOrSimple := func(srcs []src, d dst) func(*Exec, *Frame, *Instr) int {
		if exec := pick(srcs, d); exec != nil {
			return exec
		}
		return execSimple
	}
	reshapers[op] = pickOrSimple
	register(op, func(c *fnCompiler, in *ast.Instr) error {
		if len(in.Ops) != arity {
			return fmt.Errorf("%s expects %d operands, got %d", in.Op, arity, len(in.Ops))
		}
		srcs, err := c.srcsOf(in.Ops)
		if err != nil {
			return err
		}
		d, err := c.dstOf(in.Target)
		if err != nil {
			return err
		}
		c.emit(Instr{exec: pickOrSimple(srcs, d), d: d, srcs: srcs, aux: fn})
		return nil
	})
}

func execEqualRR(ex *Exec, fr *Frame, in *Instr) int {
	fr.R[in.d.idx] = values.Bool(values.Equal(fr.R[in.srcs[0].idx], fr.R[in.srcs[1].idx]))
	return in.t1
}

func execEqualRC(ex *Exec, fr *Frame, in *Instr) int {
	fr.R[in.d.idx] = values.Bool(values.Equal(fr.R[in.srcs[0].idx], in.srcs[1].val))
	return in.t1
}

func execNetContainsCR(ex *Exec, fr *Frame, in *Instr) int {
	fr.R[in.d.idx] = values.Bool(in.srcs[0].val.NetContains(fr.R[in.srcs[1].idx]))
	return in.t1
}

func init() {
	// --- equality / ordering (overloaded across types) -----------------------
	registerShaped("equal", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(values.Equal(a[0], a[1])), nil
	}, func(srcs []src, d dst) func(*Exec, *Frame, *Instr) int {
		if d.kind != srcReg || srcs[0].kind != srcReg {
			return nil
		}
		switch srcs[1].kind {
		case srcReg:
			return execEqualRR
		case srcConst:
			return execEqualRC
		}
		return nil
	})
	registerSimple("unequal", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(!values.Equal(a[0], a[1])), nil
	})

	// --- int ------------------------------------------------------------------
	intBin := func(name string, fn func(x, y int64) (int64, error)) {
		registerSimple("int."+name, 2, func(ex *Exec, a []values.Value) (values.Value, error) {
			r, err := fn(a[0].AsInt(), a[1].AsInt())
			if err != nil {
				return values.Nil, err
			}
			return values.Int(r), nil
		})
	}
	registerIntFast("int.add", func(x, y int64) int64 { return x + y })
	registerIntFast("int.sub", func(x, y int64) int64 { return x - y })
	registerIntFast("int.mul", func(x, y int64) int64 { return x * y })
	intBin("div", func(x, y int64) (int64, error) {
		if y == 0 {
			return 0, &values.Exception{Name: "Hilti::DivisionByZero", Msg: "integer division by zero"}
		}
		return x / y, nil
	})
	intBin("mod", func(x, y int64) (int64, error) {
		if y == 0 {
			return 0, &values.Exception{Name: "Hilti::DivisionByZero", Msg: "integer modulo by zero"}
		}
		return x % y, nil
	})
	intBin("shl", func(x, y int64) (int64, error) { return x << uint(y&63), nil })
	intBin("shr", func(x, y int64) (int64, error) { return int64(uint64(x) >> uint(y&63)), nil })
	intBin("and", func(x, y int64) (int64, error) { return x & y, nil })
	intBin("or", func(x, y int64) (int64, error) { return x | y, nil })
	intBin("xor", func(x, y int64) (int64, error) { return x ^ y, nil })

	intCmp := func(name string, fn func(x, y int64) bool) {
		registerSimple("int."+name, 2, func(ex *Exec, a []values.Value) (values.Value, error) {
			return values.Bool(fn(a[0].AsInt(), a[1].AsInt())), nil
		})
	}
	registerIntCmpFast("int.eq", func(x, y int64) bool { return x == y })
	registerIntCmpFast("int.lt", func(x, y int64) bool { return x < y })
	registerIntCmpFast("int.gt", func(x, y int64) bool { return x > y })
	registerIntCmpFast("int.leq", func(x, y int64) bool { return x <= y })
	registerIntCmpFast("int.geq", func(x, y int64) bool { return x >= y })
	intCmp("ult", func(x, y int64) bool { return uint64(x) < uint64(y) })
	intCmp("ugt", func(x, y int64) bool { return uint64(x) > uint64(y) })

	registerSimple("int.to_double", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Double(float64(a[0].AsInt())), nil
	})
	registerSimple("int.to_time", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.TimeVal(a[0].AsInt() * 1e9), nil
	})
	registerSimple("int.to_interval", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IntervalVal(a[0].AsInt() * 1e9), nil
	})
	registerSimple("int.to_string", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.String(values.Format(a[0])), nil
	})

	// --- double ----------------------------------------------------------------
	dblBin := func(name string, fn func(x, y float64) (float64, error)) {
		registerSimple("double."+name, 2, func(ex *Exec, a []values.Value) (values.Value, error) {
			r, err := fn(a[0].AsDouble(), a[1].AsDouble())
			if err != nil {
				return values.Nil, err
			}
			return values.Double(r), nil
		})
	}
	dblBin("add", func(x, y float64) (float64, error) { return x + y, nil })
	dblBin("sub", func(x, y float64) (float64, error) { return x - y, nil })
	dblBin("mul", func(x, y float64) (float64, error) { return x * y, nil })
	dblBin("div", func(x, y float64) (float64, error) {
		if y == 0 {
			return 0, &values.Exception{Name: "Hilti::DivisionByZero", Msg: "double division by zero"}
		}
		return x / y, nil
	})
	dblCmp := func(name string, fn func(x, y float64) bool) {
		registerSimple("double."+name, 2, func(ex *Exec, a []values.Value) (values.Value, error) {
			return values.Bool(fn(a[0].AsDouble(), a[1].AsDouble())), nil
		})
	}
	dblCmp("lt", func(x, y float64) bool { return x < y })
	dblCmp("gt", func(x, y float64) bool { return x > y })
	dblCmp("leq", func(x, y float64) bool { return x <= y })
	dblCmp("geq", func(x, y float64) bool { return x >= y })
	registerSimple("double.to_int", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(int64(a[0].AsDouble())), nil
	})
	registerSimple("double.to_interval", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IntervalVal(int64(a[0].AsDouble() * 1e9)), nil
	})
	registerSimple("double.to_time", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.TimeVal(int64(a[0].AsDouble() * 1e9)), nil
	})

	// --- bool -------------------------------------------------------------------
	registerSimple("bool.and", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsBool() && a[1].AsBool()), nil
	})
	registerSimple("bool.or", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsBool() || a[1].AsBool()), nil
	})
	registerSimple("bool.not", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(!a[0].AsBool()), nil
	})
	// Aliases used in the paper's Figure 4 pseudocode ("or", "and", "not").
	lowerers["or"] = lowerers["bool.or"]
	lowerers["and"] = lowerers["bool.and"]
	lowerers["not"] = lowerers["bool.not"]

	// --- string -----------------------------------------------------------------
	registerSimple("string.concat", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.String(a[0].AsString() + a[1].AsString()), nil
	})
	registerSimple("string.length", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(int64(len([]rune(a[0].AsString())))), nil
	})
	registerSimple("string.lower", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.String(strings.ToLower(a[0].AsString())), nil
	})
	registerSimple("string.upper", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.String(strings.ToUpper(a[0].AsString())), nil
	})
	registerSimple("string.find", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(int64(strings.Index(a[0].AsString(), a[1].AsString()))), nil
	})
	registerSimple("string.encode", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.BytesFrom([]byte(a[0].AsString())), nil
	})
	registerSimple("string.to_int", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		var n int64
		neg := false
		s := a[0].AsString()
		for i := 0; i < len(s); i++ {
			if i == 0 && s[i] == '-' {
				neg = true
				continue
			}
			if s[i] < '0' || s[i] > '9' {
				return values.Nil, &values.Exception{Name: "Hilti::ConversionError", Msg: fmt.Sprintf("not a number: %q", s)}
			}
			n = n*10 + int64(s[i]-'0')
		}
		if neg {
			n = -n
		}
		return values.Int(n), nil
	})

	// --- time / interval ----------------------------------------------------------
	registerSimple("time.add", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.TimeVal(a[0].AsTimeNs() + a[1].AsIntervalNs()), nil
	})
	registerSimple("time.sub", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		if a[1].K == values.KindTime {
			return values.IntervalVal(a[0].AsTimeNs() - a[1].AsTimeNs()), nil
		}
		return values.TimeVal(a[0].AsTimeNs() - a[1].AsIntervalNs()), nil
	})
	registerSimple("time.lt", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsTimeNs() < a[1].AsTimeNs()), nil
	})
	registerSimple("time.gt", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsTimeNs() > a[1].AsTimeNs()), nil
	})
	registerSimple("time.nsecs", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(a[0].AsTimeNs()), nil
	})
	registerSimple("time.to_double", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Double(float64(a[0].AsTimeNs()) / 1e9), nil
	})
	registerSimple("interval.add", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IntervalVal(a[0].AsIntervalNs() + a[1].AsIntervalNs()), nil
	})
	registerSimple("interval.sub", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IntervalVal(a[0].AsIntervalNs() - a[1].AsIntervalNs()), nil
	})
	registerSimple("interval.mul", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IntervalVal(a[0].AsIntervalNs() * a[1].AsInt()), nil
	})
	registerSimple("interval.lt", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsIntervalNs() < a[1].AsIntervalNs()), nil
	})
	registerSimple("interval.gt", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsIntervalNs() > a[1].AsIntervalNs()), nil
	})
	registerSimple("interval.nsecs", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(a[0].AsIntervalNs()), nil
	})
	registerSimple("interval.to_double", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Double(float64(a[0].AsIntervalNs()) / 1e9), nil
	})

	// --- addr / net / port -----------------------------------------------------------
	registerSimple("addr.family", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		if a[0].AddrIsV4() {
			return values.Int(4), nil
		}
		return values.Int(6), nil
	})
	registerShaped("net.contains", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].NetContains(a[1])), nil
	}, func(srcs []src, d dst) func(*Exec, *Frame, *Instr) int {
		// Generated filters test a constant network against a register.
		if d.kind == srcReg && srcs[0].kind == srcConst && srcs[1].kind == srcReg {
			return execNetContainsCR
		}
		return nil
	})
	registerSimple("net.family", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		if a[0].NetFamilyLen() <= 32 && a[0].AddrIsV4() {
			return values.Int(4), nil
		}
		return values.Int(6), nil
	})
	registerSimple("net.length", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(int64(a[0].NetFamilyLen())), nil
	})
	registerSimple("port.protocol", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		_, proto := a[0].AsPort()
		return values.Int(int64(proto)), nil
	})
	registerSimple("port.number", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		n, _ := a[0].AsPort()
		return values.Int(int64(n)), nil
	})

	// --- enum / bitset ------------------------------------------------------------------
	registerSimple("enum.to_int", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(a[0].AsInt()), nil
	})
	registerSimple("bitset.set", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Value{K: values.KindBitset, A: a[0].A | a[1].A, O: a[0].O}, nil
	})
	registerSimple("bitset.clear", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Value{K: values.KindBitset, A: a[0].A &^ a[1].A, O: a[0].O}, nil
	})
	registerSimple("bitset.has", 2, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].A&a[1].A == a[1].A), nil
	})

	// --- hashing (thread scheduling support) --------------------------------------------
	registerSimple("hash", 1, func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Uint(values.Hash(a[0])), nil
	})
}

// --- tier-2 unboxed slot executors -------------------------------------------
//
// Installed by tier-2 respecialization (tier2.go) for instructions whose
// operands live in the frame's int64 slot file. They read via slotArg
// (slot / constant / statically-typed boxed register) and write via
// putSlotInt/putSlotBool, so a single executor covers every operand-kind
// mix the classifier admits; no values.Value is built unless the
// destination stayed boxed.

func execSlotIntBin(ex *Exec, fr *Frame, in *Instr) int {
	r := in.aux.(func(x, y int64) int64)(
		slotArg(fr, &in.srcs[0]), slotArg(fr, &in.srcs[1]))
	putSlotInt(ex, fr, in.d, r)
	return in.t1
}

func execSlotIntCmp(ex *Exec, fr *Frame, in *Instr) int {
	b := in.aux.(func(x, y int64) bool)(
		slotArg(fr, &in.srcs[0]), slotArg(fr, &in.srcs[1]))
	putSlotBool(ex, fr, in.d, b)
	return in.t1
}

func execSlotIntCmpBr(ex *Exec, fr *Frame, in *Instr) int {
	b := in.aux.(func(x, y int64) bool)(
		slotArg(fr, &in.srcs[0]), slotArg(fr, &in.srcs[1]))
	putSlotBool(ex, fr, in.d, b)
	return in.branch(b)
}

func execSlotEqual(ex *Exec, fr *Frame, in *Instr) int {
	putSlotBool(ex, fr, in.d, slotArg(fr, &in.srcs[0]) == slotArg(fr, &in.srcs[1]))
	return in.t1
}

func execSlotEqualBr(ex *Exec, fr *Frame, in *Instr) int {
	b := slotArg(fr, &in.srcs[0]) == slotArg(fr, &in.srcs[1])
	putSlotBool(ex, fr, in.d, b)
	return in.branch(b)
}

func execSlotUnequal(ex *Exec, fr *Frame, in *Instr) int {
	putSlotBool(ex, fr, in.d, slotArg(fr, &in.srcs[0]) != slotArg(fr, &in.srcs[1]))
	return in.t1
}

func execSlotUnequalBr(ex *Exec, fr *Frame, in *Instr) int {
	b := slotArg(fr, &in.srcs[0]) != slotArg(fr, &in.srcs[1])
	putSlotBool(ex, fr, in.d, b)
	return in.branch(b)
}

func execSlotBoolAnd(ex *Exec, fr *Frame, in *Instr) int {
	putSlotBool(ex, fr, in.d,
		slotArg(fr, &in.srcs[0]) != 0 && slotArg(fr, &in.srcs[1]) != 0)
	return in.t1
}

func execSlotBoolAndBr(ex *Exec, fr *Frame, in *Instr) int {
	b := slotArg(fr, &in.srcs[0]) != 0 && slotArg(fr, &in.srcs[1]) != 0
	putSlotBool(ex, fr, in.d, b)
	return in.branch(b)
}

func execSlotBoolOr(ex *Exec, fr *Frame, in *Instr) int {
	putSlotBool(ex, fr, in.d,
		slotArg(fr, &in.srcs[0]) != 0 || slotArg(fr, &in.srcs[1]) != 0)
	return in.t1
}

func execSlotBoolOrBr(ex *Exec, fr *Frame, in *Instr) int {
	b := slotArg(fr, &in.srcs[0]) != 0 || slotArg(fr, &in.srcs[1]) != 0
	putSlotBool(ex, fr, in.d, b)
	return in.branch(b)
}

func execSlotBoolNot(ex *Exec, fr *Frame, in *Instr) int {
	putSlotBool(ex, fr, in.d, slotArg(fr, &in.srcs[0]) == 0)
	return in.t1
}

func execSlotBoolNotBr(ex *Exec, fr *Frame, in *Instr) int {
	b := slotArg(fr, &in.srcs[0]) == 0
	putSlotBool(ex, fr, in.d, b)
	return in.branch(b)
}
