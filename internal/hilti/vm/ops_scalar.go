// Scalar instructions: integers, doubles, booleans, strings, times,
// intervals, addresses, networks, ports, enums — the "domain-specific data
// types" rows of Table 1. Integer arithmetic operates on 64-bit values;
// narrower int<N> widths are a static property enforced by the checker, as
// in the paper's prototype.

package vm

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"hilti/internal/rt/values"
)

// Nearly every scalar op is pure; compares also feed branches.
const (
	scalarOp  = opPure
	scalarCmp = opPure | opCmp
)

var scalarOps = []opRow{
	// --- equality / ordering (overloaded across types) -----------------------
	{name: "equal", arity: 2, flags: scalarCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(values.Equal(a[0], a[1])), nil
	}, pick: func(srcs []src, d dst) execFn {
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
	}},
	{name: "unequal", arity: 2, flags: scalarCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(!values.Equal(a[0], a[1])), nil
	}},

	// --- int ------------------------------------------------------------------
	{name: "int.add", arity: 2, flags: scalarOp, intBin: func(x, y int64) int64 { return x + y }},
	{name: "int.sub", arity: 2, flags: scalarOp, intBin: func(x, y int64) int64 { return x - y }},
	{name: "int.mul", arity: 2, flags: scalarOp, intBin: func(x, y int64) int64 { return x * y }},
	{name: "int.div", arity: 2, flags: scalarOp, fn: intFn(func(x, y int64) (int64, error) {
		if y == 0 {
			return 0, &values.Exception{Name: "Hilti::DivisionByZero", Msg: "integer division by zero"}
		}
		return x / y, nil
	})},
	{name: "int.mod", arity: 2, flags: scalarOp, fn: intFn(func(x, y int64) (int64, error) {
		if y == 0 {
			return 0, &values.Exception{Name: "Hilti::DivisionByZero", Msg: "integer modulo by zero"}
		}
		return x % y, nil
	})},
	{name: "int.shl", arity: 2, flags: scalarOp, intBin: func(x, y int64) int64 { return x << uint(y&63) }},
	{name: "int.shr", arity: 2, flags: scalarOp, intBin: func(x, y int64) int64 { return int64(uint64(x) >> uint(y&63)) }},
	{name: "int.and", arity: 2, flags: scalarOp, intBin: func(x, y int64) int64 { return x & y }},
	{name: "int.or", arity: 2, flags: scalarOp, intBin: func(x, y int64) int64 { return x | y }},
	{name: "int.xor", arity: 2, flags: scalarOp, intBin: func(x, y int64) int64 { return x ^ y }},
	{name: "int.eq", arity: 2, flags: scalarCmp, rel: relEq},
	{name: "int.lt", arity: 2, flags: scalarCmp, rel: relLt},
	{name: "int.gt", arity: 2, flags: scalarCmp, rel: relGt},
	{name: "int.leq", arity: 2, flags: scalarCmp, rel: relLeq},
	{name: "int.geq", arity: 2, flags: scalarCmp, rel: relGeq},
	{name: "int.ult", arity: 2, flags: scalarCmp, fn: intPred(func(x, y int64) bool { return uint64(x) < uint64(y) })},
	{name: "int.ugt", arity: 2, flags: scalarCmp, fn: intPred(func(x, y int64) bool { return uint64(x) > uint64(y) })},
	{name: "int.to_double", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Double(float64(a[0].AsInt())), nil
	}},
	{name: "int.to_time", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.TimeVal(a[0].AsInt() * 1e9), nil
	}},
	{name: "int.to_interval", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IntervalVal(a[0].AsInt() * 1e9), nil
	}},
	{name: "int.to_string", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.String(values.Format(a[0])), nil
	}},

	// --- double ----------------------------------------------------------------
	{name: "double.add", arity: 2, flags: scalarOp, fn: dblFn(func(x, y float64) (float64, error) { return x + y, nil })},
	{name: "double.sub", arity: 2, flags: scalarOp, fn: dblFn(func(x, y float64) (float64, error) { return x - y, nil })},
	{name: "double.mul", arity: 2, flags: scalarOp, fn: dblFn(func(x, y float64) (float64, error) { return x * y, nil })},
	{name: "double.div", arity: 2, flags: scalarOp, fn: dblFn(func(x, y float64) (float64, error) {
		if y == 0 {
			return 0, &values.Exception{Name: "Hilti::DivisionByZero", Msg: "double division by zero"}
		}
		return x / y, nil
	})},
	{name: "double.lt", arity: 2, flags: scalarCmp, fn: dblPred(func(x, y float64) bool { return x < y })},
	{name: "double.gt", arity: 2, flags: scalarCmp, fn: dblPred(func(x, y float64) bool { return x > y })},
	{name: "double.leq", arity: 2, flags: scalarCmp, fn: dblPred(func(x, y float64) bool { return x <= y })},
	{name: "double.geq", arity: 2, flags: scalarCmp, fn: dblPred(func(x, y float64) bool { return x >= y })},
	{name: "double.to_int", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(int64(a[0].AsDouble())), nil
	}},
	{name: "double.to_interval", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IntervalVal(int64(a[0].AsDouble() * 1e9)), nil
	}},
	{name: "double.to_time", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.TimeVal(int64(a[0].AsDouble() * 1e9)), nil
	}},

	// --- bool (also spelled "and", "or", "not": optable.go) ----------------------
	{name: "bool.and", arity: 2, flags: scalarCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsBool() && a[1].AsBool()), nil
	}},
	{name: "bool.or", arity: 2, flags: scalarCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsBool() || a[1].AsBool()), nil
	}},
	{name: "bool.not", arity: 1, flags: scalarCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(!a[0].AsBool()), nil
	}},

	// --- string -----------------------------------------------------------------
	{name: "string.concat", arity: 2, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.String(a[0].AsString() + a[1].AsString()), nil
	}},
	{name: "string.length", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(int64(utf8.RuneCountInString(a[0].AsString()))), nil
	}},
	{name: "string.lower", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.String(strings.ToLower(a[0].AsString())), nil
	}},
	{name: "string.upper", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.String(strings.ToUpper(a[0].AsString())), nil
	}},
	{name: "string.find", arity: 2, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(int64(strings.Index(a[0].AsString(), a[1].AsString()))), nil
	}},
	// Not pure: each execution must yield a fresh bytes object.
	{name: "string.encode", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.BytesFrom([]byte(a[0].AsString())), nil
	}},
	{name: "string.to_int", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
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
	}},

	// --- time / interval ----------------------------------------------------------
	{name: "time.add", arity: 2, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.TimeVal(a[0].AsTimeNs() + a[1].AsIntervalNs()), nil
	}},
	{name: "time.sub", arity: 2, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		if a[1].K == values.KindTime {
			return values.IntervalVal(a[0].AsTimeNs() - a[1].AsTimeNs()), nil
		}
		return values.TimeVal(a[0].AsTimeNs() - a[1].AsIntervalNs()), nil
	}},
	{name: "time.lt", arity: 2, flags: scalarCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsTimeNs() < a[1].AsTimeNs()), nil
	}},
	{name: "time.gt", arity: 2, flags: scalarCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsTimeNs() > a[1].AsTimeNs()), nil
	}},
	{name: "time.nsecs", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(a[0].AsTimeNs()), nil
	}},
	{name: "time.to_double", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Double(float64(a[0].AsTimeNs()) / 1e9), nil
	}},
	{name: "interval.add", arity: 2, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IntervalVal(a[0].AsIntervalNs() + a[1].AsIntervalNs()), nil
	}},
	{name: "interval.sub", arity: 2, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IntervalVal(a[0].AsIntervalNs() - a[1].AsIntervalNs()), nil
	}},
	{name: "interval.mul", arity: 2, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.IntervalVal(a[0].AsIntervalNs() * a[1].AsInt()), nil
	}},
	{name: "interval.lt", arity: 2, flags: scalarCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsIntervalNs() < a[1].AsIntervalNs()), nil
	}},
	{name: "interval.gt", arity: 2, flags: scalarCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].AsIntervalNs() > a[1].AsIntervalNs()), nil
	}},
	{name: "interval.nsecs", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(a[0].AsIntervalNs()), nil
	}},
	{name: "interval.to_double", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Double(float64(a[0].AsIntervalNs()) / 1e9), nil
	}},

	// --- addr / net / port -----------------------------------------------------------
	{name: "addr.family", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		if a[0].AddrIsV4() {
			return values.Int(4), nil
		}
		return values.Int(6), nil
	}},
	{name: "net.contains", arity: 2, flags: scalarCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].NetContains(a[1])), nil
	}, pick: func(srcs []src, d dst) execFn {
		// Generated filters test a constant network against a register.
		if d.kind == srcReg && srcs[0].kind == srcConst && srcs[1].kind == srcReg {
			return execNetContainsCR
		}
		return nil
	}},
	{name: "net.family", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		if a[0].NetFamilyLen() <= 32 && a[0].AddrIsV4() {
			return values.Int(4), nil
		}
		return values.Int(6), nil
	}},
	{name: "net.length", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(int64(a[0].NetFamilyLen())), nil
	}},
	{name: "port.protocol", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		_, proto := a[0].AsPort()
		return values.Int(int64(proto)), nil
	}},
	{name: "port.number", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		n, _ := a[0].AsPort()
		return values.Int(int64(n)), nil
	}},

	// --- enum / bitset ------------------------------------------------------------------
	{name: "enum.to_int", arity: 1, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Int(a[0].AsInt()), nil
	}},
	{name: "bitset.set", arity: 2, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Value{K: values.KindBitset, A: a[0].A | a[1].A, O: a[0].O}, nil
	}},
	{name: "bitset.clear", arity: 2, flags: scalarOp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Value{K: values.KindBitset, A: a[0].A &^ a[1].A, O: a[0].O}, nil
	}},
	{name: "bitset.has", arity: 2, flags: scalarCmp, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(a[0].A&a[1].A == a[1].A), nil
	}},

	// --- hashing (thread scheduling support) --------------------------------------------
	{name: "hash", arity: 1, fn: func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Uint(values.Hash(a[0])), nil
	}},
}

func intFn(f func(x, y int64) (int64, error)) simpleFn {
	return func(ex *Exec, a []values.Value) (values.Value, error) {
		r, err := f(a[0].AsInt(), a[1].AsInt())
		if err != nil {
			return values.Nil, err
		}
		return values.Int(r), nil
	}
}

func intPred(f func(x, y int64) bool) simpleFn {
	return func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(f(a[0].AsInt(), a[1].AsInt())), nil
	}
}

func dblFn(f func(x, y float64) (float64, error)) simpleFn {
	return func(ex *Exec, a []values.Value) (values.Value, error) {
		r, err := f(a[0].AsDouble(), a[1].AsDouble())
		if err != nil {
			return values.Nil, err
		}
		return values.Double(r), nil
	}
}

func dblPred(f func(x, y float64) bool) simpleFn {
	return func(ex *Exec, a []values.Value) (values.Value, error) {
		return values.Bool(f(a[0].AsDouble(), a[1].AsDouble())), nil
	}
}

// --- shape-specialized executors ---------------------------------------------
//
// Chosen at lowering (and re-chosen by copy propagation) for the operand
// shapes generated code is made of: no closure dispatch, no boxing round
// trip beyond the Value. The compares among them end in in.branch, which is
// their fallthrough until O1 fuses them with an if.else.

// pickIntFast selects the executor for an intBin row's operand shape.
func pickIntFast(srcs []src, d dst) execFn {
	if d.kind == srcReg && srcs[0].kind == srcReg {
		switch srcs[1].kind {
		case srcReg:
			return execIntFastRRR
		case srcConst:
			return execIntFastRCR
		}
	}
	return nil
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

// pickIntCmpFast selects the executor for a rel row's operand shape.
func pickIntCmpFast(srcs []src, d dst) execFn {
	if d.kind == srcReg && srcs[0].kind == srcReg {
		switch srcs[1].kind {
		case srcReg:
			return execIntCmpFastRRR
		case srcConst:
			return execIntCmpFastRCR
		}
	}
	return nil
}

// execIntCmpFastRRR is the all-register specialization of execIntCmpFast.
func execIntCmpFastRRR(ex *Exec, fr *Frame, in *Instr) int {
	b := in.aux.(func(x, y int64) bool)(int64(fr.R[in.srcs[0].idx].A), int64(fr.R[in.srcs[1].idx].A))
	fr.R[in.d.idx] = values.Bool(b)
	return in.branch(b)
}

// execIntCmpFastRCR is the register-vs-constant specialization (the shape
// of every protocol-number test in generated filters).
func execIntCmpFastRCR(ex *Exec, fr *Frame, in *Instr) int {
	b := in.aux.(func(x, y int64) bool)(int64(fr.R[in.srcs[0].idx].A), int64(in.srcs[1].val.A))
	fr.R[in.d.idx] = values.Bool(b)
	return in.branch(b)
}

func execIntCmpFast(ex *Exec, fr *Frame, in *Instr) int {
	b := in.aux.(func(x, y int64) bool)(ex.get(fr, &in.srcs[0]).AsInt(), ex.get(fr, &in.srcs[1]).AsInt())
	ex.put(fr, in.d, values.Bool(b))
	return in.branch(b)
}

func execEqualRR(ex *Exec, fr *Frame, in *Instr) int {
	b := values.Equal(fr.R[in.srcs[0].idx], fr.R[in.srcs[1].idx])
	fr.R[in.d.idx] = values.Bool(b)
	return in.branch(b)
}

func execEqualRC(ex *Exec, fr *Frame, in *Instr) int {
	b := values.Equal(fr.R[in.srcs[0].idx], in.srcs[1].val)
	fr.R[in.d.idx] = values.Bool(b)
	return in.branch(b)
}

func execNetContainsCR(ex *Exec, fr *Frame, in *Instr) int {
	b := in.srcs[0].val.NetContains(fr.R[in.srcs[1].idx])
	fr.R[in.d.idx] = values.Bool(b)
	return in.branch(b)
}
