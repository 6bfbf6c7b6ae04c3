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
	{name: "equal", flags: scalarCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(values.Equal(a, b)), nil
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
	{name: "unequal", flags: scalarCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(!values.Equal(a, b)), nil
	}},

	// --- int ------------------------------------------------------------------
	{name: "int.add", flags: scalarOp, intBin: func(x, y int64) int64 { return x + y }},
	{name: "int.sub", flags: scalarOp, intBin: func(x, y int64) int64 { return x - y }},
	{name: "int.mul", flags: scalarOp, intBin: func(x, y int64) int64 { return x * y }},
	{name: "int.div", flags: scalarOp, f2: intFn(func(x, y int64) (int64, error) {
		if y == 0 {
			return 0, &values.Exception{Name: "Hilti::DivisionByZero", Msg: "integer division by zero"}
		}
		return x / y, nil
	})},
	{name: "int.mod", flags: scalarOp, f2: intFn(func(x, y int64) (int64, error) {
		if y == 0 {
			return 0, &values.Exception{Name: "Hilti::DivisionByZero", Msg: "integer modulo by zero"}
		}
		return x % y, nil
	})},
	{name: "int.shl", flags: scalarOp, intBin: func(x, y int64) int64 { return x << uint(y&63) }},
	{name: "int.shr", flags: scalarOp, intBin: func(x, y int64) int64 { return int64(uint64(x) >> uint(y&63)) }},
	{name: "int.and", flags: scalarOp, intBin: func(x, y int64) int64 { return x & y }},
	{name: "int.or", flags: scalarOp, intBin: func(x, y int64) int64 { return x | y }},
	{name: "int.xor", flags: scalarOp, intBin: func(x, y int64) int64 { return x ^ y }},
	{name: "int.eq", flags: scalarCmp, rel: relEq},
	{name: "int.lt", flags: scalarCmp, rel: relLt},
	{name: "int.gt", flags: scalarCmp, rel: relGt},
	{name: "int.leq", flags: scalarCmp, rel: relLeq},
	{name: "int.geq", flags: scalarCmp, rel: relGeq},
	{name: "int.ult", flags: scalarCmp, f2: intPred(func(x, y int64) bool { return uint64(x) < uint64(y) })},
	{name: "int.ugt", flags: scalarCmp, f2: intPred(func(x, y int64) bool { return uint64(x) > uint64(y) })},
	{name: "int.to_double", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.Double(float64(a.AsInt())), nil
	}},
	{name: "int.to_time", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.TimeVal(a.AsInt() * 1e9), nil
	}},
	{name: "int.to_interval", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.IntervalVal(a.AsInt() * 1e9), nil
	}},
	{name: "int.to_string", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.String(values.Format(a)), nil
	}},

	// --- double ----------------------------------------------------------------
	{name: "double.add", flags: scalarOp, f2: dblFn(func(x, y float64) (float64, error) { return x + y, nil })},
	{name: "double.sub", flags: scalarOp, f2: dblFn(func(x, y float64) (float64, error) { return x - y, nil })},
	{name: "double.mul", flags: scalarOp, f2: dblFn(func(x, y float64) (float64, error) { return x * y, nil })},
	{name: "double.div", flags: scalarOp, f2: dblFn(func(x, y float64) (float64, error) {
		if y == 0 {
			return 0, &values.Exception{Name: "Hilti::DivisionByZero", Msg: "double division by zero"}
		}
		return x / y, nil
	})},
	{name: "double.lt", flags: scalarCmp, f2: dblPred(func(x, y float64) bool { return x < y })},
	{name: "double.gt", flags: scalarCmp, f2: dblPred(func(x, y float64) bool { return x > y })},
	{name: "double.leq", flags: scalarCmp, f2: dblPred(func(x, y float64) bool { return x <= y })},
	{name: "double.geq", flags: scalarCmp, f2: dblPred(func(x, y float64) bool { return x >= y })},
	{name: "double.to_int", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.Int(int64(a.AsDouble())), nil
	}},
	{name: "double.to_interval", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.IntervalVal(int64(a.AsDouble() * 1e9)), nil
	}},
	{name: "double.to_time", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.TimeVal(int64(a.AsDouble() * 1e9)), nil
	}},

	// --- bool (also spelled "and", "or", "not": optable.go) ----------------------
	{name: "bool.and", flags: scalarCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(a.AsBool() && b.AsBool()), nil
	}},
	{name: "bool.or", flags: scalarCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(a.AsBool() || b.AsBool()), nil
	}},
	{name: "bool.not", flags: scalarCmp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.Bool(!a.AsBool()), nil
	}},

	// --- string -----------------------------------------------------------------
	{name: "string.concat", flags: scalarOp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.String(a.AsString() + b.AsString()), nil
	}},
	{name: "string.length", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.Int(int64(utf8.RuneCountInString(a.AsString()))), nil
	}},
	{name: "string.lower", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.String(strings.ToLower(a.AsString())), nil
	}},
	{name: "string.upper", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.String(strings.ToUpper(a.AsString())), nil
	}},
	{name: "string.find", flags: scalarOp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Int(int64(strings.Index(a.AsString(), b.AsString()))), nil
	}},
	// Not pure: each execution must yield a fresh bytes object.
	{name: "string.encode", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.BytesFrom([]byte(a.AsString())), nil
	}},
	{name: "string.to_int", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		var n int64
		neg := false
		s := a.AsString()
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
	{name: "time.add", flags: scalarOp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.TimeVal(a.AsTimeNs() + b.AsIntervalNs()), nil
	}},
	{name: "time.sub", flags: scalarOp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		if b.K == values.KindTime {
			return values.IntervalVal(a.AsTimeNs() - b.AsTimeNs()), nil
		}
		return values.TimeVal(a.AsTimeNs() - b.AsIntervalNs()), nil
	}},
	{name: "time.lt", flags: scalarCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(a.AsTimeNs() < b.AsTimeNs()), nil
	}},
	{name: "time.gt", flags: scalarCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(a.AsTimeNs() > b.AsTimeNs()), nil
	}},
	{name: "time.nsecs", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.Int(a.AsTimeNs()), nil
	}},
	{name: "time.to_double", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.Double(float64(a.AsTimeNs()) / 1e9), nil
	}},
	{name: "interval.add", flags: scalarOp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.IntervalVal(a.AsIntervalNs() + b.AsIntervalNs()), nil
	}},
	{name: "interval.sub", flags: scalarOp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.IntervalVal(a.AsIntervalNs() - b.AsIntervalNs()), nil
	}},
	{name: "interval.mul", flags: scalarOp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.IntervalVal(a.AsIntervalNs() * b.AsInt()), nil
	}},
	{name: "interval.lt", flags: scalarCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(a.AsIntervalNs() < b.AsIntervalNs()), nil
	}},
	{name: "interval.gt", flags: scalarCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(a.AsIntervalNs() > b.AsIntervalNs()), nil
	}},
	{name: "interval.nsecs", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.Int(a.AsIntervalNs()), nil
	}},
	{name: "interval.to_double", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.Double(float64(a.AsIntervalNs()) / 1e9), nil
	}},

	// --- addr / net / port -----------------------------------------------------------
	{name: "addr.family", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		if a.AddrIsV4() {
			return values.Int(4), nil
		}
		return values.Int(6), nil
	}},
	{name: "net.contains", flags: scalarCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(a.NetContains(b)), nil
	}, pick: func(srcs []src, d dst) execFn {
		// Generated filters test a constant network against a register.
		if d.kind == srcReg && srcs[0].kind == srcConst && srcs[1].kind == srcReg {
			return execNetContainsCR
		}
		return nil
	}},
	{name: "net.family", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		if a.NetFamilyLen() <= 32 && a.AddrIsV4() {
			return values.Int(4), nil
		}
		return values.Int(6), nil
	}},
	{name: "net.length", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.Int(int64(a.NetFamilyLen())), nil
	}},
	{name: "port.protocol", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		_, proto := a.AsPort()
		return values.Int(int64(proto)), nil
	}},
	{name: "port.number", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		n, _ := a.AsPort()
		return values.Int(int64(n)), nil
	}},

	// --- enum / bitset ------------------------------------------------------------------
	{name: "enum.to_int", flags: scalarOp, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.Int(a.AsInt()), nil
	}},
	{name: "bitset.set", flags: scalarOp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Value{K: values.KindBitset, A: a.A | b.A, O: a.O}, nil
	}},
	{name: "bitset.clear", flags: scalarOp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Value{K: values.KindBitset, A: a.A &^ b.A, O: a.O}, nil
	}},
	{name: "bitset.has", flags: scalarCmp, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(a.A&b.A == b.A), nil
	}},

	// --- hashing (thread scheduling support) --------------------------------------------
	{name: "hash", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		return values.Uint(values.Hash(a)), nil
	}},
}

func intFn(f func(x, y int64) (int64, error)) body2 {
	return func(ex *Exec, a, b values.Value) (values.Value, error) {
		r, err := f(a.AsInt(), b.AsInt())
		if err != nil {
			return values.Nil, err
		}
		return values.Int(r), nil
	}
}

func intPred(f func(x, y int64) bool) body2 {
	return func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(f(a.AsInt(), b.AsInt())), nil
	}
}

func dblFn(f func(x, y float64) (float64, error)) body2 {
	return func(ex *Exec, a, b values.Value) (values.Value, error) {
		r, err := f(a.AsDouble(), b.AsDouble())
		if err != nil {
			return values.Nil, err
		}
		return values.Double(r), nil
	}
}

func dblPred(f func(x, y float64) bool) body2 {
	return func(ex *Exec, a, b values.Value) (values.Value, error) {
		return values.Bool(f(a.AsDouble(), b.AsDouble())), nil
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
