// Expression lowering for the script compiler.

package bro

import (
	"fmt"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/values"
)

// valToHilti converts a literal script value to a HILTI constant.
func valToHilti(v Val) (values.Value, *types.Type, error) {
	switch v := v.(type) {
	case BoolVal:
		return values.Bool(bool(v)), types.BoolT, nil
	case CountVal:
		return values.Int(int64(v)), types.Int64T, nil
	case IntVal:
		return values.Int(int64(v)), types.Int64T, nil
	case DoubleVal:
		return values.Double(float64(v)), types.DoubleT, nil
	case StringVal:
		return values.String(string(v)), types.StringT, nil
	case AddrVal:
		return v.A, types.AddrT, nil
	case SubnetVal:
		return v.N, types.NetT, nil
	case PortVal:
		return values.PortVal(v.Num, v.Proto), types.PortT, nil
	case TimeVal:
		return values.TimeVal(int64(v)), types.TimeT, nil
	case IntervalVal:
		return values.IntervalVal(int64(v)), types.IntervalT, nil
	default:
		return values.Nil, nil, fmt.Errorf("cannot compile literal of type %s", v.TypeName())
	}
}

// expr lowers an expression, returning the operand holding its value and
// the inferred script type.
func (fc *fnCtx) expr(e Expr) (ast.Operand, *TypeExpr, error) {
	fb := fc.fb
	t := fc.c.inferType(fc, e)
	switch e := e.(type) {
	case *LitExpr:
		v, ht, err := valToHilti(e.V)
		if err != nil {
			return ast.Operand{}, nil, err
		}
		return ast.ConstOp(v, ht), t, nil

	case *NameExpr:
		return ast.VarOp(e.Name), t, nil

	case *FieldExpr:
		base, _, err := fc.expr(e.Base)
		if err != nil {
			return ast.Operand{}, nil, err
		}
		tmp := fb.Temp(fc.c.hiltiType(t))
		fb.Assign(tmp, "struct.get", base, ast.FieldOperand(e.Field))
		return tmp, t, nil

	case *IndexExpr:
		base, bt, err := fc.expr(e.Base)
		if err != nil {
			return ast.Operand{}, nil, err
		}
		tmp := fb.Temp(fc.c.hiltiType(t))
		if bt != nil && bt.Kind == "vector" {
			idx, _, err := fc.expr(e.Keys[0])
			if err != nil {
				return ast.Operand{}, nil, err
			}
			fb.Assign(tmp, "vector.get", base, idx)
			return tmp, t, nil
		}
		key, err := fc.keyOperand(e.Keys)
		if err != nil {
			return ast.Operand{}, nil, err
		}
		fb.Assign(tmp, "map.get", base, key)
		return tmp, t, nil

	case *UnaryExpr:
		switch e.Op {
		case "!":
			v, _, err := fc.expr(e.E)
			if err != nil {
				return ast.Operand{}, nil, err
			}
			tmp := fb.Temp(types.BoolT)
			fb.Assign(tmp, "bool.not", v)
			return tmp, t, nil
		case "-":
			v, vt, err := fc.expr(e.E)
			if err != nil {
				return ast.Operand{}, nil, err
			}
			tmp := fb.Temp(fc.c.hiltiType(vt))
			if vt != nil && vt.Kind == "double" {
				fb.Assign(tmp, "double.sub", ast.ConstOp(values.Double(0), types.DoubleT), v)
			} else {
				fb.Assign(tmp, "int.sub", ast.IntOp(0), v)
			}
			return tmp, vt, nil
		case "||":
			v, vt, err := fc.expr(e.E)
			if err != nil {
				return ast.Operand{}, nil, err
			}
			op := "map.size"
			if vt != nil {
				switch vt.Kind {
				case "set":
					op = "set.size"
				case "vector":
					op = "vector.size"
				case "string":
					op = "string.length"
				}
			}
			tmp := fb.Temp(types.Int64T)
			fb.Assign(tmp, op, v)
			return tmp, t, nil
		}
		return ast.Operand{}, nil, fmt.Errorf("cannot compile unary %q", e.Op)

	case *BinExpr:
		return fc.binExpr(e, t)

	case *CallExpr:
		return fc.callExpr(e, t)

	case *CtorExpr:
		// Anonymous record literal: a per-site struct type.
		fc.c.anonRec++
		name := fmt.Sprintf("__anon_rec%d", fc.c.anonRec)
		rd := &RecordDecl{Name: name}
		for _, f := range e.Fields {
			rd.Fields = append(rd.Fields, RecordField{Name: f.Name, Type: fc.c.inferType(fc, f.E)})
		}
		fc.c.declareRecord(rd)
		tmp := fb.Temp(types.RefT(fc.c.rtypes[name]))
		fb.Assign(tmp, "new", ast.TypeOperand(fc.c.rtypes[name]))
		for _, f := range e.Fields {
			v, _, err := fc.expr(f.E)
			if err != nil {
				return ast.Operand{}, nil, err
			}
			fb.Instr("struct.set", tmp, ast.FieldOperand(f.Name), v)
		}
		return tmp, &TypeExpr{Kind: "record", Name: name}, nil
	}
	return ast.Operand{}, nil, fmt.Errorf("cannot compile expression %T", e)
}

func (fc *fnCtx) binExpr(e *BinExpr, t *TypeExpr) (ast.Operand, *TypeExpr, error) {
	fb := fc.fb
	switch e.Op {
	case "in", "!in":
		rOp, rt, err := fc.expr(e.R)
		if err != nil {
			return ast.Operand{}, nil, err
		}
		tmp := fb.Temp(types.BoolT)
		// addr in subnet
		if rt != nil && rt.Kind == "subnet" {
			lOp, _, err := fc.expr(e.L)
			if err != nil {
				return ast.Operand{}, nil, err
			}
			fb.Assign(tmp, "net.contains", rOp, lOp)
		} else {
			var key ast.Operand
			// Composite key literal [a, b] arrives as a vector() call.
			if ce, ok := e.L.(*CallExpr); ok && ce.Fn == "vector" {
				key, err = fc.keyOperand(ce.Args)
			} else {
				key, _, err = fc.expr(e.L)
			}
			if err != nil {
				return ast.Operand{}, nil, err
			}
			op := "map.exists"
			if rt != nil && rt.Kind == "set" {
				op = "set.exists"
			}
			fb.Assign(tmp, op, rOp, key)
		}
		if e.Op == "!in" {
			fb.Assign(tmp, "bool.not", tmp)
		}
		return tmp, t, nil

	case "&&", "||":
		// Short-circuit lowering.
		tmp := fb.Temp(types.BoolT)
		lOp, _, err := fc.expr(e.L)
		if err != nil {
			return ast.Operand{}, nil, err
		}
		evalR, short, done := fc.label("sc_r"), fc.label("sc_s"), fc.label("sc_d")
		if e.Op == "&&" {
			fb.IfElse(lOp, evalR, short)
		} else {
			fb.IfElse(lOp, short, evalR)
		}
		fb.Block(short)
		fb.Set(tmp, ast.BoolOp(e.Op == "||"))
		fb.Jump(done)
		fb.Block(evalR)
		rOp, _, err := fc.expr(e.R)
		if err != nil {
			return ast.Operand{}, nil, err
		}
		fb.Set(tmp, rOp)
		fb.Jump(done)
		fb.Block(done)
		return tmp, t, nil

	case "==", "!=":
		lOp, _, err := fc.expr(e.L)
		if err != nil {
			return ast.Operand{}, nil, err
		}
		rOp, _, err := fc.expr(e.R)
		if err != nil {
			return ast.Operand{}, nil, err
		}
		tmp := fb.Temp(types.BoolT)
		op := "equal"
		if e.Op == "!=" {
			op = "unequal"
		}
		fb.Assign(tmp, op, lOp, rOp)
		return tmp, t, nil
	}

	// Arithmetic / ordering: pick the HILTI op family by operand type.
	lt := fc.c.inferType(fc, e.L)
	rt := fc.c.inferType(fc, e.R)
	lOp, _, err := fc.expr(e.L)
	if err != nil {
		return ast.Operand{}, nil, err
	}
	rOp, _, err := fc.expr(e.R)
	if err != nil {
		return ast.Operand{}, nil, err
	}
	kind := "count"
	if lt != nil {
		kind = lt.Kind
	} else if rt != nil {
		kind = rt.Kind
	}
	if (lt != nil && lt.Kind == "double") || (rt != nil && rt.Kind == "double") {
		kind = "double"
	}
	var op string
	resT := t
	switch kind {
	case "double":
		op = map[string]string{"+": "double.add", "-": "double.sub", "*": "double.mul",
			"/": "double.div", "<": "double.lt", ">": "double.gt",
			"<=": "double.leq", ">=": "double.geq"}[e.Op]
	case "time":
		op = map[string]string{"+": "time.add", "-": "time.sub",
			"<": "time.lt", ">": "time.gt"}[e.Op]
	case "interval":
		op = map[string]string{"+": "interval.add", "-": "interval.sub",
			"<": "interval.lt", ">": "interval.gt"}[e.Op]
	case "string":
		op = map[string]string{"+": "string.concat"}[e.Op]
	default: // count/int
		op = map[string]string{"+": "int.add", "-": "int.sub", "*": "int.mul",
			"/": "int.div", "%": "int.mod", "<": "int.lt", ">": "int.gt",
			"<=": "int.leq", ">=": "int.geq"}[e.Op]
	}
	if op == "" {
		return ast.Operand{}, nil, fmt.Errorf("cannot compile %s on %s operands", e.Op, kind)
	}
	tmp := fb.Temp(fc.c.hiltiType(resT))
	fb.Assign(tmp, op, lOp, rOp)
	return tmp, resT, nil
}

func (fc *fnCtx) callExpr(e *CallExpr, t *TypeExpr) (ast.Operand, *TypeExpr, error) {
	fb := fc.fb
	// Record constructor.
	if rt, ok := fc.c.rtypes[e.Fn]; ok {
		tmp := fb.Temp(types.RefT(rt))
		fb.Assign(tmp, "new", ast.TypeOperand(rt))
		for _, a := range e.Args {
			ce, ok := a.(*CtorExpr)
			if !ok || len(ce.Fields) != 1 {
				return ast.Operand{}, nil, fmt.Errorf("%s(...) takes $field=value arguments", e.Fn)
			}
			v, _, err := fc.expr(ce.Fields[0].E)
			if err != nil {
				return ast.Operand{}, nil, err
			}
			fb.Instr("struct.set", tmp, ast.FieldOperand(ce.Fields[0].Name), v)
		}
		return tmp, &TypeExpr{Kind: "record", Name: e.Fn}, nil
	}
	switch e.Fn {
	case "vector":
		tmp := fb.Temp(types.RefT(types.VectorT(types.AnyT)))
		fb.Assign(tmp, "new", ast.TypeOperand(types.VectorT(types.AnyT)))
		for _, a := range e.Args {
			v, _, err := fc.expr(a)
			if err != nil {
				return ast.Operand{}, nil, err
			}
			fb.Instr("vector.push_back", tmp, v)
		}
		return tmp, &TypeExpr{Kind: "vector"}, nil
	case "network_time":
		tmp := fb.Temp(types.TimeT)
		fb.CallResult(tmp, "bro_network_time")
		return tmp, t, nil
	case "to_lower", "to_upper":
		v, _, err := fc.expr(e.Args[0])
		if err != nil {
			return ast.Operand{}, nil, err
		}
		tmp := fb.Temp(types.StringT)
		op := "string.lower"
		if e.Fn == "to_upper" {
			op = "string.upper"
		}
		fb.Assign(tmp, op, v)
		return tmp, t, nil
	case "fmt", "cat":
		args := make([]ast.Operand, 0, len(e.Args))
		for _, a := range e.Args {
			v, _, err := fc.expr(a)
			if err != nil {
				return ast.Operand{}, nil, err
			}
			args = append(args, v)
		}
		tmp := fb.Temp(types.StringT)
		fb.CallResult(tmp, "bro_"+e.Fn, args...)
		return tmp, t, nil
	case "Log::write":
		if len(e.Args) == 2 {
			if lit, ok := e.Args[1].(*CtorExpr); ok {
				return fc.logLiteral(e.Args[0], lit)
			}
		}
		args := make([]ast.Operand, 0, len(e.Args))
		for _, a := range e.Args {
			v, _, err := fc.expr(a)
			if err != nil {
				return ast.Operand{}, nil, err
			}
			args = append(args, v)
		}
		fb.Call("bro_log_write", args...)
		return ast.ConstOp(values.Nil, types.VoidT), t, nil
	}
	// Script function.
	args := make([]ast.Operand, 0, len(e.Args))
	for _, a := range e.Args {
		v, _, err := fc.expr(a)
		if err != nil {
			return ast.Operand{}, nil, err
		}
		args = append(args, v)
	}
	tmp := fb.Temp(fc.c.hiltiType(t))
	fb.CallResult(tmp, e.Fn, args...)
	return tmp, t, nil
}

// logLiteral lowers Log::write(stream, [$f1=e1, …]) to one bro_log_write
// call with the stream, the literal's field list as a constant, and the
// field values: no struct is built, and the log's row formatter places the
// values by the field list. Every field is evaluated before the call, in
// literal order. A global is read into a temporary where it is named, so a
// script function a later field calls cannot change what is logged.
func (fc *fnCtx) logLiteral(stream Expr, lit *CtorExpr) (ast.Operand, *TypeExpr, error) {
	s, _, err := fc.expr(stream)
	if err != nil {
		return ast.Operand{}, nil, err
	}
	names := make([]string, len(lit.Fields))
	args := make([]ast.Operand, 2, 2+len(lit.Fields))
	for i, f := range lit.Fields {
		v, t, err := fc.expr(f.E)
		if err != nil {
			return ast.Operand{}, nil, err
		}
		_, local := fc.locals[v.Name]
		if _, global := fc.c.globals[v.Name]; v.Kind == ast.Var && global && !local {
			tmp := fc.fb.Temp(fc.c.hiltiType(t))
			fc.fb.Set(tmp, v)
			v = tmp
		}
		names[i] = f.Name
		args = append(args, v)
	}
	args[0] = s
	args[1] = ast.ConstOp(values.Any(NewRecordType("record", names...)), types.AnyT)
	fc.fb.Call("bro_log_write", args...)
	return ast.ConstOp(values.Nil, types.VoidT), nil, nil
}
