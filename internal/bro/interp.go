// The script interpreter: a straightforward tree-walking evaluator over
// the Val hierarchy — the role of Bro's standard interpreter in the
// paper's §6.5 comparison ("Bro's statically typed language can execute
// much faster than dynamically typed environments", yet remains the
// baseline the HILTI-compiled scripts are measured against).

package bro

import (
	"fmt"
	"io"
	"os"
	"strings"

	"hilti/internal/pkt/flow"
	"hilti/internal/rt/metrics"
)

// Interp loads scripts and executes their event handlers and functions.
type Interp struct {
	Records map[string]*RecordType
	Globals map[string]Val
	decls   map[string]*GlobalDecl
	Funcs   map[string]*FuncDecl
	Events  map[string][]*EventHandler

	// Now returns current network time (ns); set by the engine.
	Now func() int64
	// LogWrite receives Log::write calls; set by the logging framework.
	LogWrite func(stream string, rec *RecordVal)
	Out      io.Writer

	// Expired counts the entries this interpreter's tables have aged out.
	Expired metrics.Counter
}

// NewInterp creates an interpreter with the built-in record types.
func NewInterp() *Interp {
	ip := &Interp{
		Records: map[string]*RecordType{},
		Globals: map[string]Val{},
		decls:   map[string]*GlobalDecl{},
		Funcs:   map[string]*FuncDecl{},
		Events:  map[string][]*EventHandler{},
		Now:     func() int64 { return 0 },
		Out:     os.Stdout,
	}
	ip.Records["conn_id"] = NewRecordType("conn_id", "orig_h", "orig_p", "resp_h", "resp_p")
	ip.Records["connection"] = NewRecordType("connection", "id", "uid", "start_time")
	return ip
}

// Load registers a parsed script's declarations and initializes globals.
func (ip *Interp) Load(s *Script) error {
	for _, rd := range s.Records {
		fields := make([]string, len(rd.Fields))
		for i, f := range rd.Fields {
			fields[i] = f.Name
		}
		ip.Records[rd.Name] = NewRecordType(rd.Name, fields...)
	}
	for _, gd := range s.Globals {
		v, err := ip.zeroValue(gd)
		if err != nil {
			return err
		}
		ip.Globals[gd.Name] = v
		ip.decls[gd.Name] = gd
	}
	for _, fd := range s.Functions {
		ip.Funcs[fd.Name] = fd
	}
	for _, ev := range s.Events {
		ip.Events[ev.Name] = append(ip.Events[ev.Name], ev)
	}
	return nil
}

// zeroValue initializes a global from its declaration.
func (ip *Interp) zeroValue(gd *GlobalDecl) (Val, error) {
	if gd.Init != nil {
		env := &env{ip: ip}
		return ip.eval(env, gd.Init)
	}
	if gd.Type == nil {
		return nil, fmt.Errorf("bro: global %s needs a type or initializer", gd.Name)
	}
	switch gd.Type.Kind {
	case "table", "set":
		return ip.newTable(gd.Type.Kind == "set", gd.CreateExpire+gd.ReadExpire, gd.ReadExpire > 0), nil
	case "vector":
		return &VectorVal{}, nil
	case "count":
		return CountVal(0), nil
	case "int":
		return IntVal(0), nil
	case "double":
		return DoubleVal(0), nil
	case "string":
		return StringVal(""), nil
	case "bool":
		return BoolVal(false), nil
	case "time":
		return TimeVal(0), nil
	case "interval":
		return IntervalVal(0), nil
	case "record":
		rt, ok := ip.Records[gd.Type.Name]
		if !ok {
			return nil, fmt.Errorf("bro: unknown record type %q", gd.Type.Name)
		}
		return NewRecord(rt), nil
	default:
		return nil, fmt.Errorf("bro: cannot zero-initialize %s", gd.Type)
	}
}

// newTable creates a table whose expirations count towards ip.Expired.
func (ip *Interp) newTable(isSet bool, expireInterval int64, onRead bool) *TableVal {
	t := NewTable(isSet)
	t.ExpireInterval, t.ExpireOnRead = expireInterval, onRead
	t.expired = &ip.Expired
	return t
}

// env is a lexical scope.
type env struct {
	ip     *Interp
	vars   map[string]Val
	parent *env
}

func (e *env) lookup(name string) (Val, bool) {
	for s := e; s != nil; s = s.parent {
		if s.vars != nil {
			if v, ok := s.vars[name]; ok {
				return v, true
			}
		}
	}
	v, ok := e.ip.Globals[name]
	return v, ok
}

func (e *env) assign(name string, v Val) {
	for s := e; s != nil; s = s.parent {
		if s.vars != nil {
			if _, ok := s.vars[name]; ok {
				s.vars[name] = v
				return
			}
		}
	}
	if _, ok := e.ip.Globals[name]; ok {
		e.ip.Globals[name] = v
		return
	}
	// Implicit local (handlers are forgiving, as Bro's are with local).
	if e.vars == nil {
		e.vars = map[string]Val{}
	}
	e.vars[name] = v
}

// Dispatch runs all handlers for an event.
func (ip *Interp) Dispatch(name string, args ...Val) error {
	for _, h := range ip.Events[name] {
		env := &env{ip: ip, vars: map[string]Val{}}
		for i, p := range h.Params {
			if i < len(args) {
				env.vars[p.Name] = args[i]
			}
		}
		if _, _, err := ip.exec(env, h.Body); err != nil {
			return fmt.Errorf("event %s: %w", name, err)
		}
	}
	return nil
}

// CallFunction invokes a script function.
func (ip *Interp) CallFunction(name string, args ...Val) (Val, error) {
	fd, ok := ip.Funcs[name]
	if !ok {
		return nil, fmt.Errorf("bro: unknown function %q", name)
	}
	env := &env{ip: ip, vars: map[string]Val{}}
	for i, p := range fd.Params {
		if i < len(args) {
			env.vars[p.Name] = args[i]
		}
	}
	_, ret, err := ip.exec(env, fd.Body)
	return ret, err
}

// exec runs statements; returned reports an executed return.
func (ip *Interp) exec(e *env, stmts []Stmt) (returned bool, ret Val, err error) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *LocalStmt:
			var v Val
			if s.Init != nil {
				if v, err = ip.eval(e, s.Init); err != nil {
					return false, nil, err
				}
			} else if s.Type != nil {
				gd := &GlobalDecl{Name: s.Name, Type: s.Type}
				if v, err = ip.zeroValue(gd); err != nil {
					return false, nil, err
				}
			}
			if e.vars == nil {
				e.vars = map[string]Val{}
			}
			e.vars[s.Name] = v
		case *AssignStmt:
			if err = ip.assign(e, s.LHS, s.RHS); err != nil {
				return false, nil, err
			}
		case *IfStmt:
			cond, err := ip.eval(e, s.Cond)
			if err != nil {
				return false, nil, err
			}
			b, ok := cond.(BoolVal)
			if !ok {
				return false, nil, errVal("if", cond)
			}
			body := s.Then
			if !bool(b) {
				body = s.Else
			}
			sub := &env{ip: ip, vars: map[string]Val{}, parent: e}
			if r, rv, err := ip.exec(sub, body); err != nil || r {
				return r, rv, err
			}
		case *ForStmt:
			if err := ip.execFor(e, s); err != nil {
				return false, nil, err
			}
		case *PrintStmt:
			parts := make([]string, len(s.Args))
			for i, a := range s.Args {
				v, err := ip.eval(e, a)
				if err != nil {
					return false, nil, err
				}
				if v == nil {
					parts[i] = "<unset>"
				} else {
					parts[i] = v.Render()
				}
			}
			fmt.Fprintln(ip.Out, strings.Join(parts, ", "))
		case *AddStmt:
			t, keys, err := ip.evalIndexTarget(e, s.Target)
			if err != nil {
				return false, nil, err
			}
			t.Put(ip.Now(), keys, nil)
		case *DeleteStmt:
			t, keys, err := ip.evalIndexTarget(e, s.Target)
			if err != nil {
				return false, nil, err
			}
			t.Delete(ip.Now(), keys)
		case *ReturnStmt:
			if s.Value == nil {
				return true, nil, nil
			}
			v, err := ip.eval(e, s.Value)
			return true, v, err
		case *ExprStmt:
			if _, err := ip.eval(e, s.E); err != nil {
				return false, nil, err
			}
		case *EventStmt:
			args := make([]Val, len(s.Args))
			for i, a := range s.Args {
				v, err := ip.eval(e, a)
				if err != nil {
					return false, nil, err
				}
				args[i] = v
			}
			if err := ip.Dispatch(s.Name, args...); err != nil {
				return false, nil, err
			}
		default:
			return false, nil, fmt.Errorf("bro: unhandled statement %T", s)
		}
	}
	return false, nil, nil
}

func (ip *Interp) execFor(e *env, s *ForStmt) error {
	over, err := ip.eval(e, s.Over)
	if err != nil {
		return err
	}
	run := func(bind func(sub *env)) error {
		sub := &env{ip: ip, vars: map[string]Val{}, parent: e}
		bind(sub)
		r, _, err := ip.exec(sub, s.Body)
		if err != nil {
			return err
		}
		_ = r // return inside for aborts only the handler in real Bro; keep simple
		return nil
	}
	switch c := over.(type) {
	case *TableVal:
		// Age out stale entries before snapshotting, so the loop body never
		// sees an index that a subsequent lookup would reject.
		c.expire(ip.Now())
		var entries [][2]any
		c.each(s.Var2 != "", func(key []Val, yield Val) bool {
			entries = append(entries, [2]any{key, yield})
			return true
		})
		for _, ent := range entries {
			key := ent[0].([]Val)
			yield, _ := ent[1].(Val)
			if err := run(func(sub *env) {
				if len(key) == 1 {
					sub.vars[s.Var] = key[0]
				} else {
					sub.vars[s.Var] = &VectorVal{Elems: key}
				}
				if s.Var2 != "" {
					if len(key) == 2 && c.IsSet {
						sub.vars[s.Var] = key[0]
						sub.vars[s.Var2] = key[1]
					} else {
						sub.vars[s.Var2] = yield
					}
				}
			}); err != nil {
				return err
			}
		}
		return nil
	case *VectorVal:
		for i := range c.Elems {
			if err := run(func(sub *env) {
				sub.vars[s.Var] = CountVal(i)
				if s.Var2 != "" {
					sub.vars[s.Var2] = c.Elems[i]
				}
			}); err != nil {
				return err
			}
		}
		return nil
	default:
		return errVal("for", over)
	}
}

func (ip *Interp) assign(e *env, lhs Expr, rhsE Expr) error {
	rhs, err := ip.eval(e, rhsE)
	if err != nil {
		return err
	}
	switch l := lhs.(type) {
	case *NameExpr:
		e.assign(l.Name, rhs)
		return nil
	case *FieldExpr:
		base, err := ip.eval(e, l.Base)
		if err != nil {
			return err
		}
		r, ok := base.(*RecordVal)
		if !ok {
			return errVal("$", base)
		}
		if r.T.Index(l.Field) < 0 {
			return fmt.Errorf("bro: record %s has no field %q", r.T.Name, l.Field)
		}
		r.Set(l.Field, rhs)
		return nil
	case *IndexExpr:
		base, err := ip.eval(e, l.Base)
		if err != nil {
			return err
		}
		keys, err := ip.evalKeys(e, l.Keys)
		if err != nil {
			return err
		}
		switch c := base.(type) {
		case *TableVal:
			c.Put(ip.Now(), keys, rhs)
			return nil
		case *VectorVal:
			i, ok := keys[0].(CountVal)
			if !ok {
				return errVal("vector index", keys[0])
			}
			for len(c.Elems) <= int(i) {
				c.Elems = append(c.Elems, nil)
			}
			c.Elems[i] = rhs
			return nil
		default:
			return errVal("[]=", base)
		}
	default:
		return fmt.Errorf("bro: invalid assignment target %T", lhs)
	}
}

func (ip *Interp) evalKeys(e *env, keys []Expr) ([]Val, error) {
	out := make([]Val, len(keys))
	for i, k := range keys {
		v, err := ip.eval(e, k)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (ip *Interp) evalIndexTarget(e *env, ie *IndexExpr) (*TableVal, []Val, error) {
	base, err := ip.eval(e, ie.Base)
	if err != nil {
		return nil, nil, err
	}
	t, ok := base.(*TableVal)
	if !ok {
		return nil, nil, errVal("add/delete", base)
	}
	keys, err := ip.evalKeys(e, ie.Keys)
	return t, keys, err
}

func (ip *Interp) eval(e *env, x Expr) (Val, error) {
	switch x := x.(type) {
	case *LitExpr:
		return x.V, nil
	case *NameExpr:
		if v, ok := e.lookup(x.Name); ok {
			return v, nil
		}
		return nil, fmt.Errorf("bro: undefined identifier %q", x.Name)
	case *UnaryExpr:
		v, err := ip.eval(e, x.E)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "!":
			b, ok := v.(BoolVal)
			if !ok {
				return nil, errVal("!", v)
			}
			return BoolVal(!b), nil
		case "-":
			switch n := v.(type) {
			case CountVal:
				return IntVal(-int64(n)), nil
			case IntVal:
				return IntVal(-n), nil
			case DoubleVal:
				return DoubleVal(-n), nil
			}
			return nil, errVal("-", v)
		case "||":
			switch c := v.(type) {
			case *TableVal:
				return CountVal(c.Len()), nil
			case *VectorVal:
				return CountVal(len(c.Elems)), nil
			case StringVal:
				return CountVal(len(c)), nil
			}
			return nil, errVal("| |", v)
		}
		return nil, fmt.Errorf("bro: unknown unary %q", x.Op)
	case *BinExpr:
		return ip.evalBin(e, x)
	case *FieldExpr:
		base, err := ip.eval(e, x.Base)
		if err != nil {
			return nil, err
		}
		r, ok := base.(*RecordVal)
		if !ok {
			return nil, errVal("$", base)
		}
		if r.T.Index(x.Field) < 0 {
			return nil, fmt.Errorf("bro: record %s has no field %q", r.T.Name, x.Field)
		}
		return r.Get(x.Field), nil
	case *IndexExpr:
		base, err := ip.eval(e, x.Base)
		if err != nil {
			return nil, err
		}
		keys, err := ip.evalKeys(e, x.Keys)
		if err != nil {
			return nil, err
		}
		switch c := base.(type) {
		case *TableVal:
			v, ok := c.Get(ip.Now(), keys)
			if !ok {
				return nil, fmt.Errorf("bro: no such index: %s", KeyString(keys))
			}
			return v, nil
		case *VectorVal:
			i, ok := keys[0].(CountVal)
			if !ok || int(i) >= len(c.Elems) {
				return nil, fmt.Errorf("bro: vector index out of range")
			}
			return c.Elems[i], nil
		default:
			return nil, errVal("[]", base)
		}
	case *CallExpr:
		return ip.evalCall(e, x)
	case *CtorExpr:
		// Anonymous record literal; its evaluations share one type.
		if x.rt == nil {
			fields := make([]string, len(x.Fields))
			for i, f := range x.Fields {
				fields[i] = f.Name
			}
			x.rt = NewRecordType("record", fields...)
		}
		vals := make([]Val, len(x.Fields))
		for i, f := range x.Fields {
			v, err := ip.eval(e, f.E)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return &RecordVal{T: x.rt, F: vals}, nil
	default:
		return nil, fmt.Errorf("bro: unhandled expression %T", x)
	}
}

func (ip *Interp) evalCall(e *env, x *CallExpr) (Val, error) {
	// Record constructor?
	if rt, ok := ip.Records[x.Fn]; ok {
		r := NewRecord(rt)
		for _, a := range x.Args {
			ce, ok := a.(*CtorExpr)
			if !ok || len(ce.Fields) != 1 {
				return nil, fmt.Errorf("bro: %s(...) takes $field=value arguments", x.Fn)
			}
			v, err := ip.eval(e, ce.Fields[0].E)
			if err != nil {
				return nil, err
			}
			if rt.Index(ce.Fields[0].Name) < 0 {
				return nil, fmt.Errorf("bro: record %s has no field %q", rt.Name, ce.Fields[0].Name)
			}
			r.Set(ce.Fields[0].Name, v)
		}
		return r, nil
	}
	args := make([]Val, len(x.Args))
	for i, a := range x.Args {
		v, err := ip.eval(e, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch x.Fn {
	case "vector":
		return &VectorVal{Elems: args}, nil
	case "network_time":
		return TimeVal(ip.Now()), nil
	case "fmt":
		return builtinFmt(args)
	case "to_lower":
		s, _ := args[0].(StringVal)
		return StringVal(strings.ToLower(string(s))), nil
	case "to_upper":
		s, _ := args[0].(StringVal)
		return StringVal(strings.ToUpper(string(s))), nil
	case "cat":
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(a.Render())
		}
		return StringVal(sb.String()), nil
	case "Log::write":
		if ip.LogWrite != nil {
			stream, _ := args[0].(StringVal)
			rec, ok := args[1].(*RecordVal)
			if !ok {
				return nil, fmt.Errorf("bro: Log::write needs a record")
			}
			ip.LogWrite(string(stream), rec)
		}
		return nil, nil
	}
	if _, ok := ip.Funcs[x.Fn]; ok {
		return ip.CallFunction(x.Fn, args...)
	}
	return nil, fmt.Errorf("bro: unknown function %q", x.Fn)
}

// builtinFmt implements Bro's fmt(): %s/%d/%x/%f plus %%.
func builtinFmt(args []Val) (Val, error) {
	if len(args) == 0 {
		return StringVal(""), nil
	}
	f, ok := args[0].(StringVal)
	if !ok {
		return nil, errVal("fmt", args[0])
	}
	rest := args[1:]
	var sb strings.Builder
	ai := 0
	s := string(f)
	for i := 0; i < len(s); i++ {
		if s[i] != '%' || i+1 >= len(s) {
			sb.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case '%':
			sb.WriteByte('%')
		default:
			if ai < len(rest) {
				if rest[ai] == nil {
					sb.WriteString("-")
				} else {
					sb.WriteString(rest[ai].Render())
				}
				ai++
			}
		}
	}
	return StringVal(sb.String()), nil
}

func (ip *Interp) evalBin(e *env, x *BinExpr) (Val, error) {
	// Short-circuit logic.
	if x.Op == "&&" || x.Op == "||" {
		l, err := ip.eval(e, x.L)
		if err != nil {
			return nil, err
		}
		lb, ok := l.(BoolVal)
		if !ok {
			return nil, errVal(x.Op, l)
		}
		if x.Op == "&&" && !bool(lb) {
			return BoolVal(false), nil
		}
		if x.Op == "||" && bool(lb) {
			return BoolVal(true), nil
		}
		r, err := ip.eval(e, x.R)
		if err != nil {
			return nil, err
		}
		rb, ok := r.(BoolVal)
		if !ok {
			return nil, errVal(x.Op, r)
		}
		return rb, nil
	}
	l, err := ip.eval(e, x.L)
	if err != nil {
		return nil, err
	}
	r, err := ip.eval(e, x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "in", "!in":
		t, ok := r.(*TableVal)
		if !ok {
			// addr in subnet
			if sn, ok2 := r.(SubnetVal); ok2 {
				a, ok3 := l.(AddrVal)
				if !ok3 {
					return nil, errVal("in", l)
				}
				res := sn.N.NetContains(a.A)
				if x.Op == "!in" {
					res = !res
				}
				return BoolVal(res), nil
			}
			return nil, errVal("in", r)
		}
		var keys []Val
		if lv, ok := l.(*VectorVal); ok {
			keys = lv.Elems
		} else {
			keys = []Val{l}
		}
		res := t.Has(ip.Now(), keys)
		if x.Op == "!in" {
			res = !res
		}
		return BoolVal(res), nil
	case "==":
		return BoolVal(Equal(l, r)), nil
	case "!=":
		return BoolVal(!Equal(l, r)), nil
	}
	return numericBin(x.Op, l, r)
}

// numericBin implements arithmetic and ordering over the numeric types.
func numericBin(op string, l, r Val) (Val, error) {
	// time/interval algebra first.
	switch lv := l.(type) {
	case TimeVal:
		switch rv := r.(type) {
		case IntervalVal:
			switch op {
			case "+":
				return TimeVal(int64(lv) + int64(rv)), nil
			case "-":
				return TimeVal(int64(lv) - int64(rv)), nil
			}
		case TimeVal:
			switch op {
			case "-":
				return IntervalVal(int64(lv) - int64(rv)), nil
			case "<":
				return BoolVal(lv < rv), nil
			case ">":
				return BoolVal(lv > rv), nil
			case "<=":
				return BoolVal(lv <= rv), nil
			case ">=":
				return BoolVal(lv >= rv), nil
			}
		}
	case IntervalVal:
		if rv, ok := r.(IntervalVal); ok {
			switch op {
			case "+":
				return IntervalVal(lv + rv), nil
			case "-":
				return IntervalVal(lv - rv), nil
			case "<":
				return BoolVal(lv < rv), nil
			case ">":
				return BoolVal(lv > rv), nil
			case "<=":
				return BoolVal(lv <= rv), nil
			case ">=":
				return BoolVal(lv >= rv), nil
			}
		}
	case StringVal:
		if rv, ok := r.(StringVal); ok {
			switch op {
			case "+":
				return StringVal(lv + rv), nil
			case "<":
				return BoolVal(lv < rv), nil
			case ">":
				return BoolVal(lv > rv), nil
			}
		}
	}
	// Numeric coercion: double wins; otherwise integer arithmetic.
	lf, lIsF, li, lok := numParts(l)
	rf, rIsF, ri, rok := numParts(r)
	if !lok || !rok {
		return nil, fmt.Errorf("bro: invalid operands for %s: %s, %s", op, l.TypeName(), r.TypeName())
	}
	if lIsF || rIsF {
		switch op {
		case "+":
			return DoubleVal(lf + rf), nil
		case "-":
			return DoubleVal(lf - rf), nil
		case "*":
			return DoubleVal(lf * rf), nil
		case "/":
			if rf == 0 {
				return nil, fmt.Errorf("bro: division by zero")
			}
			return DoubleVal(lf / rf), nil
		case "<":
			return BoolVal(lf < rf), nil
		case ">":
			return BoolVal(lf > rf), nil
		case "<=":
			return BoolVal(lf <= rf), nil
		case ">=":
			return BoolVal(lf >= rf), nil
		}
	}
	switch op {
	case "+":
		return countOrInt(li+ri, l, r), nil
	case "-":
		return countOrInt(li-ri, l, r), nil
	case "*":
		return countOrInt(li*ri, l, r), nil
	case "/":
		if ri == 0 {
			return nil, fmt.Errorf("bro: division by zero")
		}
		return countOrInt(li/ri, l, r), nil
	case "%":
		if ri == 0 {
			return nil, fmt.Errorf("bro: modulo by zero")
		}
		return countOrInt(li%ri, l, r), nil
	case "<":
		return BoolVal(li < ri), nil
	case ">":
		return BoolVal(li > ri), nil
	case "<=":
		return BoolVal(li <= ri), nil
	case ">=":
		return BoolVal(li >= ri), nil
	}
	return nil, fmt.Errorf("bro: unknown operator %q", op)
}

func numParts(v Val) (f float64, isF bool, i int64, ok bool) {
	switch n := v.(type) {
	case CountVal:
		return float64(n), false, int64(n), true
	case IntVal:
		return float64(n), false, int64(n), true
	case DoubleVal:
		return float64(n), true, int64(n), true
	default:
		return 0, false, 0, false
	}
}

func countOrInt(n int64, l, r Val) Val {
	_, lInt := l.(IntVal)
	_, rInt := r.(IntVal)
	if lInt || rInt || n < 0 {
		return IntVal(n)
	}
	return CountVal(n)
}

// MakeConn builds the `connection` record; k is the originator's direction.
func (ip *Interp) MakeConn(uid string, k flow.Key, start int64) *RecordVal {
	id := NewRecord(ip.Records["conn_id"])
	id.Set("orig_h", AddrVal{A: k.SrcAddr()})
	id.Set("orig_p", PortVal{Num: k.SrcPort, Proto: k.Proto})
	id.Set("resp_h", AddrVal{A: k.DstAddr()})
	id.Set("resp_p", PortVal{Num: k.DstPort, Proto: k.Proto})
	c := NewRecord(ip.Records["connection"])
	c.Set("id", id)
	c.Set("uid", StringVal(uid))
	c.Set("start_time", TimeVal(start))
	return c
}
