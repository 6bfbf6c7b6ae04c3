// The script interpreter: a straightforward tree-walking evaluator over
// the Val hierarchy — the role of Bro's standard interpreter in the
// paper's §6.5 comparison ("Bro's statically typed language can execute
// much faster than dynamically typed environments", yet remains the
// baseline the HILTI-compiled scripts are measured against).
//
// Scoping is Bro's: a handler's or function's locals live in one frame for
// the whole call, whatever block declared them. The first time a body runs
// — not at Load, since a global may come from a script loaded later — a
// resolver walks it in source order and gives each parameter, `local`,
// implicit local (an assignment to a name that is neither a local nor a
// global) and `for` variable a slot; every other name is a global. This is
// the rule the compiled backend's fnCtx.locals applies. Frames come from a
// per-interpreter stack indexed by call depth, so a call allocates nothing;
// a frame is cleared when its call returns or panics. Reading a slot that
// nothing has assigned in this call — a parameter the caller did not pass,
// a local whose declaration did not run — is an undefined identifier.
//
// A statement builds no garbage it throws away. An index or argument list
// is evaluated onto a per-interpreter stack and borrowed until its
// statement is done (evalList); what keeps one — an inserting table Put,
// vector(...) — copies it. Table probes build their key in the table's
// scratch, and fmt, cat and print render into the interpreter's. The
// stack is popped explicitly on every path, not by defer, which costs
// measurably per expression; a list a panic unwinds past stays on the
// stack until the outermost frame's leave empties it.

package bro

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"hilti/internal/pkt/flow"
	"hilti/internal/rt/container"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/values"
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

	// gen counts Loads; a body resolved in an older generation is
	// resolved again, as a name it took for a local may now be a global.
	gen int
	// frames[d] is the frame of the call at depth d, reused by every call
	// at that depth; depth calls are running.
	frames []frame
	depth  int
	// stack holds the borrowed lists (see evalList); buf is the scratch
	// fmt, cat and print render into.
	stack []Val
	buf   []byte
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
// The script's AST then belongs to this interpreter: a body's first call
// records frame slots and field caches on it.
func (ip *Interp) Load(s *Script) error {
	ip.gen++
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
		return ip.eval(nil, gd.Init) // an initializer names only globals
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

// frame holds one call's locals at the slots the resolver gave them.
type frame []slot

// slot is one local; set tells an assigned nil from one never assigned.
type slot struct {
	v   Val
	set bool
}

func (f frame) put(i int, v Val) { f[i] = slot{v, true} }

// frameLayout is what the resolver learned about one body.
type frameLayout struct {
	slots int // frame size: parameters first, then locals in source order
	gen   int // the interpreter's load generation it was resolved in; 0: never
}

// fieldSite caches a field's index in the record type last seen at one
// expression; a site that sees another type looks the index up again.
type fieldSite struct {
	rt  *RecordType
	idx int
}

// index returns field's index in rt, or -1.
func (s *fieldSite) index(rt *RecordType, field string) int {
	if s.rt != rt {
		s.rt, s.idx = rt, rt.Index(field)
	}
	return s.idx
}

// enter claims the frame for a call of a body with the given layout,
// resolving the body first if this interpreter has not yet. Every enter is
// paired with a deferred leave.
func (ip *Interp) enter(l *frameLayout, params []ParamDecl, body []Stmt) frame {
	if l.gen != ip.gen {
		ip.resolve(l, params, body)
	}
	if ip.depth == len(ip.frames) {
		ip.frames = append(ip.frames, nil)
	}
	f := ip.frames[ip.depth]
	if cap(f) < l.slots {
		f = make(frame, l.slots)
		ip.frames[ip.depth] = f
	}
	ip.depth++
	return f[:l.slots]
}

// leave releases the innermost frame, dropping its values. The outermost
// frame's leave also drops what a panic left on the list stack.
func (ip *Interp) leave(f frame) {
	clear(f)
	ip.depth--
	if ip.depth == 0 {
		ip.pop(0)
	}
}

// Dispatch runs all handlers for an event.
func (ip *Interp) Dispatch(name string, args ...Val) error {
	return ip.dispatch(name, ip.Events[name], args)
}

// dispatch runs the event's handlers, which the caller looked up.
func (ip *Interp) dispatch(name string, handlers []*EventHandler, args []Val) error {
	for _, h := range handlers {
		if _, err := ip.call(&h.layout, h.Params, h.Body, args); err != nil {
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
	return ip.call(&fd.layout, fd.Params, fd.Body, args)
}

// call runs a body with args bound to its parameters; parameters beyond
// args stay unassigned.
func (ip *Interp) call(l *frameLayout, params []ParamDecl, body []Stmt, args []Val) (Val, error) {
	f := ip.enter(l, params, body)
	defer ip.leave(f)
	for i := range min(len(params), len(args)) {
		f.put(i, args[i])
	}
	_, ret, err := ip.exec(f, body)
	return ret, err
}

// callExprs calls a script function from caller's frame, evaluating each
// argument straight into the callee's frame.
func (ip *Interp) callExprs(caller frame, fd *FuncDecl, args []Expr) (Val, error) {
	f := ip.enter(&fd.layout, fd.Params, fd.Body)
	defer ip.leave(f)
	for i, a := range args {
		v, err := ip.eval(caller, a)
		if err != nil {
			return nil, err
		}
		if i < len(fd.Params) {
			f.put(i, v)
		}
	}
	_, ret, err := ip.exec(f, fd.Body)
	return ret, err
}

// resolver gives the locals of one body their frame slots, in source
// order: a name is a local from its declaration or first assignment on.
type resolver struct {
	ip    *Interp
	slots map[string]int
	n     int
}

func (ip *Interp) resolve(l *frameLayout, params []ParamDecl, body []Stmt) {
	r := &resolver{ip: ip, slots: map[string]int{}}
	for _, p := range params {
		r.slots[p.Name] = r.n // a repeated name binds the last argument, as before
		r.n++
	}
	r.stmts(body)
	l.slots, l.gen = r.n, ip.gen
}

// declare returns name's slot, giving it a new one if it has none.
func (r *resolver) declare(name string) int {
	i, ok := r.slots[name]
	if !ok {
		i = r.n
		r.slots[name] = i
		r.n++
	}
	return i
}

func (r *resolver) stmts(ss []Stmt) {
	for _, s := range ss {
		switch s := s.(type) {
		case *LocalStmt:
			r.expr(s.Init)
			s.slot = r.declare(s.Name)
		case *AssignStmt:
			r.expr(s.RHS)
			if n, ok := s.LHS.(*NameExpr); ok {
				if _, global := r.ip.decls[n.Name]; !global {
					r.declare(n.Name) // an implicit local, or the local it names
				}
			}
			r.expr(s.LHS)
		case *IfStmt:
			r.expr(s.Cond)
			r.stmts(s.Then)
			r.stmts(s.Else)
		case *ForStmt:
			r.expr(s.Over)
			s.slot = r.declare(s.Var)
			if s.Var2 != "" {
				s.slot2 = r.declare(s.Var2)
			}
			r.stmts(s.Body)
		case *PrintStmt:
			r.exprs(s.Args)
		case *AddStmt:
			r.expr(s.Target)
		case *DeleteStmt:
			r.expr(s.Target)
		case *ReturnStmt:
			r.expr(s.Value)
		case *ExprStmt:
			r.expr(s.E)
		case *EventStmt:
			r.exprs(s.Args)
		}
	}
}

func (r *resolver) exprs(xs []Expr) {
	for _, x := range xs {
		r.expr(x)
	}
}

func (r *resolver) expr(x Expr) {
	switch x := x.(type) {
	case *NameExpr:
		x.slot = 0
		if i, ok := r.slots[x.Name]; ok {
			x.slot = i + 1
		}
	case *UnaryExpr:
		r.expr(x.E)
	case *BinExpr:
		r.expr(x.L)
		r.expr(x.R)
	case *FieldExpr:
		r.expr(x.Base)
	case *IndexExpr:
		r.expr(x.Base)
		r.exprs(x.Keys)
	case *CallExpr:
		r.exprs(x.Args)
	case *CtorExpr:
		for _, fe := range x.Fields {
			r.expr(fe.E)
		}
	}
}

// exec runs statements; returned reports an executed return.
func (ip *Interp) exec(f frame, stmts []Stmt) (returned bool, ret Val, err error) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *LocalStmt:
			var v Val
			if s.Init != nil {
				if v, err = ip.eval(f, s.Init); err != nil {
					return false, nil, err
				}
			} else if s.Type != nil {
				gd := &GlobalDecl{Name: s.Name, Type: s.Type}
				if v, err = ip.zeroValue(gd); err != nil {
					return false, nil, err
				}
			}
			f.put(s.slot, v)
		case *AssignStmt:
			if err = ip.assign(f, s.LHS, s.RHS); err != nil {
				return false, nil, err
			}
		case *IfStmt:
			cond, err := ip.eval(f, s.Cond)
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
			if r, rv, err := ip.exec(f, body); err != nil || r {
				return r, rv, err
			}
		case *ForStmt:
			if r, rv, err := ip.execFor(f, s); err != nil || r {
				return r, rv, err
			}
		case *PrintStmt:
			args, base, err := ip.evalList(f, s.Args)
			if err != nil {
				return false, nil, err
			}
			ip.buf = ip.buf[:0]
			for i, v := range args {
				if i > 0 {
					ip.buf = append(ip.buf, ", "...)
				}
				ip.buf = appendOr(ip.buf, v, "<unset>")
			}
			ip.pop(base)
			ip.buf = append(ip.buf, '\n')
			_, _ = ip.Out.Write(ip.buf) // print has no error path
		case *AddStmt:
			t, keys, base, err := ip.evalIndexTarget(f, s.Target)
			if err != nil {
				return false, nil, err
			}
			t.Put(ip.Now(), keys, nil)
			ip.pop(base)
		case *DeleteStmt:
			t, keys, base, err := ip.evalIndexTarget(f, s.Target)
			if err != nil {
				return false, nil, err
			}
			t.Delete(ip.Now(), keys)
			ip.pop(base)
		case *ReturnStmt:
			if s.Value == nil {
				return true, nil, nil
			}
			v, err := ip.eval(f, s.Value)
			return true, v, err
		case *ExprStmt:
			if _, err := ip.eval(f, s.E); err != nil {
				return false, nil, err
			}
		case *EventStmt:
			args, base, err := ip.evalList(f, s.Args)
			if err != nil {
				return false, nil, err
			}
			err = ip.dispatch(s.Name, ip.Events[s.Name], args)
			ip.pop(base)
			if err != nil {
				return false, nil, err
			}
		default:
			return false, nil, fmt.Errorf("bro: unhandled statement %T", s)
		}
	}
	return false, nil, nil
}

// execFor runs a loop; a return in its body leaves the enclosing call.
func (ip *Interp) execFor(f frame, s *ForStmt) (returned bool, ret Val, err error) {
	over, err := ip.eval(f, s.Over)
	if err != nil {
		return false, nil, err
	}
	switch c := over.(type) {
	case *TableVal:
		// Age out stale entries before snapshotting, so the loop body never
		// sees an index that a subsequent lookup would reject.
		c.expire(ip.Now())
		entries := make([]tableItem, 0, c.Len())
		c.each(s.Var2 != "", func(key []Val, yield Val) bool {
			entries = append(entries, tableItem{key: key, yield: yield})
			return true
		})
		for _, ent := range entries {
			key, yield := ent.key, ent.yield
			if len(key) == 1 {
				f.put(s.slot, key[0])
			} else {
				f.put(s.slot, &VectorVal{Elems: key})
			}
			if s.Var2 != "" {
				if len(key) == 2 && c.IsSet {
					f.put(s.slot, key[0])
					f.put(s.slot2, key[1])
				} else {
					f.put(s.slot2, yield)
				}
			}
			if r, rv, err := ip.exec(f, s.Body); err != nil || r {
				return r, rv, err
			}
		}
		return false, nil, nil
	case *VectorVal:
		for i := range c.Elems {
			f.put(s.slot, CountVal(i))
			if s.Var2 != "" {
				f.put(s.slot2, c.Elems[i])
			}
			if r, rv, err := ip.exec(f, s.Body); err != nil || r {
				return r, rv, err
			}
		}
		return false, nil, nil
	default:
		return false, nil, errVal("for", over)
	}
}

func (ip *Interp) assign(f frame, lhs Expr, rhsE Expr) error {
	rhs, err := ip.eval(f, rhsE)
	if err != nil {
		return err
	}
	switch l := lhs.(type) {
	case *NameExpr:
		if l.slot > 0 {
			f.put(l.slot-1, rhs)
		} else {
			ip.Globals[l.Name] = rhs
		}
		return nil
	case *FieldExpr:
		r, i, err := ip.evalField(f, l)
		if err != nil {
			return err
		}
		r.F[i] = rhs
		return nil
	case *IndexExpr:
		base, err := ip.eval(f, l.Base)
		if err != nil {
			return err
		}
		keys, sp, err := ip.evalList(f, l.Keys)
		if err != nil {
			return err
		}
		switch c := base.(type) {
		case *TableVal:
			c.Put(ip.Now(), keys, rhs)
		case *VectorVal:
			i, ok := keys[0].(CountVal)
			switch {
			case !ok:
				err = errVal("vector index", keys[0])
			case i > CountVal(len(c.Elems)+container.MaxGrow):
				err = vectorIndexError(i)
			default:
				for len(c.Elems) <= int(i) {
					c.Elems = append(c.Elems, nil)
				}
				c.Elems[i] = rhs
			}
		default:
			err = errVal("[]=", base)
		}
		ip.pop(sp)
		return err
	default:
		return fmt.Errorf("bro: invalid assignment target %T", lhs)
	}
}

// evalList evaluates xs onto the list stack and returns them there, with
// the stack's height before them. The list is borrowed: the caller pops
// back to base once its statement is done with it, and copies it if it
// keeps it. On an error the stack is already popped.
func (ip *Interp) evalList(f frame, xs []Expr) (list []Val, base int, err error) {
	base = len(ip.stack)
	for _, x := range xs {
		v, err := ip.eval(f, x)
		if err != nil {
			ip.pop(base)
			return nil, base, err
		}
		ip.stack = append(ip.stack, v)
	}
	return ip.stack[base:], base, nil
}

// pop drops the lists above base, and their values with them.
func (ip *Interp) pop(base int) {
	clear(ip.stack[base:])
	ip.stack = ip.stack[:base]
}

// evalIndexTarget evaluates an add or delete target: its table, and its
// index list borrowed as evalList's.
func (ip *Interp) evalIndexTarget(f frame, ie *IndexExpr) (*TableVal, []Val, int, error) {
	base, err := ip.eval(f, ie.Base)
	if err != nil {
		return nil, nil, 0, err
	}
	t, ok := base.(*TableVal)
	if !ok {
		return nil, nil, 0, errVal("add/delete", base)
	}
	keys, sp, err := ip.evalList(f, ie.Keys)
	return t, keys, sp, err
}

func (ip *Interp) eval(f frame, x Expr) (Val, error) {
	switch x := x.(type) {
	case *LitExpr:
		return x.V, nil
	case *NameExpr:
		if x.slot > 0 {
			if s := f[x.slot-1]; s.set {
				return s.v, nil
			}
		} else if v, ok := ip.Globals[x.Name]; ok {
			return v, nil
		}
		return nil, fmt.Errorf("bro: undefined identifier %q", x.Name)
	case *UnaryExpr:
		v, err := ip.eval(f, x.E)
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
		return ip.evalBin(f, x)
	case *FieldExpr:
		r, i, err := ip.evalField(f, x)
		if err != nil {
			return nil, err
		}
		return r.F[i], nil
	case *IndexExpr:
		base, err := ip.eval(f, x.Base)
		if err != nil {
			return nil, err
		}
		keys, sp, err := ip.evalList(f, x.Keys)
		if err != nil {
			return nil, err
		}
		var v Val
		switch c := base.(type) {
		case *TableVal:
			var ok bool
			if v, ok = c.Get(ip.Now(), keys); !ok {
				err = fmt.Errorf("bro: no such index: %s", KeyString(keys))
			}
		case *VectorVal:
			i, ok := keys[0].(CountVal)
			switch {
			case !ok:
				err = errVal("vector index", keys[0])
			case i >= CountVal(len(c.Elems)):
				err = vectorIndexError(i)
			default:
				v = c.Elems[i]
			}
		default:
			err = errVal("[]", base)
		}
		ip.pop(sp)
		return v, err
	case *CallExpr:
		return ip.evalCall(f, x)
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
		for i, fe := range x.Fields {
			v, err := ip.eval(f, fe.E)
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

// evalField evaluates a field expression's record and the field's index.
func (ip *Interp) evalField(f frame, x *FieldExpr) (*RecordVal, int, error) {
	base, err := ip.eval(f, x.Base)
	if err != nil {
		return nil, 0, err
	}
	r, ok := base.(*RecordVal)
	if !ok {
		return nil, 0, errVal("$", base)
	}
	i := x.site.index(r.T, x.Field)
	if i < 0 {
		return nil, 0, fmt.Errorf("bro: record %s has no field %q", r.T.Name, x.Field)
	}
	return r, i, nil
}

func (ip *Interp) evalCall(f frame, x *CallExpr) (Val, error) {
	// Record constructor?
	if rt, ok := ip.Records[x.Fn]; ok {
		r := NewRecord(rt)
		for _, a := range x.Args {
			ce, ok := a.(*CtorExpr)
			if !ok || len(ce.Fields) != 1 {
				return nil, fmt.Errorf("bro: %s(...) takes $field=value arguments", x.Fn)
			}
			fe := &ce.Fields[0]
			v, err := ip.eval(f, fe.E)
			if err != nil {
				return nil, err
			}
			i := fe.site.index(rt, fe.Name)
			if i < 0 {
				return nil, fmt.Errorf("bro: record %s has no field %q", rt.Name, fe.Name)
			}
			r.F[i] = v
		}
		return r, nil
	}
	if b, ok := builtins[x.Fn]; ok {
		args, base, err := ip.evalList(f, x.Args)
		if err != nil {
			return nil, err
		}
		v, err := b(ip, args)
		ip.pop(base)
		return v, err
	}
	if fd, ok := ip.Funcs[x.Fn]; ok {
		return ip.callExprs(f, fd, x.Args)
	}
	return nil, fmt.Errorf("bro: unknown function %q", x.Fn)
}

// builtins are the functions the interpreter provides. They shadow script
// functions of the same name, as in the compiled backend. args is borrowed
// (see evalList): a builtin that keeps it copies it.
var builtins = map[string]func(ip *Interp, args []Val) (Val, error){
	"vector":       func(_ *Interp, args []Val) (Val, error) { return &VectorVal{Elems: slices.Clone(args)}, nil },
	"network_time": func(ip *Interp, _ []Val) (Val, error) { return TimeVal(ip.Now()), nil },
	"fmt": func(ip *Interp, args []Val) (Val, error) {
		var err error
		if ip.buf, err = appendFmt(ip.buf[:0], args); err != nil {
			return nil, err
		}
		return StringVal(ip.buf), nil
	},
	"to_lower": func(_ *Interp, args []Val) (Val, error) {
		s, _ := args[0].(StringVal)
		return StringVal(strings.ToLower(string(s))), nil
	},
	"to_upper": func(_ *Interp, args []Val) (Val, error) {
		s, _ := args[0].(StringVal)
		return StringVal(strings.ToUpper(string(s))), nil
	},
	"cat": func(ip *Interp, args []Val) (Val, error) {
		ip.buf = ip.buf[:0]
		for _, a := range args {
			ip.buf = appendOr(ip.buf, a, "-") // unset renders as bro_cat renders it
		}
		return StringVal(ip.buf), nil
	},
	"Log::write": func(ip *Interp, args []Val) (Val, error) {
		if ip.LogWrite != nil {
			stream, _ := args[0].(StringVal)
			rec, ok := args[1].(*RecordVal)
			if !ok {
				return nil, fmt.Errorf("bro: Log::write needs a record")
			}
			ip.LogWrite(string(stream), rec)
		}
		return nil, nil
	},
}

// appendFmt appends what Bro's fmt() returns for args: the format
// args[0] with %s/%d/%x/%f each replaced by the next argument, %% by %.
func appendFmt(dst []byte, args []Val) ([]byte, error) {
	if len(args) == 0 {
		return dst, nil
	}
	f, ok := args[0].(StringVal)
	if !ok {
		return dst, errVal("fmt", args[0])
	}
	rest := args[1:]
	ai := 0
	s := string(f)
	for i := 0; i < len(s); i++ {
		if s[i] != '%' || i+1 >= len(s) {
			dst = append(dst, s[i])
			continue
		}
		i++
		switch s[i] {
		case '%':
			dst = append(dst, '%')
		default:
			if ai < len(rest) {
				dst = appendOr(dst, rest[ai], "-")
				ai++
			}
		}
	}
	return dst, nil
}

func (ip *Interp) evalBin(f frame, x *BinExpr) (Val, error) {
	if x.Op == "in" || x.Op == "!in" {
		return ip.evalIn(f, x)
	}
	// Short-circuit logic.
	if x.Op == "&&" || x.Op == "||" {
		l, err := ip.eval(f, x.L)
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
		r, err := ip.eval(f, x.R)
		if err != nil {
			return nil, err
		}
		rb, ok := r.(BoolVal)
		if !ok {
			return nil, errVal(x.Op, r)
		}
		return rb, nil
	}
	l, err := ip.eval(f, x.L)
	if err != nil {
		return nil, err
	}
	r, err := ip.eval(f, x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "==":
		return BoolVal(Equal(l, r)), nil
	case "!=":
		return BoolVal(!Equal(l, r)), nil
	}
	return numericBin(x.Op, l, r)
}

// evalIn evaluates `l in r` and `l !in r`: membership of the index list l
// in a table, or of the address l in a subnet. The index list goes on the
// list stack; a literal [a, b] is evaluated there without building its
// vector.
func (ip *Interp) evalIn(f frame, x *BinExpr) (Val, error) {
	base := len(ip.stack)
	lit, isLit := x.L.(*CallExpr)
	isLit = isLit && lit.Fn == "vector" && ip.Records[lit.Fn] == nil
	var l Val
	var err error
	if isLit {
		_, _, err = ip.evalList(f, lit.Args)
	} else {
		l, err = ip.eval(f, x.L)
	}
	if err != nil {
		return nil, err
	}
	r, err := ip.eval(f, x.R)
	if err != nil {
		ip.pop(base)
		return nil, err
	}
	var res bool
	switch c := r.(type) {
	case *TableVal:
		if lv, ok := l.(*VectorVal); ok {
			ip.stack = append(ip.stack, lv.Elems...)
		} else if !isLit {
			ip.stack = append(ip.stack, l)
		}
		res = c.Has(ip.Now(), ip.stack[base:])
		ip.pop(base)
	case SubnetVal:
		ip.pop(base)
		a, ok := l.(AddrVal)
		if !ok {
			if isLit {
				l = &VectorVal{}
			}
			return nil, errVal("in", l)
		}
		res = c.N.NetContains(a.A)
	default:
		ip.pop(base)
		return nil, errVal("in", r)
	}
	if x.Op == "!in" {
		res = !res
	}
	return BoolVal(res), nil
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
		return nil, fmt.Errorf("bro: invalid operands for %s: %s, %s", op, typeName(l), typeName(r))
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

// vectorIndexError is what both script backends raise for a vector index
// out of reach: a read past the end, or a write more than
// container.MaxGrow past it (the compiled backend's vector.get and
// vector.set raise it too).
func vectorIndexError(i CountVal) error {
	return &values.Exception{Name: "Hilti::IndexError", Msg: fmt.Sprintf("vector index %d", i)}
}
