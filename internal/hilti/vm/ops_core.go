// Core instructions: assignment, control flow, calls, exceptions, hooks,
// threading, debugging. These are HILTI's "Flow control" group plus the
// cross-cutting operations of Table 1.

package vm

import (
	"fmt"
	"strings"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/channel"
	"hilti/internal/rt/classifier"
	"hilti/internal/rt/container"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

func execJump(ex *Exec, fr *Frame, in *Instr) int { return in.t1 }

func execReturnVoid(ex *Exec, fr *Frame, in *Instr) int {
	fr.Ret = values.Nil
	return pcDone
}

func execReturnResult(ex *Exec, fr *Frame, in *Instr) int {
	fr.Ret = ex.get(fr, &in.srcs[0])
	return pcDone
}

// execReturnPair returns a two-element constructor unbuilt: the return
// reads it from the returning frame as the caller needs it — as a tuple, or
// into the two registers of a split call (transfer).
func execReturnPair(ex *Exec, fr *Frame, in *Instr) int {
	ex.pairRet = &in.srcs[0]
	return pcPair
}

// returnsPair reports whether every return fn can execute is
// execReturnPair's, so a caller may take its result in two registers. The
// implicit return.void lowering appends is no exception when nothing
// reaches it.
func returnsPair(fn *CompiledFunc) bool {
	var reach []bool
	for pc := range fn.Code {
		in := &fn.Code[pc]
		if rowOf(in.opID).ctl != ctlReturn || isPairReturn(in) {
			continue
		}
		if reach == nil {
			reach = reachable(fn, nil)
		}
		if reach[pc] {
			return false
		}
	}
	return true
}

func isPairReturn(in *Instr) bool {
	return rowOf(in.opID) == opReturnResult && in.srcs[0].kind == srcCtor && len(in.srcs[0].subs) == 2
}

func execIfElse(ex *Exec, fr *Frame, in *Instr) int {
	if values.IsTruthy(ex.get(fr, &in.srcs[0])) {
		return in.t1
	}
	return in.t2
}

func execAssign(ex *Exec, fr *Frame, in *Instr) int {
	ex.put(fr, in.d, ex.get(fr, &in.srcs[0]))
	return in.t1
}

// callTarget is the resolved (or resolvable) callee of a call instruction.
type callTarget struct {
	fn      *CompiledFunc // non-nil when statically resolved
	builtin HostFunc      // non-nil for builtin runtime functions
	name    string        // dynamic fallback (host-registered functions)
}

// execCallFn calls a compiled function: the dispatch loop enters it.
func execCallFn(ex *Exec, fr *Frame, in *Instr) int { return pcCall }

// execCall calls a host or builtin function in place.
func execCall(ex *Exec, fr *Frame, in *Instr) int {
	ct := in.aux.(*callTarget)
	args := ex.operands(fr, in.srcs)
	var ret values.Value
	var err error
	if ct.builtin != nil {
		ret, err = ct.builtin(ex, args)
	} else if hf, ok := ex.HostFns[ct.name]; ok {
		ret, err = hf(ex, args)
	} else {
		err = fmt.Errorf("call to unknown function %q", ct.name)
	}
	if err != nil {
		return ex.raiseErr(err)
	}
	ex.put(fr, in.d, ret)
	return in.t1
}

func execSwitch(ex *Exec, fr *Frame, in *Instr) int {
	v := ex.get(fr, &in.srcs[0])
	cases := in.aux.(*switchTable)
	for i, cv := range cases.vals {
		if values.Equal(v, cv) {
			return cases.targets[i]
		}
	}
	return in.t1 // default label
}

type switchTable struct {
	vals    []values.Value
	targets []int
}

var coreOps = []opRow{
	{name: "assign", arity: -1, exec: execAssign},

	// The control ops lower with a zero destination, which Disasm prints "_".
	{name: "jump", ctl: ctlJump, lower: func(c *fnCompiler, in *ast.Instr) error {
		if len(in.Ops) != 1 || in.Ops[0].Kind != ast.Label {
			return fmt.Errorf("jump needs a label")
		}
		pc := c.emit(Instr{exec: execJump})
		c.pend = append(c.pend, pendingJump{pc: pc, which: 1, label: in.Ops[0].Name})
		return nil
	}},

	{name: "if.else", ctl: ctlBranch, lower: func(c *fnCompiler, in *ast.Instr) error {
		if len(in.Ops) != 3 {
			return fmt.Errorf("if.else needs condition and two labels")
		}
		s, err := c.srcOf(in.Ops[0])
		if err != nil {
			return err
		}
		pc := c.emit(Instr{exec: execIfElse, srcs: []src{s}})
		c.pend = append(c.pend,
			pendingJump{pc: pc, which: 1, label: in.Ops[1].Name},
			pendingJump{pc: pc, which: 2, label: in.Ops[2].Name})
		return nil
	}},

	{name: "return.void", ctl: ctlReturn, lower: func(c *fnCompiler, in *ast.Instr) error {
		c.emit(Instr{exec: execReturnVoid})
		return nil
	}},

	{name: "return.result", ctl: ctlReturn, lower: func(c *fnCompiler, in *ast.Instr) error {
		s, err := c.srcOf(in.Ops[0])
		if err != nil {
			return err
		}
		exec := execReturnResult
		if s.kind == srcCtor && len(s.subs) == 2 {
			exec = execReturnPair
		}
		c.emit(Instr{exec: exec, srcs: []src{s}})
		return nil
	}},

	{name: "call", flags: opReenters, lower: func(c *fnCompiler, in *ast.Instr) error {
		if len(in.Ops) == 0 || in.Ops[0].Kind != ast.FuncOp {
			return fmt.Errorf("call needs a function operand")
		}
		name := in.Ops[0].Name
		srcs, err := c.srcsOf(in.Ops[1:])
		if err != nil {
			return err
		}
		d, err := c.dstOf(in.Target)
		if err != nil {
			return err
		}
		ct := c.resolveCall(name)
		exec := execCall
		if ct.fn != nil {
			exec = execCallFn
		}
		c.emit(Instr{exec: exec, d: d, srcs: srcs, aux: ct})
		return nil
	}},

	{name: "switch", ctl: ctlSwitch, lower: func(c *fnCompiler, in *ast.Instr) error {
		// switch <value> <default-label> (v1, l1) (v2, l2) ...
		if len(in.Ops) < 2 {
			return fmt.Errorf("switch needs value and default label")
		}
		s, err := c.srcOf(in.Ops[0])
		if err != nil {
			return err
		}
		tbl := &switchTable{}
		pc := c.emit(Instr{exec: execSwitch, srcs: []src{s}, aux: tbl})
		c.pend = append(c.pend, pendingJump{pc: pc, which: 1, label: in.Ops[1].Name})
		for _, cse := range in.Ops[2:] {
			if cse.Kind != ast.CtorOp || len(cse.Elems) != 2 ||
				cse.Elems[0].Kind != ast.Const || cse.Elems[1].Kind != ast.Label {
				return fmt.Errorf("switch case must be (const, label)")
			}
			tbl.vals = append(tbl.vals, cse.Elems[0].Val)
			tbl.targets = append(tbl.targets, -1)
			c.pendSwitch(tbl, len(tbl.targets)-1, cse.Elems[1].Name)
		}
		return nil
	}},

	// yield has no effect: a call gives way to its host only where it would
	// block.
	{name: "yield", lower: func(c *fnCompiler, in *ast.Instr) error { return nil }},
	{name: "nop", lower: func(c *fnCompiler, in *ast.Instr) error { return nil }},

	{name: "try.begin", lower: func(c *fnCompiler, in *ast.Instr) error {
		var excReg int32 = -1
		if !in.Target.IsZero() {
			d, err := c.dstOf(in.Target)
			if err != nil {
				return err
			}
			if d.kind != srcReg {
				return fmt.Errorf("catch variable must be a local")
			}
			excReg = d.idx
		}
		excName := ""
		if len(in.Ops) == 1 && in.Ops[0].Kind == ast.FieldOp {
			excName = in.Ops[0].Name
		}
		c.tryStack = append(c.tryStack, openTry{
			start:      len(c.out.Code),
			catchLabel: in.Aux,
			excReg:     excReg,
			excName:    excName,
		})
		return nil
	}},

	{name: "try.end", lower: func(c *fnCompiler, in *ast.Instr) error {
		if len(c.tryStack) == 0 {
			return fmt.Errorf("try.end without try.begin")
		}
		ot := c.tryStack[len(c.tryStack)-1]
		c.tryStack = c.tryStack[:len(c.tryStack)-1]
		excReg := ot.excReg
		if excReg < 0 {
			// Allocate a hidden register for the exception value.
			excReg = int32(c.out.NRegs)
			c.out.NRegs++
		}
		c.pendHandlers = append(c.pendHandlers, pendingHandler{
			h:     handler{start: ot.start, end: len(c.out.Code), excReg: excReg, excName: ot.excName},
			label: ot.catchLabel,
		})
		return nil
	}},

	{name: "exception.throw", flags: opRetains, arity: -1, fn: func(ex *Exec, args []values.Value) (values.Value, error) {
		name := "Hilti::Exception"
		msg := ""
		switch len(args) {
		case 1:
			if e := args[0].AsException(); e != nil {
				return values.Nil, e
			}
			msg = values.Format(args[0])
		case 2:
			// exception.throw <qualified-name> <message>
			name = values.Format(args[0])
			msg = values.Format(args[1])
		}
		return values.Nil, &values.Exception{Name: name, Msg: msg}
	}},

	{name: "hook.run", flags: opReenters, lower: func(c *fnCompiler, in *ast.Instr) error {
		if len(in.Ops) == 0 || in.Ops[0].Kind != ast.FuncOp {
			return fmt.Errorf("hook.run needs a hook name")
		}
		name := in.Ops[0].Name
		srcs, err := c.srcsOf(in.Ops[1:])
		if err != nil {
			return err
		}
		c.emit(Instr{exec: execHookRun, srcs: srcs,
			aux: &hookTarget{name: name, bodies: c.lk.prog.HookBodies[name]}})
		return nil
	}},

	{name: "thread.schedule", flags: opRetains, lower: func(c *fnCompiler, in *ast.Instr) error {
		// thread.schedule <func> <args-tuple> <vid>
		if len(in.Ops) != 3 || in.Ops[0].Kind != ast.FuncOp {
			return fmt.Errorf("thread.schedule needs func, args tuple, vid")
		}
		argsSrc, err := c.srcOf(in.Ops[1])
		if err != nil {
			return err
		}
		vidSrc, err := c.srcOf(in.Ops[2])
		if err != nil {
			return err
		}
		name := in.Ops[0].Name
		c.emit(Instr{exec: execThreadSchedule, srcs: []src{argsSrc, vidSrc}, aux: name})
		return nil
	}},

	{name: "debug.msg", arity: -1, fn: func(ex *Exec, args []values.Value) (values.Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = values.Format(a)
		}
		fmt.Fprintf(ex.Out, "[debug] %s\n", strings.Join(parts, " "))
		return values.Nil, nil
	}},
}

// hookTarget is a hook.run's hook, resolved at lowering: the HILTI bodies
// are merged and ordered before any function is lowered.
type hookTarget struct {
	name   string
	bodies []*CompiledFunc
}

// execHookRun gathers the hook's arguments into the frame's scratch, where
// they stay while the dispatch loop runs the HILTI bodies in turn (pcHook,
// transfer), then the host-registered ones.
func execHookRun(ex *Exec, fr *Frame, in *Instr) int {
	ht := in.aux.(*hookTarget)
	args := ex.operands(fr, in.srcs)
	if len(ht.bodies) > 0 {
		return pcHook
	}
	if ex.Hooks != nil {
		ex.Hooks.Run(ht.name, args)
	}
	return in.t1
}

func execThreadSchedule(ex *Exec, fr *Frame, in *Instr) int {
	if ex.Sched == nil {
		return ex.raise("Hilti::NoThreading", "no scheduler attached")
	}
	argsV := ex.get(fr, &in.srcs[0])
	vid := ex.get(fr, &in.srcs[1]).AsUint()
	name := in.aux.(string)
	var args []values.Value
	if t := argsV.AsTuple(); t != nil {
		args = t.Elems
	}
	err := ScheduleCall(ex.Sched, ex.Prog, vid, name, args...)
	if err != nil {
		return ex.raiseErr(err)
	}
	return in.t1
}

// pendSwitch defers patching of one switch case target.
func (c *fnCompiler) pendSwitch(tbl *switchTable, idx int, label string) {
	c.switchPatches = append(c.switchPatches, switchPatch{tbl: tbl, idx: idx, label: label})
}

type switchPatch struct {
	tbl   *switchTable
	idx   int
	label string
}

// resolveCall resolves a callee name: compiled functions (qualified or
// not), builtins, then dynamic host lookup at call time.
func (c *fnCompiler) resolveCall(name string) *callTarget {
	for _, cand := range []string{c.mod.Name + "::" + name, name} {
		if fn, ok := c.lk.prog.Funcs[cand]; ok {
			return &callTarget{fn: fn}
		}
	}
	if bf, ok := c.lk.prog.Builtins[name]; ok {
		return &callTarget{builtin: bf}
	}
	return &callTarget{name: name}
}

// newValueOfType instantiates a heap value for `new T` and for automatic
// global initialization; a vector gets room for n elements.
func newValueOfType(ex *Exec, t *types.Type, n int) (values.Value, error) {
	u := t.Deref()
	switch u.Kind {
	case types.List:
		return values.Ref(values.KindList, container.NewList()), nil
	case types.Vector:
		return values.Ref(values.KindVector, container.NewVectorSized(values.Nil, n)), nil
	case types.Set:
		return values.Ref(values.KindSet, container.NewSet()), nil
	case types.Map:
		return values.Ref(values.KindMap, container.NewMap()), nil
	case types.Channel:
		return values.Ref(values.KindChannel, channel.New(0)), nil
	case types.Classifier:
		n := 1
		if len(u.Params) > 0 && u.Params[0].Deref().Kind == types.Struct && u.Params[0].Deref().StructDef != nil {
			n = len(u.Params[0].Deref().StructDef.Fields)
		} else if len(u.Params) > 0 && u.Params[0].Deref().Kind == types.Tuple {
			n = len(u.Params[0].Deref().Params)
		}
		return values.Ref(values.KindClassifier, classifier.New(n)), nil
	case types.Struct:
		if u.StructDef == nil {
			return values.Nil, fmt.Errorf("new: struct type %s has no definition", u)
		}
		return values.StructVal(values.NewStruct(u.StructDef.Runtime())), nil
	case types.Bytes:
		return values.BytesVal(hbytes.NewWithTail()), nil
	case types.RegExp:
		return values.Nil, fmt.Errorf("new regexp requires patterns; use regexp.compile")
	case types.MatchState:
		return values.Nil, fmt.Errorf("match_state is created by regexp.begin")
	case types.TimerMgr:
		return values.Ref(values.KindTimerMgr, timer.NewMgr()), nil
	default:
		// Scalars: the zero value of the kind.
		return zeroOf(u), nil
	}
}

func zeroOf(t *types.Type) values.Value {
	switch t.Kind {
	case types.Bool:
		return values.Bool(false)
	case types.Int:
		return values.Int(0)
	case types.Double:
		return values.Double(0)
	case types.String:
		return values.String("")
	case types.Time:
		return values.TimeVal(0)
	case types.Interval:
		return values.IntervalVal(0)
	default:
		return values.Nil
	}
}
