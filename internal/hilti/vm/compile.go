// Lowering and linking: AST modules -> linked Program. See the package
// comment for how this substitutes the paper's LLVM pipeline.

package vm

import (
	"fmt"
	"sort"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/values"
)

// srcCtor marks a constructor operand built from sub-sources at each read.
const srcCtor uint8 = 4

// Options controls code generation.
type Options struct {
	// OptLevel selects the post-lowering optimizer level: 0 disables it,
	// 1 runs the full pass pipeline (see opt.go).
	OptLevel int
}

// Link merges the given modules into one executable Program at the
// package-default optimization level (see SetDefaultOptLevel).
func Link(modules ...*ast.Module) (*Program, error) {
	return LinkWith(Options{OptLevel: DefaultOptLevel()}, modules...)
}

// LinkWith is Link with explicit code-generation options: globals from
// all units are laid out into a single thread-local array, hook bodies are
// merged across units, cross-module calls are resolved, and every function
// body is lowered to linear code. This is the paper's custom linker stage
// plus code generation.
func LinkWith(opts Options, modules ...*ast.Module) (*Program, error) {
	lk := &linker{
		prog: &Program{
			Funcs:      map[string]*CompiledFunc{},
			HookBodies: map[string][]*CompiledFunc{},
			Builtins:   builtins(),
			hostSlots:  map[string]int{},
		},
		opt:         opts.OptLevel,
		globals:     map[string]int32{},
		globalTypes: map[string]*types.Type{},
		namedTypes:  map[string]*types.Type{},
		consts:      map[string]ast.Operand{},
	}

	// Pass 1: declare globals, types, consts, and function shells.
	for _, m := range modules {
		for name, t := range m.Types {
			lk.namedTypes[name] = t
			lk.namedTypes[m.Name+"::"+name] = t
		}
		for name, c := range m.Consts {
			lk.consts[name] = c
			lk.consts[m.Name+"::"+name] = c
		}
		for _, g := range m.Globals {
			slot := int32(lk.prog.GlobalCount)
			lk.prog.GlobalCount++
			lk.globals[m.Name+"::"+g.Name] = slot
			lk.globalTypes[m.Name+"::"+g.Name] = g.Type
			if _, dup := lk.globals[g.Name]; !dup {
				lk.globals[g.Name] = slot
				lk.globalTypes[g.Name] = g.Type
			}
			lk.addGlobalInit(slot, g)
		}
		for _, f := range m.Functions {
			cf := &CompiledFunc{
				Name:        m.Name + "::" + f.Name,
				NParams:     len(f.Params),
				paramsCarry: paramsCarry(f.Params),
				Result:      f.Result,
				IsHook:      f.IsHook,
				HookPrio:    f.HookPrio,
				ID:          len(lk.units), // dense per-Program function id
			}
			if f.IsHook {
				lk.prog.HookBodies[f.Name] = append(lk.prog.HookBodies[f.Name], cf)
			} else {
				lk.prog.Funcs[cf.Name] = cf
				if _, dup := lk.prog.Funcs[f.Name]; !dup {
					lk.prog.Funcs[f.Name] = cf
				}
			}
			lk.units = append(lk.units, unit{mod: m, fn: f, out: cf})
		}
	}
	// Hook bodies: priority order (descending), stable by registration.
	for _, bodies := range lk.prog.HookBodies {
		sort.SliceStable(bodies, func(i, j int) bool { return bodies[i].HookPrio > bodies[j].HookPrio })
	}

	// Pass 2: lower bodies.
	for _, u := range lk.units {
		fc := &fnCompiler{lk: lk, mod: u.mod, fn: u.fn, out: u.out}
		if err := fc.compile(); err != nil {
			return nil, fmt.Errorf("%s::%s: %w", u.mod.Name, u.fn.Name, err)
		}
	}
	// Pass 3: optimize (opt.go).
	if opts.OptLevel > 0 {
		for _, u := range lk.units {
			Optimize(u.out, opts.OptLevel)
		}
	}
	return lk.prog, nil
}

// unit pairs an AST function with its compiled shell; hook bodies share a
// name, so lowering must not go through the (unique-keyed) function map.
type unit struct {
	mod *ast.Module
	fn  *ast.Function
	out *CompiledFunc
}

type linker struct {
	prog        *Program
	opt         int // Options.OptLevel
	globals     map[string]int32
	globalTypes map[string]*types.Type
	namedTypes  map[string]*types.Type
	consts      map[string]ast.Operand
	units       []unit
}

// paramsCarry reports whether a declared parameter type can carry an
// object a recycling scope took out of the call (carries).
func paramsCarry(params []ast.Param) bool {
	for _, p := range params {
		if carries(p.Type) {
			return true
		}
	}
	return false
}

// addGlobalInit schedules per-Exec initialization for a global: explicit
// initializer constant, or automatic instantiation for container/heap
// types (the common `global ref<set<addr>> hosts = set<addr>()` pattern).
func (lk *linker) addGlobalInit(slot int32, g *ast.Variable) {
	t := g.Type
	if !g.Init.IsZero() && g.Init.Kind == ast.Const {
		v := g.Init.Val
		lk.prog.globalInits = append(lk.prog.globalInits, globalInit{
			slot: slot,
			mk:   func(*Exec) (values.Value, error) { return v, nil },
		})
		return
	}
	lk.prog.globalInits = append(lk.prog.globalInits, globalInit{
		slot: slot,
		mk:   func(ex *Exec) (values.Value, error) { return newValueOfType(ex, t, 0) },
	})
}

type pendingJump struct {
	pc    int
	which int // 1 or 2
	label string
}

type openTry struct {
	start      int
	catchLabel string
	excReg     int32
	excName    string
}

type fnCompiler struct {
	lk            *linker
	mod           *ast.Module
	fn            *ast.Function
	out           *CompiledFunc
	regs          map[string]int32
	rty           map[string]*types.Type
	lbls          map[string]int
	pend          []pendingJump
	pendHandlers  []pendingHandler
	switchPatches []switchPatch
	tryStack      []openTry
	cur           *opRow // op currently being lowered; stamped onto emitted instrs
}

type pendingHandler struct {
	h     handler
	label string
}

func (c *fnCompiler) compile() error {
	c.regs = map[string]int32{}
	c.rty = map[string]*types.Type{}
	c.lbls = map[string]int{}
	for _, p := range c.fn.Params {
		c.regs[p.Name] = int32(len(c.regs))
		c.rty[p.Name] = p.Type
	}
	for _, l := range c.fn.Locals {
		if _, dup := c.regs[l.Name]; dup {
			return fmt.Errorf("duplicate local %q", l.Name)
		}
		c.regs[l.Name] = int32(len(c.regs))
		c.rty[l.Name] = l.Type
	}
	c.out.NRegs = len(c.regs)

	// Sized for one instruction per AST instruction, a fallthrough jump per
	// block and the implicit return — what lowering mostly emits — so the
	// code array is not regrown as it fills (link time is engine set-up).
	size := len(c.fn.Blocks) + 1
	for _, b := range c.fn.Blocks {
		size += len(b.Instrs)
	}
	c.out.Code = make([]Instr, 0, size)
	for bi, b := range c.fn.Blocks {
		c.lbls[b.Name] = len(c.out.Code)
		for _, in := range b.Instrs {
			if err := c.lower(in); err != nil {
				return fmt.Errorf("in %q: %w", in.String(), err)
			}
		}
		// Implicit fallthrough to the next block when the block does not
		// end in a terminator.
		if bi+1 < len(c.fn.Blocks) && !endsInTerminator(b) {
			c.cur = opJump
			pc := c.emit(Instr{exec: execJump})
			c.pend = append(c.pend, pendingJump{pc: pc, which: 1, label: c.fn.Blocks[bi+1].Name})
		}
	}
	// Implicit void return at the end.
	c.cur = opReturnVoid
	c.emit(Instr{exec: execReturnVoid})

	if len(c.tryStack) != 0 {
		return fmt.Errorf("unclosed try block")
	}
	for _, pj := range c.pend {
		target, ok := c.lbls[pj.label]
		if !ok {
			return fmt.Errorf("undefined label %q", pj.label)
		}
		if pj.which == 1 {
			c.out.Code[pj.pc].t1 = target
		} else {
			c.out.Code[pj.pc].t2 = target
		}
	}
	for _, ph := range c.pendHandlers {
		target, ok := c.lbls[ph.label]
		if !ok {
			return fmt.Errorf("undefined catch label %q", ph.label)
		}
		h := ph.h
		h.target = target
		c.out.Handlers = append(c.out.Handlers, h)
	}
	for _, sp := range c.switchPatches {
		target, ok := c.lbls[sp.label]
		if !ok {
			return fmt.Errorf("undefined switch label %q", sp.label)
		}
		sp.tbl.targets[sp.idx] = target
	}
	return nil
}

func endsInTerminator(b *ast.Block) bool {
	if len(b.Instrs) == 0 {
		return false
	}
	switch b.Instrs[len(b.Instrs)-1].Op {
	case "jump", "if.else", "return.result", "return.void", "switch", "exception.throw", "hook.stop":
		return true
	}
	return false
}

func (c *fnCompiler) emit(in Instr) int {
	pc := len(c.out.Code)
	in.t1, in.opID = pc+1, idOf(c.cur) // default next
	if c.cur.twin != nil {
		in.t2 = in.t1 // a compare branches to its fallthrough until fused
	}
	c.out.Code = append(c.out.Code, in)
	return pc
}

// srcOf compiles one operand into a source.
func (c *fnCompiler) srcOf(o ast.Operand) (src, error) {
	switch o.Kind {
	case ast.Const:
		return src{kind: srcConst, val: o.Val}, nil
	case ast.Var:
		if r, ok := c.regs[o.Name]; ok {
			return src{kind: srcReg, idx: r}, nil
		}
		if g, ok := c.lk.globals[c.mod.Name+"::"+o.Name]; ok {
			return src{kind: srcGlobal, idx: g}, nil
		}
		if g, ok := c.lk.globals[o.Name]; ok {
			return src{kind: srcGlobal, idx: g}, nil
		}
		if cst, ok := c.lk.consts[o.Name]; ok && cst.Kind == ast.Const {
			return src{kind: srcConst, val: cst.Val}, nil
		}
		return src{}, fmt.Errorf("undefined variable %q", o.Name)
	case ast.CtorOp:
		subs := make([]src, len(o.Elems))
		allConst := true
		for i, e := range o.Elems {
			s, err := c.srcOf(e)
			if err != nil {
				return src{}, err
			}
			subs[i] = s
			if s.kind != srcConst {
				allConst = false
			}
		}
		if allConst {
			t := values.NewTuple(len(subs))
			for i, s := range subs {
				t.Elems[i] = s.val
			}
			return src{kind: srcConst, val: values.Ref(values.KindTuple, t)}, nil
		}
		return src{kind: srcCtor, subs: subs}, nil
	case ast.FuncOp:
		return src{kind: srcConst, val: values.String(o.Name)}, nil
	case ast.FieldOp:
		return src{kind: srcConst, val: values.String(o.Name)}, nil
	default:
		return src{}, fmt.Errorf("operand %v not usable as value", o)
	}
}

// typeOfOperand reports the static type of an operand when known.
func (c *fnCompiler) typeOfOperand(o ast.Operand) *types.Type {
	switch o.Kind {
	case ast.Const:
		return o.Type
	case ast.Var:
		if t, ok := c.rty[o.Name]; ok {
			return t
		}
		if t, ok := c.lk.globalTypes[c.mod.Name+"::"+o.Name]; ok {
			return t
		}
		if t, ok := c.lk.globalTypes[o.Name]; ok {
			return t
		}
	case ast.TypeOp:
		return o.Type
	}
	return nil
}

// dstOf compiles the target operand.
func (c *fnCompiler) dstOf(o ast.Operand) (dst, error) {
	if o.IsZero() {
		return dst{kind: srcNone}, nil
	}
	if o.Kind != ast.Var {
		return dst{}, fmt.Errorf("target must be a variable, got %v", o)
	}
	if r, ok := c.regs[o.Name]; ok {
		return dst{kind: srcReg, idx: r}, nil
	}
	if g, ok := c.lk.globals[c.mod.Name+"::"+o.Name]; ok {
		return dst{kind: srcGlobal, idx: g}, nil
	}
	if g, ok := c.lk.globals[o.Name]; ok {
		return dst{kind: srcGlobal, idx: g}, nil
	}
	return dst{}, fmt.Errorf("undefined target %q", o.Name)
}

// srcsOf compiles a range of operands.
func (c *fnCompiler) srcsOf(ops []ast.Operand) ([]src, error) {
	out := make([]src, len(ops))
	for i, o := range ops {
		s, err := c.srcOf(o)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// lower dispatches one AST instruction to its row.
func (c *fnCompiler) lower(in *ast.Instr) error {
	r := opNamed(in.Op)
	if r == nil || !r.lowerable() {
		return fmt.Errorf("unknown instruction %q", in.Op)
	}
	c.cur = r
	if r.lower != nil {
		return r.lower(c, in)
	}
	return c.lowerRow(r, in)
}

// lowerRow compiles `target = op(srcs...)` for a row without its own
// lowering.
func (c *fnCompiler) lowerRow(r *opRow, in *ast.Instr) error {
	if r.arity >= 0 && len(in.Ops) != r.arity {
		return fmt.Errorf("%s expects %d operands, got %d", in.Op, r.arity, len(in.Ops))
	}
	srcs, err := c.srcsOf(in.Ops)
	if err != nil {
		return err
	}
	d, err := c.dstOf(in.Target)
	if err != nil {
		return err
	}
	c.emit(Instr{exec: r.shapeExec(srcs, d), d: d, srcs: srcs, aux: r.aux})
	return nil
}

// simpleFn is the semantic definition of a variadic instruction, and the
// slice form defineOp derives from a positional body: operands in, result
// or error out. args is the executing frame's operand scratch
// (Exec.operands) and must not be retained.
type simpleFn func(ex *Exec, args []values.Value) (values.Value, error)

// The derived executors read a positional body's operands with Exec.get,
// straight into its parameters; only a variadic body gathers them
// (execSimple). store ends them: raise, or store the result and go on.
func (ex *Exec) store(fr *Frame, in *Instr, v values.Value, err error) int {
	if err != nil {
		return ex.raiseErr(err)
	}
	ex.put(fr, in.d, v)
	return in.t1
}

// storeCmp is store for a compare: it branches on the stored boolean.
func (ex *Exec) storeCmp(fr *Frame, in *Instr, v values.Value, err error) int {
	if err != nil {
		return ex.raiseErr(err)
	}
	ex.put(fr, in.d, v)
	return in.branch(values.IsTruthy(v))
}

func exec0(ex *Exec, fr *Frame, in *Instr) int {
	v, err := in.aux.(body0)(ex)
	return ex.store(fr, in, v, err)
}

func exec1(ex *Exec, fr *Frame, in *Instr) int {
	v, err := in.aux.(body1)(ex, ex.get(fr, &in.srcs[0]))
	return ex.store(fr, in, v, err)
}

func exec2(ex *Exec, fr *Frame, in *Instr) int {
	v, err := in.aux.(body2)(ex, ex.get(fr, &in.srcs[0]), ex.get(fr, &in.srcs[1]))
	return ex.store(fr, in, v, err)
}

func exec3(ex *Exec, fr *Frame, in *Instr) int {
	v, err := in.aux.(body3)(ex, ex.get(fr, &in.srcs[0]), ex.get(fr, &in.srcs[1]), ex.get(fr, &in.srcs[2]))
	return ex.store(fr, in, v, err)
}

func exec1Cmp(ex *Exec, fr *Frame, in *Instr) int {
	v, err := in.aux.(body1)(ex, ex.get(fr, &in.srcs[0]))
	return ex.storeCmp(fr, in, v, err)
}

func exec2Cmp(ex *Exec, fr *Frame, in *Instr) int {
	v, err := in.aux.(body2)(ex, ex.get(fr, &in.srcs[0]), ex.get(fr, &in.srcs[1]))
	return ex.storeCmp(fr, in, v, err)
}

func execSimple(ex *Exec, fr *Frame, in *Instr) int {
	v, err := in.aux.(simpleFn)(ex, ex.operands(fr, in.srcs))
	return ex.store(fr, in, v, err)
}

// getCtor materializes a constructor source.
func (ex *Exec) getCtor(fr *Frame, s *src) values.Value {
	t := values.NewTuple(len(s.subs))
	for i := range s.subs {
		t.Elems[i] = ex.get(fr, &s.subs[i])
	}
	return values.Ref(values.KindTuple, t)
}

// ctorKey encodes a tuple-constructor operand directly into the Exec's
// scratch buffer in values.AppendKey's canonical form, skipping the tuple
// materialization getCtor would do. Container lookups feed the result to
// the *Keyed container methods; ok=false means some element is unhashable
// and the caller must fall back to the boxed path.
func (ex *Exec) ctorKey(fr *Frame, s *src) (k []byte, ok bool) {
	b := append(ex.keyBuf[:0], byte(values.KindTuple), byte(len(s.subs)))
	for i := range s.subs {
		if b, ok = values.AppendKey(b, ex.get(fr, &s.subs[i])); !ok {
			ex.keyBuf = b[:0]
			return nil, false
		}
	}
	ex.keyBuf = b
	return b, true
}

// srcKey encodes any operand as a container key into the Exec's scratch
// buffer, using the ctor fast path when possible.
func (ex *Exec) srcKey(fr *Frame, s *src) (k []byte, ok bool) {
	if s.kind == srcCtor {
		return ex.ctorKey(fr, s)
	}
	b, ok := values.AppendKey(ex.keyBuf[:0], ex.get(fr, s))
	if !ok {
		ex.keyBuf = b[:0]
		return nil, false
	}
	ex.keyBuf = b
	return b, true
}
