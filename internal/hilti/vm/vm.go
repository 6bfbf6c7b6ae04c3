// Package vm implements HILTI's compilation and execution backend: it
// lowers AST modules into linear register code and executes it on a
// threaded-code engine.
//
// The paper's prototype compiles HILTI into LLVM bitcode and then native
// machine code (§5). Go has no workable LLVM binding, so this backend
// substitutes the same pipeline with a different final stage: the "linker"
// (link.go) merges compilation units — laying out thread-local globals into
// a per-virtual-thread array and merging hook bodies across units, exactly
// the two jobs the paper gives its custom LLVM-level linker — and compile.go
// lowers every function into a flat instruction array whose elements carry
// pre-resolved register indices and a direct handler function pointer.
// Execution walks that array, calling into the runtime library (internal/rt)
// for the complex data types, which mirrors the paper's generated-code /
// C-runtime split.
//
// Other paper features reproduced here: explicit exception propagation with
// per-function handler tables (§5 notes HILTI "propagates exceptions up the
// stack with explicit return value checks"); a custom calling convention
// passing a per-thread context (the Exec) into every call; and transparent
// suspension — any runtime operation that would block on missing input
// yields the enclosing fiber and retries on resume, which is what makes
// generated parsers incremental without any parser-side state machine.
package vm

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"hilti/internal/hilti/types"
	"hilti/internal/rt/fiber"
	"hilti/internal/rt/filemgr"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/hook"
	"hilti/internal/rt/profiler"
	"hilti/internal/rt/threads"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

// Sentinel program counters returned by instruction handlers.
const (
	pcDone  = -1 // function returned
	pcRaise = -2 // exception pending in Exec.Exc
)

// src is a pre-resolved operand source.
type src struct {
	kind uint8 // srcConst, srcReg, srcGlobal, srcCtor
	idx  int32
	val  values.Value
	subs []src // srcCtor: tuple elements
}

const (
	srcConst uint8 = iota
	srcReg
	srcGlobal
	srcNone
)

// dst is a pre-resolved assignment destination.
type dst struct {
	kind uint8 // srcReg, srcGlobal, srcNone
	idx  int32
}

// Instr is one lowered instruction.
type Instr struct {
	exec func(ex *Exec, fr *Frame, in *Instr) int
	op   string // source operation name; "+br"-suffixed for fused compare-and-branch
	opID uint16 // interned op (see opid.go), stamped at emit/rewrite time
	d    dst
	// d2 is the second destination register of a two-result instruction
	// (execTwo) that splitTuples in opt.go has split, 0 otherwise. It
	// is always a register splitTuples allocated itself — above the tuple
	// register it replaces, so never register 0, and outside RegTypes, so
	// tier-2 never re-homes it to a slot.
	d2   int32
	srcs []src
	aux  any
	// jump targets (patched after lowering). t1 is always a pc; t2 is a pc
	// only for branching ops (if.else, fused "+br") — overlay.get stores a
	// field index there, and tier-2 slot executors a slot kind (tier2.go).
	t1, t2 int
}

// handler is one try/catch region of a function.
type handler struct {
	start, end int // protected pc range [start, end)
	excReg     int32
	target     int
	excName    string // "" catches every exception type
}

// CompiledFunc is an executable function.
type CompiledFunc struct {
	Name     string
	NParams  int
	NRegs    int
	Result   *types.Type
	Code     []Instr
	Handlers []handler
	IsHook   bool
	HookPrio int

	// ID is the function's dense index within its Program, assigned at
	// link time; the tier-promotion counters are keyed by it.
	ID int
	// RegTypes records the static type of each declared register (params
	// then locals, indexed by register number). Registers allocated after
	// lowering (hidden exception slots) fall outside the slice and are
	// treated as untyped. Tier-2 slot classification reads this.
	RegTypes []*types.Type

	// tier2, when non-nil, is the specialized tier-2 code the dispatch
	// loop prefers (see tier2.go). It is published atomically so Execs on
	// other goroutines (a Program is shared across pipeline workers) pick
	// it up at their next invocation; an invocation in flight keeps
	// running whichever code array it loaded at entry.
	tier2     atomic.Pointer[tierCode]
	tierState atomic.Int32 // tierNone | tierActive | tierDemoted
}

// TierActive reports whether the function currently executes tier-2 code.
func (fn *CompiledFunc) TierActive() bool { return fn.tier2.Load() != nil }

// HostFunc is a Go function callable from HILTI code — the inverse of the
// generated C stubs: "HILTI code can invoke arbitrary C functions" (§3.4).
type HostFunc func(ex *Exec, args []values.Value) (values.Value, error)

// Program is a linked set of modules ready for execution.
type Program struct {
	Funcs       map[string]*CompiledFunc
	HookBodies  map[string][]*CompiledFunc
	GlobalCount int
	globalInits []globalInit
	Builtins    map[string]HostFunc
}

type globalInit struct {
	slot int32
	mk   func(ex *Exec) (values.Value, error)
}

// Frame is one function activation: a register file. Under tier-2 code, I
// holds the unboxed int64/bool slots of statically-typed scalar registers;
// a register promoted to a slot is dead in R for the whole activation (its
// readers and writers were all rewritten to the slot, see tier2.go).
//
// args is the operand scratch of the instruction currently executing in
// this activation (see Exec.operands). It belongs to the frame, not the
// Exec, because an instruction can be interrupted between gathering its
// operands and storing its result — a host function re-entering CallFn, or
// a fiber suspending while other fibers run on the same Exec — and every
// such interleaving runs in other frames.
type Frame struct {
	R    []values.Value
	I    []int64
	Ret  values.Value
	args []values.Value
}

// enterTier prepares the frame for a tier-2 activation: size and zero the
// slot file, then unbox the slotted parameters (arguments always arrive
// boxed through the host calling convention).
func (fr *Frame) enterTier(tc *tierCode, nregs int) {
	if cap(fr.I) < nregs {
		fr.I = make([]int64, nregs)
	} else {
		fr.I = fr.I[:nregs]
		for i := range fr.I {
			fr.I[i] = 0
		}
	}
	for _, p := range tc.slotParams {
		fr.I[p] = int64(fr.R[p].A)
	}
}

// Exec is an execution context — the paper's per-virtual-thread context
// object (§5 "Runtime Model"): thread-local globals, timer managers,
// exception state, the current fiber, and handles to shared services.
// An Exec must only be used from one goroutine at a time.
type Exec struct {
	Prog    *Program
	Globals []values.Value
	Exc     *values.Exception

	Out      io.Writer
	Hooks    *hook.Registry
	Profs    *profiler.Registry
	Files    *filemgr.Mgr
	GlobalTM *timer.Mgr
	Sched    *threads.Scheduler
	HostFns  map[string]HostFunc
	FibPool  *fiber.Pool

	// Limits bounds every top-level invocation (see budget.go); the
	// zero value means unlimited. Change it only between invocations.
	Limits Limits

	// Met, when non-nil, receives execution counters (see metrics.go).
	// Harvesting happens at invocation boundaries, not per instruction, so
	// the dispatch loop stays uninstrumented.
	Met *ExecMetrics

	fib        *fiber.Fiber // current fiber, when running inside one
	freeFrames []*Frame
	budget     budgetState
	keyBuf     []byte // scratch for container-key encoding (see ctorKey)
	opProf     *opProfile
	tiering    *tiering // runtime tier-2 promotion, nil unless EnableTiering
}

// NewExec creates an execution context for prog and runs global
// initializers (container globals are instantiated, initializer constants
// assigned).
func NewExec(prog *Program) (*Exec, error) {
	ex := &Exec{
		Prog:     prog,
		Globals:  make([]values.Value, prog.GlobalCount),
		Out:      os.Stdout,
		Hooks:    hook.NewRegistry(),
		Profs:    profiler.NewRegistry(),
		GlobalTM: timer.NewMgr(),
		HostFns:  map[string]HostFunc{},
		FibPool:  fiber.NewPool(256),
		budget:   freshBudget(),
	}
	for _, gi := range prog.globalInits {
		v, err := gi.mk(ex)
		if err != nil {
			return nil, err
		}
		ex.Globals[gi.slot] = v
	}
	return ex, nil
}

// RegisterHost makes a Go function callable from HILTI code under name.
func (ex *Exec) RegisterHost(name string, fn HostFunc) { ex.HostFns[name] = fn }

// Fn looks up a compiled function by name.
func (p *Program) Fn(name string) *CompiledFunc { return p.Funcs[name] }

// get reads an operand source.
func (ex *Exec) get(fr *Frame, s *src) values.Value {
	switch s.kind {
	case srcReg:
		return fr.R[s.idx]
	case srcGlobal:
		return ex.Globals[s.idx]
	case srcCtor:
		return ex.getCtor(fr, s)
	default:
		return s.val
	}
}

// operands gathers in's sources into the frame's operand scratch. The
// result is valid until the next instruction of this activation executes:
// the simpleFn or HostFunc it is passed to may read it freely, including
// across nested calls and fiber suspensions, but must not retain the slice
// (values copied out of it are fine).
func (ex *Exec) operands(fr *Frame, in *Instr) []values.Value {
	n := len(in.srcs)
	if cap(fr.args) < n {
		fr.args = make([]values.Value, max(n, 4))
	}
	args := fr.args[:n]
	for i := range args {
		args[i] = ex.get(fr, &in.srcs[i])
	}
	return args
}

// put writes an instruction destination.
func (ex *Exec) put(fr *Frame, d dst, v values.Value) {
	switch d.kind {
	case srcReg:
		fr.R[d.idx] = v
	case srcGlobal:
		ex.Globals[d.idx] = v
	}
}

// maxFreeFrames bounds the per-Exec frame free list.
const maxFreeFrames = 64

// newFrame takes a frame from the free list, sized for fn. Pooled frames
// are zeroed by freeFrame, so reuse only needs to (re)size the register
// slice: growing allocates a zeroed slice, shrinking/extending within
// capacity exposes registers freeFrame already cleared.
func (ex *Exec) newFrame(fn *CompiledFunc) *Frame {
	n := len(ex.freeFrames)
	var fr *Frame
	if n > 0 {
		fr = ex.freeFrames[n-1]
		ex.freeFrames = ex.freeFrames[:n-1]
		if cap(fr.R) < fn.NRegs {
			fr.R = make([]values.Value, fn.NRegs)
		} else {
			fr.R = fr.R[:fn.NRegs]
		}
	} else {
		fr = &Frame{R: make([]values.Value, fn.NRegs)}
	}
	return fr
}

// freeFrame returns a frame to the pool. Registers and operand scratch are
// cleared over their full capacity first so that pooled frames do not pin
// heap objects (byte ropes, structs) of completed calls via Value.O, and so
// that newFrame can hand them out without re-clearing.
func (ex *Exec) freeFrame(fr *Frame) {
	if len(ex.freeFrames) >= maxFreeFrames {
		return
	}
	clear(fr.R[:cap(fr.R)])
	clear(fr.args[:cap(fr.args)])
	fr.Ret = values.Nil
	ex.freeFrames = append(ex.freeFrames, fr)
}

// raise records an exception and signals the dispatch loop.
func (ex *Exec) raise(name, msg string) int {
	ex.Exc = &values.Exception{Name: name, Msg: msg}
	return pcRaise
}

// raiseErr maps a runtime error onto a HILTI exception. Would-block errors
// suspend the current fiber and request an instruction retry instead.
func (ex *Exec) raiseErr(err error) int {
	switch err {
	case hbytes.ErrWouldBlock:
		if ex.fib != nil {
			if ex.Met != nil {
				ex.Met.FiberSuspends.Inc()
			}
			ex.fib.Yield(ErrWouldBlock)
			return pcRetry
		}
		return ex.raise("Hilti::WouldBlock", "operation needs more input")
	case hbytes.ErrOutOfRange:
		return ex.raise("Hilti::ValueError", err.Error())
	default:
		if e, ok := err.(*values.Exception); ok {
			ex.Exc = e
			return pcRaise
		}
		return ex.raise("Hilti::RuntimeError", err.Error())
	}
}

// pcRetry asks the dispatch loop to re-execute the current instruction
// (used after a fiber resume made more input available).
const pcRetry = -3

// ErrWouldBlock is yielded to the host when a parse suspends for input.
var ErrWouldBlock = fmt.Errorf("hilti: would block")

// run executes fn with the given frame. On error the exception is left in
// ex.Exc and ok is false.
func (ex *Exec) run(fn *CompiledFunc, fr *Frame) (values.Value, bool) {
	// The code array is chosen once per activation: a tier-2 promotion
	// published mid-flight (even across a fiber suspend/resume of this very
	// activation) never switches a running frame between code arrays — the
	// two tiers are pc-identical, but slot state only exists under tier-2.
	code := fn.Code
	if tc := fn.tier2.Load(); tc != nil {
		code = tc.code
		fr.enterTier(tc, fn.NRegs)
	} else if ex.tiering != nil {
		ex.tiering.observe(fn, ex.opProf)
	}
	pc := 0
	prevOp := profNoPrev
	for pc >= 0 && pc < len(code) {
		cur := pc
		// Budget fast path: one increment and compare; nextCheck is
		// MaxUint64 when no limits are armed.
		if ex.budget.steps++; ex.budget.steps >= ex.budget.nextCheck {
			pc = ex.checkBudget()
		} else {
			if ex.opProf != nil {
				prevOp = ex.opProf.hit(code[cur].opID, prevOp)
			}
			pc = code[cur].exec(ex, fr, &code[cur])
		}
		switch pc {
		case pcRaise:
			h := fn.findHandler(cur, ex.Exc)
			if h == nil {
				return values.Nil, false
			}
			fr.R[h.excReg] = values.Value{K: values.KindException, O: ex.Exc}
			ex.Exc = nil
			pc = h.target
		case pcRetry:
			pc = cur
		}
	}
	return fr.Ret, true
}

func (fn *CompiledFunc) findHandler(pc int, exc *values.Exception) *handler {
	// Innermost (latest-added covering) handler wins.
	for i := len(fn.Handlers) - 1; i >= 0; i-- {
		h := &fn.Handlers[i]
		if pc >= h.start && pc < h.end &&
			(h.excName == "" || exc == nil || h.excName == exc.Name) {
			return h
		}
	}
	return nil
}

// Call invokes a compiled function with args, returning its result. This
// is the generated "C stub" path for host applications (§3.4): arguments
// are HILTI values, exceptions surface as Go errors.
func (ex *Exec) Call(name string, args ...values.Value) (values.Value, error) {
	fn := ex.Prog.Fn(name)
	if fn == nil {
		if hf, ok := ex.HostFns[name]; ok {
			return hf(ex, args)
		}
		if bf, ok := ex.Prog.Builtins[name]; ok {
			return bf(ex, args)
		}
		return values.Nil, fmt.Errorf("hilti: no function %q", name)
	}
	return ex.CallFn(fn, args...)
}

// CallFn invokes a compiled function directly.
func (ex *Exec) CallFn(fn *CompiledFunc, args ...values.Value) (values.Value, error) {
	if len(args) != fn.NParams {
		return values.Nil, fmt.Errorf("hilti: %s expects %d args, got %d", fn.Name, fn.NParams, len(args))
	}
	fr := ex.newFrame(fn)
	copy(fr.R, args)
	// A host-level call (depth 0) starts a fresh budgeted invocation;
	// re-entrant calls from host functions inherit the armed budget.
	if ex.budget.vmDepth == 0 {
		ex.armBudget()
	}
	ex.budget.vmDepth++
	ret, ok := ex.run(fn, fr)
	ex.budget.vmDepth--
	if ex.budget.vmDepth == 0 && ex.Met != nil {
		// One top-level invocation completed: harvest the step count the
		// budget machinery accumulated (across all nested calls, and for
		// fiber-backed calls across every resume since armBudget). The
		// harvest batches locally and flushes every flushEvery invocations.
		ex.Met.harvest(ex.budget.steps)
		if !ok {
			ex.Met.Uncaught.Inc()
		}
	}
	ex.freeFrame(fr)
	if !ok {
		exc := ex.Exc
		ex.Exc = nil
		return values.Nil, exc
	}
	return ret, nil
}

// RunHook executes all bodies of the named HILTI-level hook in priority
// order (plus any host-registered bodies in ex.Hooks).
func (ex *Exec) RunHook(name string, args ...values.Value) error {
	for _, body := range ex.Prog.HookBodies[name] {
		if _, err := ex.CallFn(body, args...); err != nil {
			return err
		}
	}
	if ex.Hooks != nil {
		ex.Hooks.Run(name, args)
	}
	return nil
}

// --- Fibers: transparent incremental execution -------------------------------

// FiberCall starts fn inside a fresh fiber so that any would-block
// condition suspends rather than failing. It returns a Resumable that the
// host drives: the paper's incremental-parsing workflow (§3.2).
func (ex *Exec) FiberCall(fn *CompiledFunc, args ...values.Value) *Resumable {
	r := &Resumable{ex: ex, budget: freshBudget()}
	r.fib = ex.FibPool.Get(func(f *fiber.Fiber, _ any) (any, error) {
		v, err := ex.CallFn(fn, args...)
		if err != nil {
			return nil, err
		}
		return v, nil
	})
	return r
}

// Resumable is a suspended (or completed) fiber-backed call.
type Resumable struct {
	ex     *Exec
	fib    *fiber.Fiber
	done   bool
	ret    values.Value
	err    error
	budget budgetState
}

// Resume continues execution until the call either completes (done=true,
// with result or error) or suspends again waiting for input (done=false).
// The Exec's current-fiber pointer is switched for the duration so that
// would-block suspensions unwind to exactly this fiber, even when several
// suspended parses (one per connection) interleave on one Exec.
func (r *Resumable) Resume() (values.Value, bool, error) {
	if r.done {
		return r.ret, true, r.err
	}
	prev := r.ex.fib
	r.ex.fib = r.fib
	// Each suspended call owns its budget accounting: instructions
	// accumulate across resumes, the deadline re-arms per resume.
	hostBudget := r.ex.swapBudget(r.budget)
	r.ex.rearmDeadline()
	v, done, err := r.fib.Resume(nil)
	r.budget = r.ex.swapBudget(hostBudget)
	r.ex.fib = prev
	if done {
		r.done = true
		r.err = err
		if vv, ok := v.(values.Value); ok {
			r.ret = vv
		}
		return r.ret, true, r.err
	}
	return values.Nil, false, nil
}

// Abort tears down a suspended call (connection abandoned mid-parse).
func (r *Resumable) Abort() {
	if !r.done {
		r.fib.Abort()
		r.done = true
		r.err = fiber.ErrAborted
	}
}

// Done reports whether the call has completed.
func (r *Resumable) Done() bool { return r.done }
