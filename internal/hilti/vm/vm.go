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
// suspension — the call stack is explicit, never the Go stack, so a runtime
// operation that would block on missing input parks the whole call as plain
// data and is retried on resume, which makes generated parsers incremental
// without any parser-side state machine (DESIGN.md "VM: calls and
// suspension").
package vm

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"hilti/internal/hilti/types"
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
	pcDone    = -1 // function returned
	pcRaise   = -2 // exception pending in Exec.Exc
	pcRetry   = -3 // re-execute the current instruction (budget checkpoint)
	pcCall    = -4 // enter the compiled callee of the current instruction
	pcHook    = -5 // enter the first HILTI body of the current hook.run
	pcSuspend = -6 // would block: park the call; the current instruction is retried on resume
	pcPair    = -7 // function returned the constructor in Exec.pairRet, not yet built
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
	exec execFn
	opID uint16 // interned op row (optable.go), stamped at emit/rewrite time
	d    dst
	// d2 is the second destination register of a two-result instruction
	// (storeTwo) or a call of a function returning a two-element constructor
	// (execReturnPair) that splitTuples in opt.go has split, 0 otherwise. It
	// is always a register splitTuples allocated itself — above the tuple
	// register it replaces, so never register 0.
	d2   int32
	srcs []src
	aux  any
	// jump targets (patched after lowering). t1 is always a pc; t2 is a pc
	// for branching ops (if.else, fused compares) and for compares, which
	// branch to their fallthrough until fused — overlay.get stores a field
	// index there.
	t1, t2 int
}

func (in *Instr) branch(b bool) int {
	if b {
		return in.t1
	}
	return in.t2
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
	// paramsCarry: a declared parameter type can carry an object out of a
	// recycling scope, so a HILTI call of the function opens none.
	paramsCarry bool

	// tier2, when non-nil, is the specialized tier-2 code the dispatch
	// loop prefers (see tier2.go). It is published atomically so Execs on
	// other goroutines (a Program is shared across pipeline workers) pick
	// it up the next time they load fn's code (code).
	tier2 atomic.Pointer[tierCode]
	// tiered is set once, by eager O2 or the first promotion; tier-2 code
	// is built at most once per function.
	tiered atomic.Bool
}

// TierActive reports whether the function currently executes tier-2 code.
func (fn *CompiledFunc) TierActive() bool { return fn.tier2.Load() != nil }

// code returns the code the dispatch loop runs for fn: tier-2 once
// published, else tier-1. The tiers are pc-identical over the same boxed
// registers, so any activation may switch at any load.
func (fn *CompiledFunc) code() []Instr {
	if tc := fn.tier2.Load(); tc != nil {
		return tc.code
	}
	return fn.Code
}

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
	// hostSlots numbers the host functions the program calls: a call
	// resolves its callee's name once, when it is linked, and each Exec
	// keeps its own functions in a table by slot (Exec.hosts).
	hostSlots map[string]int
}

type globalInit struct {
	slot int32
	mk   func(ex *Exec) (values.Value, error)
}

// Frame is one function activation: a register file.
//
// args is the operand scratch of the instruction currently executing in
// this activation (see Exec.operands). It belongs to the frame, not the
// Exec, because an instruction can be interrupted between gathering its
// operands and storing its result — a host function re-entering CallFn, or
// a hook.run whose body parks while other calls run on the same Exec — and
// every such interleaving runs in other frames.
type Frame struct {
	R    []values.Value
	Ret  values.Value
	args []values.Value
}

// Exec is an execution context — the paper's per-virtual-thread context
// object (§5 "Runtime Model"): thread-local globals, timer managers,
// exception state, the call stack, and handles to shared services.
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
	// HostFns holds the host functions by name. Fill it through RegisterHost
	// or RegisterBorrowingHost, which keep Recycle's answers and the
	// by-slot table calls read (hosts) current.
	HostFns map[string]HostFunc

	// Limits bounds every top-level invocation (see budget.go); the
	// zero value means unlimited. Change it only between invocations.
	Limits Limits

	// Met, when non-nil, receives execution counters (see metrics.go).
	// Harvesting happens at invocation boundaries, not per instruction, so
	// the dispatch loop stays uninstrumented.
	Met *ExecMetrics

	// stack holds the activations waiting on a callee, innermost last; each
	// native entry (CallFn, Resume) owns what lies above its base.
	stack     []activation
	depthMark int // deepest stack so far + 1
	parked    int // Resumables not yet done

	freeFrames []*Frame
	budget     budgetState
	keyBuf     []byte // scratch for container-key encoding (see ctorKey)
	pairRet    *src   // the constructor of a pcPair return, read before its frame is freed
	opProf     *opProfile
	tiering    *tiering // runtime tier-2 promotion, nil unless EnableTiering

	lend          lending         // the open loan of input (lend.go)
	hosts         []HostFunc      // HostFns by Program.hostSlots, what a call reads
	borrowing     map[string]bool // host functions registered as borrowing (recycle.go)
	rec           *recycler       // nil until Recycle accepts an entry
	fieldMisses   uint64          // see FieldGuardMisses
	deadlineTrips uint64          // see DeadlineTrips
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
		hosts:    make([]HostFunc, len(prog.hostSlots)),
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

// RegisterHost makes a Go function callable from HILTI code under name. A
// host function so registered may keep its arguments; replacing a borrowing
// one (RegisterBorrowingHost) therefore drops every Recycle answer.
func (ex *Exec) RegisterHost(name string, fn HostFunc) {
	ex.setHost(name, fn)
	if ex.borrowing[name] {
		delete(ex.borrowing, name)
		if ex.rec != nil {
			ex.rec.entries = nil
		}
	}
}

// setHost makes fn the host function name, by name and, when the program
// calls it, by slot.
func (ex *Exec) setHost(name string, fn HostFunc) {
	ex.HostFns[name] = fn
	if i, ok := ex.Prog.hostSlots[name]; ok {
		ex.hosts[i] = fn
	}
}

// Fn looks up a compiled function by name.
func (p *Program) Fn(name string) *CompiledFunc { return p.Funcs[name] }

// get reads an operand source. A register, the common case, is read
// where get is inlined.
func (ex *Exec) get(fr *Frame, s *src) values.Value {
	if s.kind == srcReg {
		return fr.R[s.idx]
	}
	return ex.getOther(fr, s)
}

func (ex *Exec) getOther(fr *Frame, s *src) values.Value {
	switch s.kind {
	case srcGlobal:
		return ex.Globals[s.idx]
	case srcCtor:
		return ex.getCtor(fr, s)
	default:
		return s.val
	}
}

// operands gathers srcs — an instruction's sources, or the elements of a
// tuple-constructor operand — into the frame's operand scratch. The
// result is valid until the next instruction of this activation executes:
// the simpleFn or HostFunc it is passed to may read it freely, including
// across nested calls and fiber suspensions, but must not retain the slice
// (values copied out of it are fine).
func (ex *Exec) operands(fr *Frame, srcs []src) []values.Value {
	n := len(srcs)
	if cap(fr.args) < n {
		fr.args = make([]values.Value, max(n, 4))
	}
	args := fr.args[:n]
	for i := range args {
		args[i] = ex.get(fr, &srcs[i])
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

// freeFrame returns a frame to the pool. The registers newFrame exposed
// and the operand scratch are cleared first so that pooled frames do not
// pin heap objects (byte ropes, structs) of completed calls via Value.O,
// and so that newFrame can hand them out without re-clearing. Registers
// past len(fr.R) are still clear from the frame's last wider use: every
// write to R (put, a call's or hook body's argument copy) is bounded by
// its length.
func (ex *Exec) freeFrame(fr *Frame) {
	if len(ex.freeFrames) >= maxFreeFrames {
		return
	}
	clear(fr.R)
	clear(fr.args[:cap(fr.args)])
	fr.Ret = values.Nil
	ex.freeFrames = append(ex.freeFrames, fr)
}

// raise records an exception and signals the dispatch loop.
func (ex *Exec) raise(name, msg string) int {
	ex.Exc = &values.Exception{Name: name, Msg: msg}
	return pcRaise
}

// raiseErr maps a runtime error onto a HILTI exception. A would-block
// error asks the dispatch loop to park the call instead (see run).
func (ex *Exec) raiseErr(err error) int {
	switch err {
	case hbytes.ErrWouldBlock:
		return pcSuspend
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

// activation is a function activation not executing right now — a caller
// waiting for its callee, or the innermost frame of a parked call — as
// plain data: no Go stack stands behind it.
type activation struct {
	fn   *CompiledFunc
	fr   *Frame
	pc   int32 // the call or hook.run in flight; where a parked call continues
	body int32 // hook.run in flight: the body running
	// scope is the recycling scope the call in flight opened (recycler.open):
	// 1 + its arena mark, 0 for none. It is 0 in the running activation.
	scope int32
}

// ExcStackExhausted is raised by a call that would nest deeper than
// maxCallDepth: runaway recursion ends in an exception the host contains
// like any other, not in a dead process.
const (
	ExcStackExhausted = "Hilti::StackExhausted"
	maxCallDepth      = 10_000
)

// enter counts a new activation of fn towards its promotion.
func (ex *Exec) enter(fn *CompiledFunc) {
	if ex.tiering != nil {
		ex.tiering.observe(fn)
	}
}

// hookBody enters body number body of the hook.run instruction in, which
// executes in fr: execHookRun left the arguments in that frame's scratch.
func (ex *Exec) hookBody(a *runState, fr *Frame, in *Instr, body int32) {
	a.fn = in.aux.(*hookTarget).bodies[body]
	a.fr = ex.newFrame(a.fn)
	copy(a.fr.R, fr.args[:len(in.srcs)])
	ex.enter(a.fn)
}

func (ex *Exec) pop() activation {
	n := len(ex.stack) - 1
	a := ex.stack[n]
	ex.stack[n].fr = nil // a stale slot must not pin the frame
	ex.stack = ex.stack[:n]
	return a
}

type runStatus uint8

const (
	running   runStatus = iota
	runDone             // the entry activation returned
	runRaised           // an exception nothing handled is in ex.Exc
	runParked           // the call's activations are ex.stack[base:] and, innermost, the running one
)

// runState is the activation a run is executing (its pc stale once under
// way) and the terms it was entered on: the entry owns ex.stack[base:], and
// only with park set (Resume) may it park. Without — CallFn, which may be a
// re-entry from a host function, timer callback or RunHook with Go frames
// between it and any Resumable — would-block raises Hilti::WouldBlock.
type runState struct {
	activation
	base int
	park bool
}

// run is the dispatch loop. HILTI-to-HILTI calls and hook bodies push an
// activation and continue here rather than recursing (transfer), so the
// frames this entry owns are those of ex.stack[s.base:] and the running
// one; all are freed by the time it returns done or raised.
func (ex *Exec) run(s *runState) (values.Value, runStatus) {
	pc := int(s.pc)
	for {
		// The inner loop is the instruction fast path and nothing else:
		// only code, fr and pc are live across the handler call.
		code, fr, cur := s.fn.code(), s.fr, pc
		for uint(pc) < uint(len(code)) {
			cur = pc
			// Budget fast path: one increment and compare; nextCheck is
			// MaxUint64 when no limits are armed.
			if ex.budget.steps++; ex.budget.steps >= ex.budget.nextCheck {
				pc = ex.checkBudget()
			} else {
				if ex.opProf != nil {
					ex.opProf.hit(code[cur].opID)
				}
				pc = code[cur].exec(ex, fr, &code[cur])
			}
		}
		switch {
		case pc == pcRetry:
			pc = cur
		case (pc >= pcDone || pc == pcPair) && len(ex.stack) == s.base:
			// The entry activation returned, or ran off the end of its code.
			ret := fr.Ret
			if pc == pcPair {
				ret = ex.getCtor(fr, ex.pairRet)
			}
			ex.freeFrame(fr)
			return ret, runDone
		default:
			var st runStatus
			if pc, st = ex.transfer(s, pc, cur); st != running {
				return values.Nil, st
			}
		}
	}
}

// transfer handles the instruction at cur having returned a pc that is no
// successor: a call, a return to a caller, a raise, a would-block. It
// leaves in *a the activation to go on with and returns its pc, or ends the
// run: raised with every frame freed, or parked with *a to be retried.
func (ex *Exec) transfer(a *runState, pc, cur int) (int, runStatus) {
	switch pc {
	case pcCall, pcHook:
		n := len(ex.stack)
		if n >= ex.depthMark {
			if n >= maxCallDepth {
				ex.raise(ExcStackExhausted, "call stack exhausted")
				break
			}
			ex.depthMark = n + 1
		}
		in, fr := &a.fn.code()[cur], a.fr
		a.pc, a.body = int32(cur), -1
		if pc == pcHook {
			a.body = 0
			ex.stack = append(ex.stack, a.activation)
			ex.hookBody(a, fr, in, 0)
			return 0, running
		}
		callee := in.aux.(*callTarget).fn
		if ex.rec != nil {
			a.scope = ex.rec.open(callee)
		}
		ex.stack = append(ex.stack, a.activation)
		a.fn, a.scope = callee, 0
		a.fr = ex.newFrame(a.fn)
		for i := range in.srcs {
			a.fr.R[i] = ex.get(fr, &in.srcs[i])
		}
		ex.enter(a.fn)
		return 0, running
	case pcSuspend:
		if a.park {
			if ex.Met != nil {
				ex.Met.FiberSuspends.Inc()
			}
			a.pc = int32(cur) // retried on resume
			return 0, runParked
		}
		ex.raise("Hilti::WouldBlock", "operation needs more input")
	case pcRaise:
	default: // a return: back to the caller's call or hook.run
		top := &ex.stack[len(ex.stack)-1]
		in := &top.fn.code()[top.pc]
		ret := a.fr.Ret
		if pc == pcPair && top.body < 0 {
			// A split call (d2, splitTuples) takes the components in two
			// registers; any other caller gets the tuple.
			if s := ex.pairRet; in.d2 != 0 {
				ret, top.fr.R[in.d2] = ex.get(a.fr, &s.subs[0]), ex.get(a.fr, &s.subs[1])
			} else {
				ret = ex.getCtor(a.fr, s)
			}
		}
		callee := a.fn
		ex.freeFrame(a.fr)
		if top.body < 0 {
			a.activation = ex.pop()
			if a.scope != 0 {
				ex.closeScope(&a.activation, callee, ret)
			}
			ex.put(a.fr, in.d, ret)
		} else if ht := in.aux.(*hookTarget); int(top.body)+1 < len(ht.bodies) {
			top.body++
			ex.hookBody(a, top.fr, in, top.body)
			return 0, running
		} else {
			a.activation = ex.pop()
			if ex.Hooks != nil {
				ex.Hooks.Run(ht.name, a.fr.args[:len(in.srcs)])
			}
		}
		return in.t1, running
	}
	// ex.Exc is pending at cur: it goes to the innermost handler covering
	// it, dropping the activations in between — a callee's raise surfaces at
	// the caller's call — or, with none above base, out of the run.
	for {
		if h := a.fn.findHandler(cur, ex.Exc); h != nil {
			a.fr.R[h.excReg] = values.Value{K: values.KindException, O: ex.Exc}
			ex.Exc = nil
			return h.target, running
		}
		ex.freeFrame(a.fr)
		if len(ex.stack) == a.base {
			return 0, runRaised
		}
		a.activation = ex.pop()
		if a.scope != 0 {
			ex.rec.close(a.scope)
			a.scope = 0
		}
		cur = int(a.pc)
	}
}

// closeScope ends the recycling scope the call a waits on opened, now that
// callee returned ret to it. Under the hiltipoison tag a result that is, or
// points into, an object the scope frees is a broken rule: it panics.
func (ex *Exec) closeScope(a *activation, callee *CompiledFunc, ret values.Value) {
	if poisoned {
		in := &a.fn.code()[a.pc]
		if mark := int(a.scope - 1); ex.rec.holds(mark, ret) || in.d2 != 0 && ex.rec.holds(mark, a.fr.R[in.d2]) {
			panic(fmt.Sprintf("vm: %s returned an object of the recycling scope it closes", callee.Name))
		}
	}
	ex.rec.close(a.scope)
	a.scope = 0
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
		// A host function or builtin may keep its arguments, so it gets a
		// copy: the caller's slice never escapes, and calling a compiled
		// function by name allocates nothing of its own.
		if hf, ok := ex.HostFns[name]; ok {
			return hf(ex, append([]values.Value(nil), args...))
		}
		if bf, ok := ex.Prog.Builtins[name]; ok {
			return bf(ex, append([]values.Value(nil), args...))
		}
		return values.Nil, fmt.Errorf("hilti: no function %q", name)
	}
	return ex.CallFn(fn, args...)
}

func arityErr(fn *CompiledFunc, n int) error {
	return fmt.Errorf("hilti: %s expects %d args, got %d", fn.Name, fn.NParams, n)
}

// CallFn invokes a compiled function directly.
func (ex *Exec) CallFn(fn *CompiledFunc, args ...values.Value) (values.Value, error) {
	if len(args) != fn.NParams {
		return values.Nil, arityErr(fn, len(args))
	}
	fr := ex.newFrame(fn)
	copy(fr.R, args)
	// A host-level call (depth 0) starts a fresh budgeted invocation;
	// re-entrant calls from host functions inherit the armed budget.
	if ex.budget.vmDepth == 0 {
		ex.armBudget()
	}
	ex.budget.vmDepth++
	base := len(ex.stack)
	var outer recScope
	mark := -1
	if ex.rec != nil {
		outer, mark = ex.rec.enter(fn)
	}
	defer ex.leave(base, outer, mark)
	ex.enter(fn)
	ret, st := ex.run(&runState{activation{fn: fn, fr: fr}, base, false})
	if ex.budget.vmDepth == 1 && ex.Met != nil {
		ex.Met.harvest(ex.budget.steps, st == runRaised, ex.parked, ex.depthMark+1)
	}
	if st == runRaised {
		exc := ex.Exc
		ex.Exc = nil
		return values.Nil, exc
	}
	return ret, nil
}

// leave ends a native entry into the dispatch loop, however it ends, and
// restores the recycling scope it was entered in, releasing the scopes its
// calls opened and the one it opened at mark (-1 for none). It is deferred
// because a Go panic — a host function's, or a VM bug's — may pass through
// run on its way to the host's fault.Catch: the depth would stay raised for
// the life of the Exec, so no later call would count as top-level, arm its
// budget or be harvested, the dead call's activations would stay on the
// stack, and a scope left active would hand recycled objects to every later
// call.
func (ex *Exec) leave(base int, outer recScope, mark int) {
	ex.budget.vmDepth--
	for len(ex.stack) > base {
		a := ex.pop()
		ex.freeFrame(a.fr)
		if a.scope != 0 {
			ex.rec.close(a.scope)
		}
	}
	if ex.rec != nil {
		ex.rec.exit(outer, mark)
	}
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

// ErrAborted is the result of a call torn down by Abort.
var ErrAborted = errors.New("hilti: call aborted")

// FiberCall prepares a call of fn in which any would-block condition parks
// the call rather than failing. It returns a Resumable that the host
// drives: the paper's incremental-parsing workflow (§3.2), where the paper
// runs the parser on a fiber. Nothing executes before the first Resume.
func (ex *Exec) FiberCall(fn *CompiledFunc, args ...values.Value) *Resumable {
	r := &Resumable{ex: ex, budget: freshBudget()}
	if len(args) != fn.NParams {
		r.done, r.err = true, arityErr(fn, len(args))
		return r
	}
	// The entry frame lives as long as the call, typically a connection:
	// taken from the free list it would drain the list and park a register
	// file sized for whatever function freed it last.
	fr := &Frame{R: make([]values.Value, fn.NRegs)}
	copy(fr.R, args)
	// Most parses park one or two calls deep.
	r.stack = append(make([]activation, 0, 2), activation{fn: fn, fr: fr, body: -1})
	ex.parked++
	return r
}

// Resumable is a call that can park: between Resumes its whole state is the
// activations it parked with — registers, pcs and code arrays, no goroutine.
type Resumable struct {
	ex            *Exec
	stack         []activation // while parked: its activations, innermost last
	started, done bool
	ret           values.Value
	err           error
	budget        budgetState
	rec           recState // while parked: the objects its open recycling scopes took
}

// Resume continues execution, on the caller's goroutine, until the call
// either completes (done=true, with result or error) or parks again waiting
// for input (done=false). Several parked calls (one per connection) may
// interleave on one Exec; each accounts against its own budget:
// instructions accumulate across resumes, the deadline re-arms per resume.
func (r *Resumable) Resume() (values.Value, bool, error) {
	if r.done {
		return r.ret, true, r.err
	}
	ex := r.ex
	n := len(r.stack) - 1
	s := runState{r.stack[n], len(ex.stack), true}
	ex.stack = append(ex.stack, r.stack[:n]...)
	clear(r.stack)
	r.stack = r.stack[:0]
	hostBudget := ex.budget
	ex.budget = r.budget
	ex.budget.vmDepth++
	// The call runs in its own recycling state, whatever scope its Resume
	// is nested in: the objects its open scopes took, and whether it parked
	// inside one.
	var outer recState
	if ex.rec != nil {
		outer = ex.rec.swap(r.rec)
	}
	returned := false
	defer func() {
		if !returned { // a Go panic is passing through: the call is dead, see leave
			ex.leave(s.base, recScope{}, -1)
			ex.budget = hostBudget
			if ex.rec != nil {
				r.rec = ex.rec.swap(outer)
			}
			r.finish(values.Nil, errors.New("hilti: call abandoned by a panic"))
		}
	}()
	if !r.started { // the call is entered here
		r.started = true
		ex.armBudget()
		ex.enter(s.fn)
	}
	ex.rearmDeadline()
	v, st := ex.run(&s)
	returned = true
	if ex.rec != nil {
		r.rec = ex.rec.swap(outer)
		ex.rec.stash(&r.rec)
	}
	if st == runParked {
		r.stack = append(append(r.stack, ex.stack[s.base:]...), s.activation)
		clear(ex.stack[s.base:])
		ex.stack = ex.stack[:s.base]
	}
	ex.budget.vmDepth--
	r.budget, ex.budget = ex.budget, hostBudget
	if st == runParked {
		return values.Nil, false, nil
	}
	var err error
	if st == runRaised {
		err, ex.Exc = ex.Exc, nil
	}
	r.finish(v, err)
	if ex.Met != nil {
		ex.Met.harvest(r.budget.steps, st == runRaised, ex.parked, ex.depthMark+1)
	}
	return r.ret, true, r.err
}

// finish ends the call, releasing whatever its recycling scopes still hold.
func (r *Resumable) finish(v values.Value, err error) {
	r.done, r.ret, r.err, r.stack = true, v, err, nil
	r.ex.parked--
	if rec := r.ex.rec; rec != nil {
		rec.release(&r.rec.arena, 0)
		r.rec.scope = recScope{}
		rec.stash(&r.rec)
	}
}

// Abort tears down a parked call (connection abandoned mid-parse): its
// frames go back to the Exec.
func (r *Resumable) Abort() {
	if !r.done {
		for _, a := range r.stack {
			r.ex.freeFrame(a.fr)
		}
		r.finish(values.Nil, ErrAborted)
	}
}

// Done reports whether the call has completed.
func (r *Resumable) Done() bool { return r.done }
