// The op table: every instruction is one opRow, and everything a pass
// knows about an op — how it lowers, whether it folds, fuses with a
// branch, or may be half of a superinstruction — is read from its row,
// never from its name. Adding an op is adding a row.
//
// Rows are found by name at lowering and by interned id everywhere after:
// each distinct name an instruction carries (including the fused and
// tier-2 superinstruction forms minted after lowering) gets a small dense
// id, stamped onto the Instr. The always-on execution profile indexes a
// flat array by these ids, which is what makes it cheap enough to leave
// enabled in production (one bounds check + one array increment per
// instruction instead of a map lookup on a string key). Ids are handed out
// on first use, so a profile is sized by the ops programs actually
// contain, not by the size of the table.

package vm

import (
	"sync"
	"sync/atomic"

	"hilti/internal/hilti/ast"
	"hilti/internal/rt/values"
)

// execFn runs one instruction and returns the next pc or a sentinel (vm.go).
type execFn = func(ex *Exec, fr *Frame, in *Instr) int

// opRow is the one definition of an instruction.
type opRow struct {
	name  string
	arity int                                      // operand count; -1: any
	lower func(c *fnCompiler, in *ast.Instr) error // custom lowering; nil: lowerRow

	// Semantics. A fixed-arity row gives its body with positional operands:
	// f0-f3, or two1/two2 for the two-result ops (whose slice form returns
	// the pair as a tuple). A variadic row gives fn, and an integer op gives
	// intBin or rel. defineOp derives the rest: the arity, fn (the slice form
	// folding and the reference tests call), the executor that reads the
	// operands with Exec.get, and the aux it reads.
	fn     simpleFn
	f0     body0
	f1     body1
	f2     body2
	f3     body3
	two1   twoBody1
	two2   twoBody2
	intBin func(x, y int64) int64
	rel    relation
	exec   execFn                         // generic executor; derived when nil
	pick   func(srcs []src, d dst) execFn // operand-shape executor, or nil for exec
	idx    execFn                         // struct op: the field-index form's executor (lowerField)

	flags opFlags
	ctl   uint8 // what t1/t2 mean to control-flow passes (ctl* below)

	// Derived by defineOp.
	aux     any    // the body the executors find in Instr.aux
	derived execFn // the body's executor: exec unless a row gives its own
	twin    *opRow // cmp: the fused compare-and-branch form
	indexed *opRow // idx: the field-index form, named name+"_idx"; on that form, the name row
	id      uint16 // interned id, 0 until first use (guarded by opTable)
}

// The positional bodies of the fixed-arity rows.
type (
	body0    = func(ex *Exec) (values.Value, error)
	body1    = func(ex *Exec, a values.Value) (values.Value, error)
	body2    = func(ex *Exec, a, b values.Value) (values.Value, error)
	body3    = func(ex *Exec, a, b, c values.Value) (values.Value, error)
	twoBody1 = func(ex *Exec, a values.Value) (x, y values.Value, err error)
	twoBody2 = func(ex *Exec, a, b values.Value) (x, y values.Value, err error)
)

type opFlags uint8

const (
	// opPure: the result depends on the operands alone, so an instruction
	// whose operands are all constants folds (a raising one stays).
	opPure opFlags = 1 << iota
	// opCmp: yields a bool an if.else may consume. Its executors end in
	// in.branch(b); lowered alone t2 == t1, and O1 fusion retargets both.
	opCmp
	// opReenters: may re-enter the dispatcher — run a HILTI call, a hook
	// body or a timer callback — or hand control to a host function, so code
	// the op's own row does not describe may see its operands. Every other op
	// completes inside its executor: it may raise, or report would-block,
	// which parks a Resumable and raises in a CallFn.
	opReenters
	// opRetains: may keep a non-constant operand beyond the instruction — in
	// a map, set, list, classifier or channel, a timer or another thread's
	// queue, or an exception that leaves the call. Storing into a struct or
	// vector is not retaining: the container is the one that lives on.
	// Both flags are read by the recycling rule (recycle.go).
	opRetains
)

// Control kinds.
const (
	ctlNone   uint8 = iota // falls through to t1
	ctlBranch              // t1 if true, else t2: if.else and fused compares
	ctlJump                // to t1
	ctlSwitch              // to a switch-table target, default t1
	ctlReturn              // leaves the function
)

// relation is an integer comparison; a rel row's executors and the fused
// overlay compare (overlay_tier2.go) read its function from relFns.
type relation uint8

const (
	relNone relation = iota
	relEq
	relLt
	relLeq
	relGt
	relGeq
)

var relFns = [...]func(x, y int64) bool{
	relEq:  func(x, y int64) bool { return x == y },
	relLt:  func(x, y int64) bool { return x < y },
	relLeq: func(x, y int64) bool { return x <= y },
	relGt:  func(x, y int64) bool { return x > y },
	relGeq: func(x, y int64) bool { return x >= y },
}

func (r *opRow) is(f opFlags) bool { return r.flags&f != 0 }

// folds: an instruction folds when every operand is a constant. A fused
// compare keeps its branch; the if.else on a constant folds instead.
func (r *opRow) folds() bool { return r.is(opPure) && r.ctl == ctlNone }

var opTable = struct {
	sync.RWMutex
	byName map[string]*opRow
	pairs  map[[2]uint16]uint16
	rows   atomic.Pointer[[]*opRow] // by id; append-only, read without the lock
}{
	byName: map[string]*opRow{},
	pairs:  map[[2]uint16]uint16{},
}

func init() {
	// Id 0 is the unknown op of never-stamped instructions (hand-built test
	// code), so profile attribution of those is explicit.
	opTable.rows.Store(&[]*opRow{{name: "?"}})
	for _, rows := range [][]opRow{coreOps, scalarOps, containerOps, bytesOps, runtimeOps} {
		for _, r := range rows {
			defineOp(r)
		}
	}
	for _, a := range [][2]string{{"and", "bool.and"}, {"or", "bool.or"}, {"not", "bool.not"}} {
		r := *opNamed(a[1]) // the paper's Figure 4 spelling
		r.name, r.twin, r.id = a[0], nil, 0
		defineOp(r)
	}
	opAssign, opJump, opIfElse = opNamed("assign"), opNamed("jump"), opNamed("if.else")
	opReturnVoid, opReturnResult, opCall = opNamed("return.void"), opNamed("return.result"), opNamed("call")
	opEqual, opUnequal, opNetContains = opNamed("equal"), opNamed("unequal"), opNamed("net.contains")
	opTupleIndex, opOverlayGet = opNamed("tuple.index"), opNamed("overlay.get")
}

// The ops passes recognize by identity: the instructions they create, and
// the shapes they match (copy sources, split tuples, overlay compares).
var (
	opAssign, opJump, opIfElse, opReturnVoid, opReturnResult, opCall *opRow
	opEqual, opUnequal, opNetContains, opTupleIndex, opOverlayGet    *opRow
)

// defineOp derives r's executors and aux from its semantics and enters it,
// with its fused twin, into the table.
func defineOp(r opRow) *opRow {
	var execs [2]execFn // the body's derived executors: plain, compare
	switch {
	case r.intBin != nil:
		f := r.intBin
		r.fn = func(_ *Exec, a []values.Value) (values.Value, error) {
			return values.Int(f(a[0].AsInt(), a[1].AsInt())), nil
		}
		r.aux, r.exec, r.pick, r.arity = f, execIntFast, pickIntFast, 2
	case r.rel != relNone:
		f := relFns[r.rel]
		r.fn = func(_ *Exec, a []values.Value) (values.Value, error) {
			return values.Bool(f(a[0].AsInt(), a[1].AsInt())), nil
		}
		r.aux, r.exec, r.pick, r.arity = f, execIntCmpFast, pickIntCmpFast, 2
	case r.f0 != nil:
		f := r.f0
		r.fn, r.aux, r.arity, execs = func(ex *Exec, _ []values.Value) (values.Value, error) { return f(ex) }, f, 0, [2]execFn{exec0}
	case r.f1 != nil:
		f := r.f1
		r.fn, r.aux, r.arity, execs = func(ex *Exec, a []values.Value) (values.Value, error) { return f(ex, a[0]) }, f, 1, [2]execFn{exec1, exec1Cmp}
	case r.f2 != nil:
		f := r.f2
		r.fn, r.aux, r.arity, execs = func(ex *Exec, a []values.Value) (values.Value, error) { return f(ex, a[0], a[1]) }, f, 2, [2]execFn{exec2, exec2Cmp}
	case r.f3 != nil:
		f := r.f3
		r.fn, r.aux, r.arity, execs = func(ex *Exec, a []values.Value) (values.Value, error) { return f(ex, a[0], a[1], a[2]) }, f, 3, [2]execFn{exec3}
	case r.two1 != nil:
		f := r.two1
		r.fn, r.aux, r.arity, execs = func(ex *Exec, a []values.Value) (values.Value, error) {
			x, y, err := f(ex, a[0])
			return values.TupleVal(x, y), err
		}, f, 1, [2]execFn{execTwo1}
	case r.two2 != nil:
		f := r.two2
		r.fn, r.aux, r.arity, execs = func(ex *Exec, a []values.Value) (values.Value, error) {
			x, y, err := f(ex, a[0], a[1])
			return values.TupleVal(x, y), err
		}, f, 2, [2]execFn{execTwo2}
	case r.fn != nil:
		r.aux, execs = r.fn, [2]execFn{execSimple}
	}
	if r.derived = execs[0]; r.is(opCmp) {
		r.derived = execs[1]
	}
	if r.exec == nil {
		r.exec = r.derived
	}
	if r.is(opCmp) {
		tw := r
		tw.name, tw.ctl, tw.flags = r.name+"+br", ctlBranch, r.flags&^opCmp
		r.twin = defineOp(tw)
	}
	if r.idx != nil && r.ctl == ctlNone {
		// t2 holds the field index, so the index form does not branch.
		r.indexed = defineOp(opRow{name: r.name + "_idx", flags: r.flags &^ opCmp})
		r.indexed.indexed = &r
	}
	p := &r
	opTable.Lock()
	opTable.byName[r.name] = p
	opTable.Unlock()
	return p
}

// opNamed returns the row defined under name, or nil.
func opNamed(name string) *opRow {
	opTable.RLock()
	defer opTable.RUnlock()
	return opTable.byName[name]
}

// lowerable: an op the AST may name. Fused and superinstruction forms
// only arise from lowered code.
func (r *opRow) lowerable() bool {
	return r.lower != nil || r.exec != nil && r.ctl == ctlNone
}

// rowOf returns the row of an interned id; the unknown row for any other.
func rowOf(id uint16) *opRow {
	rows := *opTable.rows.Load()
	if int(id) < len(rows) {
		return rows[id]
	}
	return rows[0]
}

// idOf returns r's interned id, assigning the next free one on first use.
func idOf(r *opRow) uint16 {
	opTable.RLock()
	id := r.id
	opTable.RUnlock()
	if id != 0 {
		return id
	}
	opTable.Lock()
	defer opTable.Unlock()
	return internLocked(r)
}

func internLocked(r *opRow) uint16 {
	if r.id != 0 {
		return r.id
	}
	rows := *opTable.rows.Load()
	if len(rows) > 0xfffe {
		return 0 // id space exhausted; profile as unknown
	}
	r.id = uint16(len(rows))
	rows = append(rows, r)
	opTable.rows.Store(&rows)
	return r.id
}

// pairID interns the superinstruction of a followed by b: named "a+b",
// re-entering or retaining when either half is, and branching when b
// branches.
func pairID(a, b uint16) uint16 {
	k := [2]uint16{a, b}
	opTable.RLock()
	id, ok := opTable.pairs[k]
	opTable.RUnlock()
	if ok {
		return id
	}
	ra, rb := rowOf(a), rowOf(b)
	name := ra.name + "+" + rb.name
	opTable.Lock()
	defer opTable.Unlock()
	r := opTable.byName[name]
	if r == nil {
		r = &opRow{name: name, flags: (ra.flags | rb.flags) & (opReenters | opRetains), ctl: rb.ctl}
		opTable.byName[name] = r
	}
	id = internLocked(r)
	opTable.pairs[k] = id
	return id
}

// opName resolves an interned id back to its op name.
func opName(id uint16) string { return rowOf(id).name }

// internedOpCount returns the number of interned ops (including the
// reserved unknown id); used to size profile arrays.
func internedOpCount() int { return len(*opTable.rows.Load()) }

// shapeExec picks r's executor for an operand shape. Passes that rewrite
// operand kinds in place (copy/constant propagation turning a register
// into a constant) re-pick through it, or a stale specialization would
// index the register file with a constant's idx.
func (r *opRow) shapeExec(srcs []src, d dst) execFn {
	if r.pick != nil {
		if e := r.pick(srcs, d); e != nil {
			return e
		}
	}
	return r.exec
}
