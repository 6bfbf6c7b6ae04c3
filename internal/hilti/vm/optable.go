// The op table: every instruction is one opRow, and everything a pass
// knows about an op — how it lowers, whether it folds, fuses with a
// branch, has an unboxed tier-2 form, or may sit inside a superinstruction
// or verified region — is read from its row, never from its name. Adding
// an op is adding a row.
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
	"hilti/internal/hilti/types"
	"hilti/internal/rt/values"
)

// execFn runs one instruction and returns the next pc or a sentinel (vm.go).
type execFn = func(ex *Exec, fr *Frame, in *Instr) int

// opRow is the one definition of an instruction.
type opRow struct {
	name  string
	arity int                                      // operand count; -1: any
	lower func(c *fnCompiler, in *ast.Instr) error // custom lowering; nil: lowerRow

	// Semantics. fn or two is the generic body; an integer op gives intBin
	// or rel instead, from which fn, the register/constant executors and
	// the aux the executors read are derived (defineOp).
	fn     simpleFn
	two    twoFn
	intBin func(x, y int64) int64
	rel    relation
	exec   execFn                         // generic executor; derived when nil
	pick   func(srcs []src, d dst) execFn // operand-shape executor, or nil for exec

	flags opFlags
	ctl   uint8 // what t1/t2 mean to control-flow passes (ctl* below)

	// Tier-2 form over the unboxed slot file (tier2.go). With a slot
	// domain every operand must be a scalar of it; slotFit replaces that
	// test for data movement. slotBoxed runs when the destination stays
	// boxed and re-boxes srcs[0] by the slot kind it finds in t2.
	slot      uint8
	slotFit   func(in *Instr, kind []uint8, rty []*types.Type) bool
	slotExec  execFn
	slotBoxed execFn

	// Derived by defineOp.
	aux  any    // the body the executors find in Instr.aux
	twin *opRow // cmp: the fused compare-and-branch form
	id   uint16 // interned id, 0 until first use (guarded by opTable)
}

type opFlags uint8

const (
	// opPure: the result depends on the operands alone, so an instruction
	// whose operands are all constants folds (a raising one stays).
	opPure opFlags = 1 << iota
	// opCmp: yields a bool an if.else may consume. Its executors end in
	// in.branch(b); lowered alone t2 == t1, and O1 fusion retargets both.
	opCmp
	// opInline: never suspends (a retry would re-run a pair's first half)
	// and never re-enters the dispatcher (calls, hooks), so it may be half
	// of a superinstruction or sit in a verified region; raising is fine.
	// Ops without it are treated as if they might.
	opInline
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

// regionSafe: may sit inside a verified region — inline ops, and the
// unconditional control transfers within the function.
func (r *opRow) regionSafe() bool {
	return r.is(opInline) || r.ctl == ctlJump || r.ctl == ctlSwitch || r.ctl == ctlReturn
}

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
// The region instruction exists only in tier-2 code.
var (
	opAssign, opJump, opIfElse, opReturnVoid, opReturnResult, opCall *opRow
	opEqual, opUnequal, opNetContains, opTupleIndex, opOverlayGet    *opRow
)

var opRegion = &opRow{name: "region"}

// defineOp derives r's executors and aux from its semantics and enters it,
// with its fused twin, into the table.
func defineOp(r opRow) *opRow {
	switch {
	case r.intBin != nil:
		f := r.intBin
		r.fn = func(_ *Exec, a []values.Value) (values.Value, error) {
			return values.Int(f(a[0].AsInt(), a[1].AsInt())), nil
		}
		r.aux, r.exec, r.pick = f, execIntFast, pickIntFast
	case r.rel != relNone:
		f := relFns[r.rel]
		r.fn = func(_ *Exec, a []values.Value) (values.Value, error) {
			return values.Bool(f(a[0].AsInt(), a[1].AsInt())), nil
		}
		r.aux, r.exec, r.pick = f, execIntCmpFast, pickIntCmpFast
	case r.two != nil:
		r.aux, r.exec = r.two, execTwo
	case r.fn != nil:
		r.aux = r.fn
		if r.exec == nil {
			r.exec = execSimple
			if r.is(opCmp) {
				r.exec = execSimpleCmp
			}
		}
	}
	if r.is(opCmp) {
		tw := r
		tw.name, tw.ctl, tw.flags = r.name+"+br", ctlBranch, r.flags&^opCmp
		r.twin = defineOp(tw)
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
// inline (both halves are) and branching when b branches.
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
		r = &opRow{name: name, flags: ra.flags & rb.flags & opInline, ctl: rb.ctl}
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

// slotFits reports whether in (which touches at least one slotted
// register) has a tier-2 form for the current slot assignment.
func (r *opRow) slotFits(in *Instr, kind []uint8, rty []*types.Type) bool {
	if r.slotFit != nil {
		return r.slotFit(in, kind, rty)
	}
	if len(in.srcs) != r.arity {
		return false
	}
	for _, dom := range [...]uint8{slotInt, slotBool} {
		ok := r.slot&dom != 0
		for i := 0; ok && i < len(in.srcs); i++ {
			ok = scalarOperand(&in.srcs[i], dom, kind, rty)
		}
		if ok {
			return true
		}
	}
	return false
}
