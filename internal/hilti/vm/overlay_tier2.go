// Tier-2 overlay specialization: precomputed field decoding and fused
// decode-and-compare superinstructions.
//
// The generic overlay.get executor re-derives everything per dispatch:
// field lookup, size switch, bounds arithmetic, a two-value error return,
// and a boxed values.Value round trip — for filters that read two or three
// header fields per packet (paper Figure 4), that chain dominates the
// whole function. Tier-2 lowering knows the overlay definition and field
// index statically, so it plans the access once (offset, end, format,
// bit-range mask) and swaps in executors that bounds-check with a single
// compare and decode inline. When the very next instruction is a fused
// compare-and-branch consuming the decoded field — the universal filter
// shape `overlay.get; cmp const +br` — both are collapsed into one
// superinstruction that decodes, compares, and branches in one dispatch.
//
// Transparency rules: the second half stays at its pc as an orphan for side
// entries, both pcs must share handler coverage, the intermediate register
// is still written (a handler or debugger observes the same frame state),
// and the budget stays exact — the fused executor self-charges the second
// half and bails to the orphan when that step would reach a checkpoint.

package vm

import (
	"hilti/internal/rt/overlay"
	"hilti/internal/rt/values"
)

// overlayPlan is a precomputed field access: everything GetIdx re-derives
// per call, resolved once at lowering time.
type overlayPlan struct {
	ov      *overlay.Overlay // cold paths: identical error messages
	idx     int              // field index within ov
	off     int
	end     int // off + field size; bounds check is one compare
	format  overlay.Format
	bitLo   uint8
	bitMask uint64 // for UInt8Bits
	proto   uint8  // for PortTCP/PortUDP
}

// planOverlayField resolves field idx of ov into an access plan, or nil
// when the field has no inline decoder (BytesN allocates and stays on the
// generic path).
func planOverlayField(ov *overlay.Overlay, idx int) *overlayPlan {
	if idx < 0 || idx >= len(ov.Fields) {
		return nil
	}
	f := &ov.Fields[idx]
	if f.Offset < 0 {
		return nil
	}
	p := &overlayPlan{ov: ov, idx: idx, off: f.Offset, format: f.Format}
	size := 0
	switch f.Format {
	case overlay.UInt8:
		size = 1
	case overlay.UInt8Bits:
		size = 1
		p.bitLo = uint8(f.BitLo)
		p.bitMask = (1 << uint(f.BitHi-f.BitLo+1)) - 1
	case overlay.UInt16BE, overlay.UInt16LE:
		size = 2
	case overlay.UInt32BE, overlay.UInt32LE:
		size = 4
	case overlay.IPv4:
		size = 4
	case overlay.IPv6:
		size = 16
	case overlay.PortTCP:
		size, p.proto = 2, values.ProtoTCP
	case overlay.PortUDP:
		size, p.proto = 2, values.ProtoUDP
	default:
		return nil
	}
	p.end = f.Offset + size
	return p
}

// intFormat reports whether the plan decodes to a KindInt value (payload
// fully in Value.A), the domain the int.* compare executors expect.
func (p *overlayPlan) intFormat() bool {
	switch p.format {
	case overlay.UInt8, overlay.UInt8Bits, overlay.UInt16BE, overlay.UInt16LE,
		overlay.UInt32BE, overlay.UInt32LE:
		return true
	}
	return false
}

// decode extracts the planned field from data. The caller has already
// checked p.end <= len(data). Kind-for-kind identical to Overlay.GetIdx.
func (p *overlayPlan) decode(data []byte) values.Value {
	d := data[p.off:p.end:p.end]
	switch p.format {
	case overlay.UInt8:
		return values.Int(int64(d[0]))
	case overlay.UInt8Bits:
		return values.Uint((uint64(d[0]) >> p.bitLo) & p.bitMask)
	case overlay.UInt16BE:
		return values.Uint(uint64(d[0])<<8 | uint64(d[1]))
	case overlay.UInt16LE:
		return values.Uint(uint64(d[1])<<8 | uint64(d[0]))
	case overlay.UInt32BE:
		return values.Uint(uint64(d[0])<<24 | uint64(d[1])<<16 | uint64(d[2])<<8 | uint64(d[3]))
	case overlay.UInt32LE:
		return values.Uint(uint64(d[3])<<24 | uint64(d[2])<<16 | uint64(d[1])<<8 | uint64(d[0]))
	case overlay.IPv4:
		return values.AddrFrom4([4]byte{d[0], d[1], d[2], d[3]})
	case overlay.IPv6:
		var a [16]byte
		copy(a[:], d)
		return values.AddrFrom16(a)
	default: // PortTCP, PortUDP
		return values.PortVal(uint16(d[0])<<8|uint16(d[1]), p.proto)
	}
}

// u64 extracts an integer-format field from data without building a
// values.Value. Only installed for intFormat plans; bounds already checked.
func (p *overlayPlan) u64(data []byte) uint64 {
	d := data[p.off:p.end:p.end]
	switch p.format {
	case overlay.UInt8:
		return uint64(d[0])
	case overlay.UInt8Bits:
		return (uint64(d[0]) >> p.bitLo) & p.bitMask
	case overlay.UInt16BE:
		return uint64(d[0])<<8 | uint64(d[1])
	case overlay.UInt16LE:
		return uint64(d[1])<<8 | uint64(d[0])
	case overlay.UInt32BE:
		return uint64(d[0])<<24 | uint64(d[1])<<16 | uint64(d[2])<<8 | uint64(d[3])
	default: // UInt32LE
		return uint64(d[3])<<24 | uint64(d[2])<<16 | uint64(d[1])<<8 | uint64(d[0])
	}
}

// raiseOverlay reproduces the generic executor's exact exception for a
// failed bounds check (cold path).
func (p *overlayPlan) raiseOverlay(ex *Exec, data []byte) int {
	_, err := p.ov.GetIdx(data, p.idx)
	if err == nil {
		return ex.raise("Hilti::OverlayError", "overlay access out of bounds")
	}
	return ex.raise("Hilti::OverlayError", err.Error())
}

// execOverlayGetSpec is the planned standalone overlay.get: one bounds
// compare, inline decode, one store.
func execOverlayGetSpec(ex *Exec, fr *Frame, in *Instr) int {
	p := in.aux.(*overlayPlan)
	b := fr.R[in.srcs[0].idx].AsBytes()
	if b == nil {
		return ex.raise("Hilti::NullReference", "nil bytes reference")
	}
	data := b.Bytes()
	if p.end > len(data) {
		return p.raiseOverlay(ex, data)
	}
	ex.put(fr, in.d, p.decode(data))
	return in.t1
}

// overlayCmpAux is the payload of a fused overlay.get+<compare>+br
// superinstruction. The fused instruction keeps the overlay.get's
// destination in d and the branch targets in t1/t2; the compare's own
// boolean destination lives here.
//
// elideD/elideB implement verified dead-store elision: when the lowering
// pass proved a destination register unreadable (no instruction anywhere
// in the function reads it, no side entry can reach the orphan, no
// handler targets it), the hot path skips the store. The budget-bail path
// always materializes the decoded value first — the orphan it bails to
// re-reads it.
type overlayCmpAux struct {
	overlayPlan
	bpc            int                   // the orphaned compare's pc (budget bail)
	bd             dst                   // compare result destination
	cst            values.Value          // comparison constant
	cstInt         int64                 // the constant as int64 (int compares)
	neg            bool                  // unequal instead of equal
	cmpFn          func(x, y int64) bool // int.<cmp> relation
	maskHi, maskLo uint64                // precomputed subnet mask (net.contains)
	v4hi, v4lo     uint64                // the IPv4-mapped prefix AddrFrom4 applies
	a4ok           bool                  // constant's kind/high-word compare, hoisted
	elideD         bool                  // decoded value provably dead: skip its store
	elideB         bool                  // compare result provably dead: skip its store
}

// execOvIntCmpBr: overlay.get of an integer field + int.<cmp>+br against a
// constant, e.g. the ethertype test of every generated packet filter. The
// decoded integer is compared without building a values.Value.
func execOvIntCmpBr(ex *Exec, fr *Frame, in *Instr) int {
	oa := in.aux.(*overlayCmpAux)
	b := fr.R[in.srcs[0].idx].AsBytes()
	if b == nil {
		return ex.raise("Hilti::NullReference", "nil bytes reference")
	}
	data := b.Bytes()
	if oa.end > len(data) {
		return oa.raiseOverlay(ex, data)
	}
	u := oa.u64(data)
	if !oa.elideD {
		fr.R[in.d.idx] = values.Uint(u) // a register: the fusion gate allows nothing else
	}
	// Second-half budget step, as the dispatch loop would charge it: bail to
	// the orphan when it would reach a checkpoint so the trip fires at its
	// precise pc.
	if ex.budget.steps+1 >= ex.budget.nextCheck {
		if oa.elideD {
			fr.R[in.d.idx] = values.Uint(u) // the orphan re-reads it
		}
		return oa.bpc
	}
	ex.budget.steps++
	res := oa.cmpFn(int64(u), oa.cstInt)
	if !oa.elideB {
		ex.put(fr, oa.bd, values.Bool(res))
	}
	return in.branch(res)
}

// execOvEqualBr: overlay.get + equal/unequal+br against a constant. Raw
// K/A/B comparison matches values.Equal for every kind decode produces
// (int, addr, port — payload entirely in A and B).
func execOvEqualBr(ex *Exec, fr *Frame, in *Instr) int {
	oa := in.aux.(*overlayCmpAux)
	b := fr.R[in.srcs[0].idx].AsBytes()
	if b == nil {
		return ex.raise("Hilti::NullReference", "nil bytes reference")
	}
	data := b.Bytes()
	if oa.end > len(data) {
		return oa.raiseOverlay(ex, data)
	}
	v := oa.decode(data)
	if !oa.elideD || ex.budget.steps+1 >= ex.budget.nextCheck {
		fr.R[in.d.idx] = v
		if ex.budget.steps+1 >= ex.budget.nextCheck {
			return oa.bpc
		}
	}
	ex.budget.steps++
	res := v.K == oa.cst.K && v.A == oa.cst.A && v.B == oa.cst.B
	if oa.neg {
		res = !res
	}
	if !oa.elideB {
		ex.put(fr, oa.bd, values.Bool(res))
	}
	return in.branch(res)
}

// execOvAddr4EqBr is execOvEqualBr specialized to an IPv4 field: AddrFrom4
// always yields the v4-mapped prefix in K/A, so the lowering hoists that
// part of the comparison into a4ok and the hot path is one 32-bit load and
// one 64-bit compare — no boxed value unless a store is required.
func execOvAddr4EqBr(ex *Exec, fr *Frame, in *Instr) int {
	oa := in.aux.(*overlayCmpAux)
	b := fr.R[in.srcs[0].idx].AsBytes()
	if b == nil {
		return ex.raise("Hilti::NullReference", "nil bytes reference")
	}
	data := b.Bytes()
	if oa.end > len(data) {
		return oa.raiseOverlay(ex, data)
	}
	d := data[oa.off:oa.end:oa.end]
	lo := oa.v4lo | uint64(d[0])<<24 | uint64(d[1])<<16 | uint64(d[2])<<8 | uint64(d[3])
	if !oa.elideD || ex.budget.steps+1 >= ex.budget.nextCheck {
		fr.R[in.d.idx] = values.Value{K: values.KindAddr, A: oa.v4hi, B: lo}
		if ex.budget.steps+1 >= ex.budget.nextCheck {
			return oa.bpc
		}
	}
	ex.budget.steps++
	res := oa.a4ok && lo == oa.cst.B
	if oa.neg {
		res = !res
	}
	if !oa.elideB {
		ex.put(fr, oa.bd, values.Bool(res))
	}
	return in.branch(res)
}

// execOvAddr4NetBr is execOvNetContainsBr specialized to an IPv4 field;
// the prefix-word test against the masked network is hoisted like a4ok
// above, leaving one masked compare on the low word.
func execOvAddr4NetBr(ex *Exec, fr *Frame, in *Instr) int {
	oa := in.aux.(*overlayCmpAux)
	b := fr.R[in.srcs[0].idx].AsBytes()
	if b == nil {
		return ex.raise("Hilti::NullReference", "nil bytes reference")
	}
	data := b.Bytes()
	if oa.end > len(data) {
		return oa.raiseOverlay(ex, data)
	}
	d := data[oa.off:oa.end:oa.end]
	lo := oa.v4lo | uint64(d[0])<<24 | uint64(d[1])<<16 | uint64(d[2])<<8 | uint64(d[3])
	if !oa.elideD || ex.budget.steps+1 >= ex.budget.nextCheck {
		fr.R[in.d.idx] = values.Value{K: values.KindAddr, A: oa.v4hi, B: lo}
		if ex.budget.steps+1 >= ex.budget.nextCheck {
			return oa.bpc
		}
	}
	ex.budget.steps++
	res := oa.a4ok && lo&oa.maskLo == oa.cst.B
	if !oa.elideB {
		ex.put(fr, oa.bd, values.Bool(res))
	}
	return in.branch(res)
}

// execOvNetContainsBr: overlay.get of an address field + net.contains+br
// against a constant network — the CIDR test of generated filters. The
// subnet mask is precomputed, so membership is two ANDs and two compares.
func execOvNetContainsBr(ex *Exec, fr *Frame, in *Instr) int {
	oa := in.aux.(*overlayCmpAux)
	b := fr.R[in.srcs[0].idx].AsBytes()
	if b == nil {
		return ex.raise("Hilti::NullReference", "nil bytes reference")
	}
	data := b.Bytes()
	if oa.end > len(data) {
		return oa.raiseOverlay(ex, data)
	}
	v := oa.decode(data)
	if !oa.elideD || ex.budget.steps+1 >= ex.budget.nextCheck {
		fr.R[in.d.idx] = v
		if ex.budget.steps+1 >= ex.budget.nextCheck {
			return oa.bpc
		}
	}
	ex.budget.steps++
	res := v.A&oa.maskHi == oa.cst.A && v.B&oa.maskLo == oa.cst.B
	if !oa.elideB {
		ex.put(fr, oa.bd, values.Bool(res))
	}
	return in.branch(res)
}

// operandIs reports whether source s reads exactly register destination d.
func operandIs(s *src, d dst) bool {
	return s.kind == srcReg && d.kind == srcReg && s.idx == d.idx
}

// srcReads reports whether operand s (recursing into ctor sub-operands)
// reads destination d.
func srcReads(s *src, d dst) bool {
	switch s.kind {
	case srcReg:
		return d.kind == srcReg && s.idx == d.idx
	case srcCtor:
		for i := range s.subs {
			if srcReads(&s.subs[i], d) {
				return true
			}
		}
	}
	return false
}

// regReaders counts the instructions reading destination d anywhere in
// code, skipping pc skip (pass -1 to skip nothing). Registers only — a
// global is observable beyond the function and never elidable.
func regReaders(code []Instr, d dst, skip int) int {
	if d.kind != srcReg {
		return -1
	}
	n := 0
	for pc := range code {
		if pc == skip {
			continue
		}
		for i := range code[pc].srcs {
			if srcReads(&code[pc].srcs[i], d) {
				n++
			}
		}
	}
	return n
}

// noEntryInto reports whether no branch, jump, switch case, or handler can
// transfer control to target, other than the fall-through from pc `from`.
// Straight-line fall-through cannot reach target either: only code[target-1]
// falls into it, and that is `from` itself.
func noEntryInto(code []Instr, hs []handler, target, from int) bool {
	for q := range code {
		if q == from {
			continue
		}
		in := &code[q]
		switch rowOf(in.opID).ctl {
		case ctlSwitch:
			if in.t1 == target {
				return false
			}
			st, ok := in.aux.(*switchTable)
			if !ok {
				return false
			}
			for _, t := range st.targets {
				if t == target {
					return false
				}
			}
		case ctlJump:
			if in.t1 == target {
				return false
			}
		case ctlBranch:
			if in.t1 == target || in.t2 == target {
				return false
			}
		}
	}
	for i := range hs {
		if hs[i].target == target {
			return false
		}
	}
	return true
}

// fuseOverlayPairs fuses `overlay.get; <compare> const +br` sequences into
// single specialized superinstructions. A pair (pc, pc+1) is eligible when
// the head falls through unconditionally to pc+1 and both pcs have
// identical handler coverage (a raise from either half resolves at the
// pair's pc). The tail stays at pc+1 as an orphan, so branches and handlers
// targeting it keep working.
func fuseOverlayPairs(tc *tierCode, hs []handler) {
	code := tc.code
	for pc := 0; pc+1 < len(code); pc++ {
		a, b := &code[pc], &code[pc+1]
		if a.t1 != pc+1 || !sameHandlers(hs, pc, pc+1) {
			continue
		}
		if in, ok := fuseOverlayPair(code, hs, pc, a, b); ok {
			in.opID, in.t1, in.t2 = pairID(a.opID, b.opID), b.t1, b.t2
			code[pc] = in
			tc.stats.Pairs++
			tc.stats.Overlay++
			pc++
		}
	}
}

// fuseOverlayPair returns the superinstruction for overlay.get a at pc
// followed by the compare-and-branch b, or false when the shapes do not fit.
func fuseOverlayPair(code []Instr, hs []handler, pc int, a, b *Instr) (Instr, bool) {
	if rowOf(a.opID) != opOverlayGet || len(a.srcs) != 1 || a.srcs[0].kind != srcReg ||
		a.d.kind != srcReg {
		return Instr{}, false
	}
	ov, okOv := a.aux.(*overlay.Overlay)
	if !okOv {
		return Instr{}, false
	}
	plan := planOverlayField(ov, a.t2)
	if plan == nil {
		return Instr{}, false
	}
	oa := &overlayCmpAux{overlayPlan: *plan, bpc: pc + 1, bd: b.d}
	var exec execFn
	switch rb := rowOf(b.opID); {
	case rb.ctl != ctlBranch:
		return Instr{}, false
	case rb.rel != relNone:
		fn, okFn := b.aux.(func(x, y int64) bool)
		if !okFn || len(b.srcs) != 2 || !plan.intFormat() {
			return Instr{}, false
		}
		if !operandIs(&b.srcs[0], a.d) || b.srcs[1].kind != srcConst ||
			b.srcs[1].val.K != values.KindInt {
			return Instr{}, false
		}
		oa.cmpFn, oa.cstInt = fn, int64(b.srcs[1].val.A)
		exec = execOvIntCmpBr
	case rb == opEqual.twin || rb == opUnequal.twin:
		if len(b.srcs) != 2 || !operandIs(&b.srcs[0], a.d) || b.srcs[1].kind != srcConst {
			return Instr{}, false
		}
		oa.cst, oa.neg = b.srcs[1].val, rb == opUnequal.twin
		exec = execOvEqualBr
		if plan.format == overlay.IPv4 {
			z := values.AddrFrom4([4]byte{})
			oa.v4hi, oa.v4lo = z.A, z.B
			oa.a4ok = oa.cst.K == values.KindAddr && oa.cst.A == z.A
			exec = execOvAddr4EqBr
		}
	case rb == opNetContains.twin:
		if len(b.srcs) != 2 || b.srcs[0].kind != srcConst ||
			b.srcs[0].val.K != values.KindNet || !operandIs(&b.srcs[1], a.d) {
			return Instr{}, false
		}
		oa.cst = b.srcs[0].val
		// Precompute the subnet mask NetContains would re-derive:
		// the leading `width` bits of the 128-bit address space.
		width := oa.cst.NetPrefixLen()
		switch {
		case width <= 0:
		case width >= 128:
			oa.maskHi, oa.maskLo = ^uint64(0), ^uint64(0)
		case width <= 64:
			oa.maskHi = ^(^uint64(0) >> uint(width))
		default:
			oa.maskHi, oa.maskLo = ^uint64(0), ^(^uint64(0) >> uint(width-64))
		}
		exec = execOvNetContainsBr
		if plan.format == overlay.IPv4 {
			z := values.AddrFrom4([4]byte{})
			oa.v4hi, oa.v4lo = z.A, z.B
			oa.a4ok = z.A&oa.maskHi == oa.cst.A
			exec = execOvAddr4NetBr
		}
	default:
		return Instr{}, false
	}
	// Verified dead-store elision. The decoded value may skip its
	// register store when nothing but the orphaned compare reads it and
	// no side entry can reach that orphan (the budget bail, the one
	// remaining path into it, materializes the value first). The
	// compare result may skip its store when nothing reads it at all —
	// the fused branch already consumed it.
	if a.d.kind != b.d.kind || a.d.idx != b.d.idx {
		oa.elideD = regReaders(code, a.d, pc+1) == 0 &&
			noEntryInto(code, hs, pc+1, pc)
		oa.elideB = regReaders(code, b.d, -1) == 0
	}
	return Instr{exec: exec, d: a.d, srcs: a.srcs, aux: oa}, true
}

// specializeOverlayGets swaps every remaining generic overlay.get —
// including pair orphans — for the planned executor. Pure strength
// reduction: same operands, same raises, one dispatch either way.
func specializeOverlayGets(tc *tierCode) {
	for pc := range tc.code {
		in := &tc.code[pc]
		if rowOf(in.opID) != opOverlayGet || len(in.srcs) != 1 || in.srcs[0].kind != srcReg {
			continue
		}
		ov, ok := in.aux.(*overlay.Overlay)
		if !ok {
			continue
		}
		plan := planOverlayField(ov, in.t2)
		if plan == nil {
			continue
		}
		in.aux = plan
		in.exec = execOverlayGetSpec
		tc.stats.Overlay++
	}
}
