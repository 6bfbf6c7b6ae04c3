// Disassembly of compiled functions, for debugging and for the golden
// optimizer tests: a stable, line-oriented text rendering of the linear
// code plus handler table. DisasmTier renders the tier-2 view of the same
// pcs, where fused overlay compares show as superinstruction names.

package vm

import (
	"fmt"
	"strings"

	"hilti/internal/rt/values"
)

// Disasm renders fn's code as one instruction per line:
//
//	0003 int.eq          r2 <- r1, c:2048 ; t1=5 t2=9
//
// Destinations and sources print as rN (register), gN (global), c:<value>
// (constant), or ctor(...); a two-destination instruction (splitTuples in
// opt.go) prints both, "r7, r12 <- r1". Control targets print only when
// they carry information: t1 when it is not the fallthrough pc, t2 for
// branches.
// Exception handlers follow the code as "handler [start,end) -> target".
func (fn *CompiledFunc) Disasm() string {
	return fn.disasm(fn.Code)
}

// DisasmTier renders fn's tier-2 code when published, falling back to the
// tier-1 rendering otherwise. The format is Disasm's; a fused overlay
// compare prints as its superinstruction name ("overlay.get+int.eq+br").
func (fn *CompiledFunc) DisasmTier() string {
	return fn.disasm(fn.code())
}

func (fn *CompiledFunc) disasm(code []Instr) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (params=%d regs=%d)\n", fn.Name, fn.NParams, fn.NRegs)
	for pc := range code {
		in := &code[pc]
		fmt.Fprintf(&sb, "%04d %-18s", pc, opName(in.opID))
		operands := make([]string, 0, len(in.srcs))
		for i := range in.srcs {
			operands = append(operands, srcString(&in.srcs[i]))
		}
		switch {
		case in.d2 != 0:
			fmt.Fprintf(&sb, " %s, r%d <- %s", dstString(in.d), in.d2, strings.Join(operands, ", "))
		case in.d.kind != srcNone && len(operands) > 0:
			fmt.Fprintf(&sb, " %s <- %s", dstString(in.d), strings.Join(operands, ", "))
		case in.d.kind != srcNone:
			fmt.Fprintf(&sb, " %s", dstString(in.d))
		case len(operands) > 0:
			fmt.Fprintf(&sb, " %s", strings.Join(operands, ", "))
		}
		ctrl := controlString(in, pc)
		if ctrl != "" {
			sb.WriteString(" ; " + ctrl)
		}
		sb.WriteByte('\n')
	}
	for i := range fn.Handlers {
		h := &fn.Handlers[i]
		fmt.Fprintf(&sb, "handler [%04d,%04d) -> %04d", h.start, h.end, h.target)
		if h.excName != "" {
			fmt.Fprintf(&sb, " catch %s", h.excName)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func dstString(d dst) string {
	switch d.kind {
	case srcReg:
		return fmt.Sprintf("r%d", d.idx)
	case srcGlobal:
		return fmt.Sprintf("g%d", d.idx)
	default:
		return "_"
	}
}

func srcString(s *src) string {
	switch s.kind {
	case srcCtor:
		elems := make([]string, len(s.subs))
		for i := range s.subs {
			elems[i] = srcString(&s.subs[i])
		}
		return "ctor(" + strings.Join(elems, ", ") + ")"
	case srcConst:
		return "c:" + values.Format(s.val)
	default:
		return dstString(dst{kind: s.kind, idx: s.idx})
	}
}

func controlString(in *Instr, pc int) string {
	switch ctl := rowOf(in.opID).ctl; {
	case ctl == ctlReturn:
		return ""
	case ctl == ctlBranch:
		return fmt.Sprintf("t1=%d t2=%d", in.t1, in.t2)
	case ctl == ctlSwitch:
		tbl, _ := in.aux.(*switchTable)
		parts := []string{fmt.Sprintf("default=%d", in.t1)}
		if tbl != nil {
			for i, v := range tbl.vals {
				parts = append(parts, fmt.Sprintf("%s=>%d", values.Format(v), tbl.targets[i]))
			}
		}
		return strings.Join(parts, " ")
	case in.t1 != pc+1:
		return fmt.Sprintf("t1=%d", in.t1)
	default:
		return ""
	}
}
