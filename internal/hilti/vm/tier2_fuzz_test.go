package vm

import (
	"errors"
	"fmt"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/overlay"
	"hilti/internal/rt/values"
)

// fuzzOverlay has one field of every format tier-2 plans, packed so that
// a short packet cuts off any suffix of them.
var fuzzOverlay = overlay.New("F::H",
	overlay.Field{Name: "u8", Offset: 0, Format: overlay.UInt8},
	overlay.Field{Name: "bits", Offset: 1, Format: overlay.UInt8Bits, BitLo: 2, BitHi: 5},
	overlay.Field{Name: "u16be", Offset: 2, Format: overlay.UInt16BE},
	overlay.Field{Name: "u16le", Offset: 4, Format: overlay.UInt16LE},
	overlay.Field{Name: "u32be", Offset: 6, Format: overlay.UInt32BE},
	overlay.Field{Name: "u32le", Offset: 10, Format: overlay.UInt32LE},
	overlay.Field{Name: "ip4", Offset: 14, Format: overlay.IPv4},
	overlay.Field{Name: "port", Offset: 18, Format: overlay.PortTCP},
	overlay.Field{Name: "ip6", Offset: 20, Format: overlay.IPv6},
)

// fuzzTest builds a chain of tests from spec, three bytes each: an
// overlay.get of a field, a compare of it against a constant, and an
// if.else that goes on to the next test or returns the test's index. The
// constant is the field's value in pkt (when long enough) or one derived
// from the spec, so both branches are taken. With shared set, every
// read of one type reuses one register and every compare one result
// register, which keeps the decoded value live past the fused pair.
func fuzzTest(spec, pkt []byte, shared bool) *ast.Module {
	b := ast.NewBuilder("F")
	ovT := types.OverlayT(fuzzOverlay)
	b.DeclareType("F::H", ovT)
	fb := b.Function("f", types.Int64T, ast.Param{Name: "packet", Type: types.RefT(types.BytesT)})
	regs := map[*types.Type]ast.Operand{}
	temp := func(t *types.Type) ast.Operand {
		if r, ok := regs[t]; ok && shared {
			return r
		}
		regs[t] = fb.Temp(t)
		return regs[t]
	}
	n := min(len(spec)/3, 6)
	for i := 0; i < n; i++ {
		fsel, csel, k := spec[3*i], spec[3*i+1], spec[3*i+2]
		f := &fuzzOverlay.Fields[int(fsel)%len(fuzzOverlay.Fields)]
		cst, err := fuzzOverlay.GetIdx(pkt, int(fsel)%len(fuzzOverlay.Fields))
		fromPkt := k&1 == 0 && err == nil
		var t *types.Type
		switch f.Format {
		case overlay.IPv4, overlay.IPv6:
			t = types.AddrT
			if !fromPkt {
				cst = values.AddrFrom4([4]byte{10, 0, 0, k})
			}
		case overlay.PortTCP:
			t = types.PortT
			if !fromPkt {
				cst = values.PortVal(uint16(k), values.ProtoTCP)
			}
		default:
			t = types.Int64T
			if !fromPkt {
				cst = values.Int(int64(k >> 1))
			}
		}
		x, c := temp(t), temp(types.BoolT)
		fb.Assign(x, "overlay.get", ast.TypeOperand(ovT), ast.FieldOperand(f.Name), ast.VarOp("packet"))
		switch {
		case t == types.AddrT && csel%3 == 2:
			fb.Assign(c, "net.contains", ast.ConstOp(values.NetVal(cst, int(k>>1)%33), types.NetT), x)
		case t == types.Int64T && csel%7 < 5:
			fb.Assign(c, []string{"int.eq", "int.lt", "int.gt", "int.leq", "int.geq"}[csel%7], x, ast.ConstOp(cst, t))
		case csel%2 == 0:
			fb.Assign(c, "equal", x, ast.ConstOp(cst, t))
		default:
			fb.Assign(c, "unequal", x, ast.ConstOp(cst, t))
		}
		next, ret := fmt.Sprintf("t%d", i+1), fmt.Sprintf("r%d", i)
		if csel&0x80 != 0 {
			fb.IfElse(c, ret, next)
		} else {
			fb.IfElse(c, next, ret)
		}
		fb.Block(ret)
		fb.Return(ast.IntOp(int64(i)))
		fb.Block(next)
	}
	fb.Return(ast.IntOp(100))
	return b.M
}

// FuzzTier2Parity generates overlay-read → compare → branch programs, the
// shape tier-2 fuses, and runs each over a fuzzed packet under a fuzzed
// instruction budget at O1, at eager O2, and on code promoted at runtime
// after one tier-1 call. All three must return the same value or raise the
// same exception, having charged exactly the same number of steps: a
// fused pair that charges its second half wrongly, decodes differently or
// bails to the wrong pc shows up here.
func FuzzTier2Parity(f *testing.F) {
	ip := []byte{0x45, 0x2c, 0x08, 0x00, 0x00, 0x08, 0xde, 0xad, 0xbe, 0xef, 0xef, 0xbe, 0xad, 0xde,
		10, 1, 3, 9, 0x01, 0xbb, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	f.Add(ip, []byte{2, 0, 0, 6, 2, 0}, uint8(0), false)                   // both fields match
	f.Add(ip, []byte{2, 1, 0, 6, 0x82, 0, 8, 3, 0}, uint8(0), true)        // lt, inverted equal, shared regs
	f.Add(ip, []byte{0, 0, 0, 1, 1, 4, 3, 2, 2, 5, 4, 0}, uint8(9), false) // budget trips mid-chain
	f.Add(ip[:16], []byte{0, 0, 0, 6, 0, 0}, uint8(0), false)              // cut off: OverlayError
	f.Add(ip, []byte{6, 2, 48, 8, 2, 128, 7, 1, 7}, uint8(0), true)        // net.contains, v6, port
	f.Add(ip, []byte{0, 0, 0, 6, 1, 0}, uint8(2), true)                    // budget at a pair's bail
	f.Add([]byte{}, []byte{1, 0, 1}, uint8(1), false)                      // empty packet
	f.Fuzz(func(t *testing.T, pkt, spec []byte, budget uint8, shared bool) {
		if len(pkt) > 64 {
			pkt = pkt[:64]
		}
		type outcome struct {
			val   int64
			exc   string
			steps uint64
		}
		run := func(ex *Exec) outcome {
			ex.Limits = Limits{Instructions: uint64(budget % 32)}
			v, err := ex.Call("F::f", values.BytesVal(hbytes.NewFrom(pkt)))
			o := outcome{steps: ex.Steps()}
			if err != nil {
				var exc *values.Exception
				if !errors.As(err, &exc) {
					t.Fatalf("non-exception error %v", err)
				}
				o.exc = exc.Name + ": " + exc.Msg
			} else {
				o.val = v.AsInt()
			}
			return o
		}
		o1 := run(linkAt(t, 1, fuzzTest(spec, pkt, shared)))
		o2 := run(linkAt(t, 2, fuzzTest(spec, pkt, shared)))
		hot := linkAt(t, 1, fuzzTest(spec, pkt, shared))
		hot.EnableTiering(2)
		cold := run(hot)
		promoted := run(hot)
		if !hot.Prog.Fn("F::f").TierActive() {
			t.Fatal("not promoted after two calls")
		}
		if o1 != o2 || o1 != cold || o1 != promoted {
			t.Fatalf("spec=%x shared=%v budget=%d pkt=%x:\nO1=%+v\nO2=%+v\ncold=%+v\npromoted=%+v",
				spec, shared, budget%32, pkt, o1, o2, cold, promoted)
		}
	})
}
