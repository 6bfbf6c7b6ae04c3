package vm

import (
	"strings"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/values"
)

// TestUnknownFieldIsAnError: a struct op on a field its struct lacks never
// does nothing. On an operand of known struct type it is a link error, at
// every level, as is a field that is not a name; on an `any` operand it
// raises Hilti::UnknownField, naming the field, and leaves the struct as
// it was.
func TestUnknownFieldIsAnError(t *testing.T) {
	sd := &types.StructDef{Name: "S", Fields: []types.StructField{{Name: "x", Type: types.Int64T, Default: values.Unset}}}
	st := types.StructT(sd)
	build := func(op string, operand *types.Type, extra ...ast.Operand) *ast.Module {
		b := ast.NewBuilder("M")
		b.DeclareType("S", st)
		fb := b.Function("f", types.AnyT, ast.Param{Name: "s", Type: operand})
		r := fb.Local("r", types.AnyT)
		fb.Assign(r, op, append([]ast.Operand{ast.VarOp("s"), ast.FieldOperand("nope")}, extra...)...)
		fb.Return(r)
		return b.M
	}
	b := ast.NewBuilder("M")
	b.DeclareType("S", st)
	fb := b.Function("f", types.AnyT, ast.Param{Name: "s", Type: types.RefT(st)}, ast.Param{Name: "n", Type: types.StringT})
	fb.Instr("struct.unset", ast.VarOp("s"), ast.VarOp("n"))
	if _, err := LinkWith(Options{OptLevel: 1}, b.M); err == nil || !strings.Contains(err.Error(), "needs a field name") {
		t.Errorf("a field named by a register: link error %v, want \"needs a field name\"", err)
	}
	for _, op := range []struct {
		name  string
		extra []ast.Operand
	}{
		{"struct.get", nil}, {"struct.get_default", []ast.Operand{ast.IntOp(1)}},
		{"struct.set", []ast.Operand{ast.IntOp(1)}}, {"struct.is_set", nil}, {"struct.unset", nil},
	} {
		for level := 0; level <= 2; level++ {
			_, err := LinkWith(Options{OptLevel: level}, build(op.name, types.RefT(st), op.extra...))
			if err == nil || !strings.Contains(err.Error(), "struct S has no field nope") {
				t.Errorf("O%d %s on a typed operand: link error %v, want \"struct S has no field nope\"", level, op.name, err)
			}
			ex := linkAt(t, level, build(op.name, types.AnyT, op.extra...))
			s := values.NewStruct(sd.Runtime())
			s.Fields[0] = values.Int(5)
			_, err = ex.Call("M::f", values.StructVal(s))
			if e, ok := err.(*values.Exception); !ok || e.Name != "Hilti::UnknownField" || !strings.Contains(e.Msg, "nope") {
				t.Errorf("O%d %s on an any operand: %v, want Hilti::UnknownField naming the field", level, op.name, err)
			}
			if s.Fields[0].AsInt() != 5 {
				t.Errorf("O%d %s: the struct changed to %s", level, op.name, values.Format(values.StructVal(s)))
			}
		}
	}
}
