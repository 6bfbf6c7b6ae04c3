//go:build !race

package vm

import (
	"fmt"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/values"
)

// TestHeapValuesAreOneObject: a heap value is one allocation, its header
// and its first storage together, as `new` is in the paper's C runtime. A
// struct of up to 16 fields, a tuple of up to 4 elements, a vector sized
// for up to 4 elements and filled to that size, and a `new bytes` rope
// built by appends of up to 32 bytes each cost exactly one object. A
// 17-field struct is the fallback: a header and an array.
func TestHeapValuesAreOneObject(t *testing.T) {
	b := ast.NewBuilder("M")
	type call struct {
		fn     string
		args   []values.Value
		allocs float64
	}
	var calls []call
	for _, n := range []int{3, 9, 14, 16, 17} {
		def := &types.StructDef{Name: fmt.Sprintf("S%d", n)}
		for i := range n {
			def.Fields = append(def.Fields, types.StructField{Name: fmt.Sprintf("f%d", i), Type: types.Int64T})
		}
		st := types.StructT(def)
		b.DeclareType(def.Name, st)
		fb := b.Function(fmt.Sprintf("struct%d", n), types.RefT(st))
		s := fb.Local("s", types.RefT(st))
		fb.Assign(s, "new", ast.TypeOperand(st))
		fb.Return(s)
		c := call{fn: "M::struct" + fmt.Sprint(n), allocs: 1}
		if n > 16 {
			c.allocs = 2 // the fallback: a header and an array
		}
		calls = append(calls, c)
	}
	for _, n := range []int{2, 4} {
		elems := make([]ast.Operand, n)
		params := make([]ast.Param, n)
		tt := make([]*types.Type, n)
		args := make([]values.Value, n)
		for i := range n {
			params[i] = ast.Param{Name: fmt.Sprintf("a%d", i), Type: types.Int64T}
			elems[i], tt[i], args[i] = ast.VarOp(params[i].Name), types.Int64T, values.Int(int64(i))
		}
		g := fmt.Sprintf("g%d", n)
		b.Global(g, types.TupleT(tt...))
		fb := b.Function(fmt.Sprintf("tuple%d", n), types.VoidT, params...)
		fb.Set(ast.VarOp(g), ast.TupleOp(elems...))
		fb.ReturnVoid()
		calls = append(calls, call{fn: "M::tuple" + fmt.Sprint(n), args: args, allocs: 1})
	}
	for n := range 5 {
		vt := types.VectorT(types.AnyT)
		fb := b.Function(fmt.Sprintf("vector%d", n), types.RefT(vt))
		v := fb.Local("v", types.RefT(vt))
		fb.Assign(v, "new", ast.TypeOperand(vt), ast.IntOp(int64(n)))
		for i := range n {
			fb.Instr("vector.push_back", v, ast.IntOp(int64(i)))
		}
		fb.Return(v)
		calls = append(calls, call{fn: "M::vector" + fmt.Sprint(n), allocs: 1})
	}
	{
		// Two appends that fill the 32-byte tail exactly.
		fb := b.Function("name", types.RefT(types.BytesT), ast.Param{Name: "data", Type: types.BytesT})
		out := fb.Local("out", types.RefT(types.BytesT))
		it := fb.Local("it", types.IterT(types.BytesT))
		fb.Assign(out, "new", ast.TypeOperand(types.BytesT))
		fb.Assign(it, "bytes.begin", ast.VarOp("data"))
		fb.Assign(it, "bytes.append_from", out, it, ast.IntOp(10))
		fb.Assign(it, "bytes.append_from", out, it, ast.IntOp(22))
		fb.Return(out)
		calls = append(calls, call{fn: "M::name", args: []values.Value{values.BytesFrom(make([]byte, 40))}, allocs: 1})
	}

	for level := 0; level <= 2; level++ {
		ex := linkAt(t, level, b.M)
		for _, c := range calls {
			fn := ex.Prog.Fn(c.fn)
			var err error
			n := testing.AllocsPerRun(100, func() { _, err = ex.CallFn(fn, c.args...) })
			if err != nil {
				t.Fatalf("O%d %s: %v", level, c.fn, err)
			}
			if n != c.allocs {
				t.Errorf("O%d %s: %v allocs per call, want %v", level, c.fn, n, c.allocs)
			}
		}
	}
}
