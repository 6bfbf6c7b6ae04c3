package vm

import (
	"strings"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/values"
)

// TestHostFnsPerExec: a call resolves its host function's name to a slot
// when it is linked, and each Exec fills that slot. A host registered after
// the link is the one called, registering it again (borrowing or not)
// replaces it, and two Execs of one Program each call their own.
func TestHostFnsPerExec(t *testing.T) {
	b := ast.NewBuilder("M")
	f := b.Function("f", types.Int64T, ast.Param{Name: "x", Type: types.Int64T})
	h := f.Local("h", types.Int64T)
	f.CallResult(h, "per_exec_host", ast.VarOp("x"))
	f.Return(h)
	prog, err := LinkWith(Options{OptLevel: 1}, b.M)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Fn("M::f")
	var exs [2]*Exec
	for i := range exs {
		if exs[i], err = NewExec(prog); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := exs[0].CallFn(fn, values.Int(1)); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("call before any registration: %v, want an unknown-function error", err)
	}
	plus := func(k int64) HostFunc {
		return func(_ *Exec, args []values.Value) (values.Value, error) {
			return values.Int(args[0].AsInt() + k), nil
		}
	}
	check := func(step string, want0, want1 int64) {
		t.Helper()
		for i, want := range []int64{want0, want1} {
			got, err := exs[i].CallFn(fn, values.Int(1))
			if err != nil || got.AsInt() != want {
				t.Fatalf("%s: Exec %d returned %v, %v; want %d", step, i, got, err, want)
			}
		}
	}
	exs[0].RegisterHost("per_exec_host", plus(10))
	exs[1].RegisterHost("per_exec_host", plus(20))
	check("registered after the link", 11, 21)
	exs[0].RegisterHost("per_exec_host", plus(30))
	check("registered again", 31, 21)
	exs[1].RegisterBorrowingHost("per_exec_host", plus(40))
	check("registered again as borrowing", 31, 41)
	exs[1].RegisterHost("per_exec_host", exs[1].HostFns["per_exec_host"])
	check("re-registered from HostFns", 31, 41)
}
