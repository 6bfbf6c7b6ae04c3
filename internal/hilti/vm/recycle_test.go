package vm

import (
	"errors"
	"strings"
	"testing"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/values"
)

// recycleModule builds M::parse(data), a parse in miniature: it builds an S
// whose name is a `new bytes` filled from data, whose items a sized vector
// and whose view a sub-range of data, runs hook done(s) — whose body done
// writes — and returns. M::mk builds an S outside any recycling entry.
func recycleModule(done func(fb *ast.FuncBuilder)) *ast.Module {
	b := ast.NewBuilder("M")
	vt := types.VectorT(types.Int64T)
	st := types.StructT(&types.StructDef{Name: "S", Fields: []types.StructField{
		{Name: "name", Type: types.RefT(types.BytesT)},
		{Name: "items", Type: types.RefT(vt)},
		{Name: "view", Type: types.RefT(types.BytesT)},
	}})
	b.DeclareType("S", st)
	b.Global("g", types.AnyT)

	fb := b.Function("parse", types.VoidT, ast.Param{Name: "data", Type: types.BytesT})
	s := fb.Local("s", types.RefT(st))
	name := fb.Local("name", types.RefT(types.BytesT))
	items := fb.Local("items", types.RefT(vt))
	view := fb.Local("view", types.RefT(types.BytesT))
	it := fb.Local("it", types.IterT(types.BytesT))
	end := fb.Local("end", types.IterT(types.BytesT))
	fb.Assign(s, "new", ast.TypeOperand(st))
	fb.Assign(name, "new", ast.TypeOperand(types.BytesT))
	fb.Assign(it, "bytes.begin", ast.VarOp("data"))
	fb.Assign(end, "bytes.append_from", name, it, ast.IntOp(3))
	fb.Assign(view, "bytes.sub", it, end)
	fb.Assign(items, "new", ast.TypeOperand(vt), ast.IntOp(2))
	fb.Instr("vector.push_back", items, ast.IntOp(7))
	fb.Instr("struct.set", s, ast.FieldOperand("name"), name)
	fb.Instr("struct.set", s, ast.FieldOperand("items"), items)
	fb.Instr("struct.set", s, ast.FieldOperand("view"), view)
	fb.Instr("hook.run", ast.FuncOperand("done"), s)
	fb.ReturnVoid()

	mk := b.Function("mk", types.RefT(st))
	m := mk.Local("m", types.RefT(st))
	mk.Assign(m, "new", ast.TypeOperand(st))
	mk.Instr("struct.set", m, ast.FieldOperand("items"), ast.IntOp(1))
	mk.Return(m)

	h := b.Hook("done", 0, ast.Param{Name: "s", Type: types.AnyT})
	done(h)
	h.ReturnVoid()
	return b.M
}

// callHost is a done body that hands s to the host function "keep".
func callHost(fb *ast.FuncBuilder) { fb.Call("keep", ast.VarOp("s")) }

// TestRecycleRule: the rule accepts a closure whose only way out is a
// borrowing host, and refuses one that can keep a value it built — a hook
// that stores it in a global, hands it to a host that does not borrow, or
// inserts it into a map — or that runs host hook bodies. Re-registering
// the borrowing host as an ordinary one withdraws an answer.
func TestRecycleRule(t *testing.T) {
	noop := func(*Exec, []values.Value) (values.Value, error) { return values.Nil, nil }
	for _, c := range []struct {
		name    string
		done    func(fb *ast.FuncBuilder)
		borrows bool   // keep is registered borrowing
		hosted  bool   // done has a host body too
		refusal string // "" when the entry recycles
	}{
		{name: "borrowing host", done: callHost, borrows: true},
		{name: "constant exception", done: func(fb *ast.FuncBuilder) {
			fb.Instr("exception.throw", ast.StringOp("M::Err"), ast.StringOp("bad"))
		}},
		{name: "global", done: func(fb *ast.FuncBuilder) { fb.Set(ast.VarOp("g"), ast.VarOp("s")) },
			refusal: "touches a global"},
		{name: "host that keeps", done: callHost, refusal: `host "keep" does not borrow`},
		{name: "unregistered host", done: func(fb *ast.FuncBuilder) { fb.Call("other", ast.VarOp("s")) },
			borrows: true, refusal: `host "other" does not borrow`},
		{name: "map insert", done: func(fb *ast.FuncBuilder) {
			mt := types.MapT(types.Int64T, types.AnyT)
			m := fb.Local("m", types.RefT(mt))
			fb.Assign(m, "new", ast.TypeOperand(mt))
			fb.Instr("map.insert", m, ast.IntOp(1), ast.VarOp("s"))
		}, refusal: "map.insert: may retain an operand"},
		{name: "exception carrying s", done: func(fb *ast.FuncBuilder) { fb.Instr("exception.throw", ast.VarOp("s")) },
			refusal: "exception.throw: may retain an operand"},
		{name: "host hook body", done: callHost, borrows: true, hosted: true, refusal: "done has host bodies"},
	} {
		for level := 0; level <= 2; level++ {
			ex := linkAt(t, level, recycleModule(c.done))
			if c.borrows {
				ex.RegisterBorrowingHost("keep", noop)
			} else {
				ex.RegisterHost("keep", noop)
			}
			if c.hosted {
				ex.Hooks.Get("done").Add(func([]values.Value) (values.Value, bool) { return values.Nil, false })
			}
			fn := ex.Prog.Fn("M::parse")
			err := ex.Recycle(fn)
			switch {
			case c.refusal == "" && err != nil:
				t.Errorf("%s O%d: refused: %v", c.name, level, err)
			case c.refusal != "" && (err == nil || !strings.Contains(err.Error(), c.refusal)):
				t.Errorf("%s O%d: got %v, want a refusal naming %q", c.name, level, err, c.refusal)
			}
			if err == nil && c.borrows {
				ex.RegisterHost("keep", noop)
				if ex.rec.entries != nil {
					t.Errorf("%s O%d: replacing the borrowing host kept the answer", c.name, level)
				}
			}
		}
	}
}

// TestRecycledObjectsAreReused: a recycling entry hands out the same
// objects call after call; an entry Recycle was not asked about, and a
// non-recycling call nested in a recycling one, allocate fresh objects
// that are never reset.
func TestRecycledObjectsAreReused(t *testing.T) {
	data := values.BytesFrom([]byte("abcdef"))
	for level := 0; level <= 2; level++ {
		ex := linkAt(t, level, recycleModule(callHost))
		var seen []*values.Struct
		var nested values.Value
		ex.RegisterBorrowingHost("keep", func(ex *Exec, a []values.Value) (values.Value, error) {
			s := a[0].AsStruct()
			if got := s.Fields[0].AsBytes().String(); got != "abc" {
				t.Errorf("O%d: name %q, want abc", level, got)
			}
			if got := s.Fields[2].AsBytes().String(); got != "abc" {
				t.Errorf("O%d: view %q, want abc", level, got)
			}
			seen = append(seen, s)
			var err error
			nested, err = ex.Call("M::mk")
			return values.Nil, err
		})
		fn := ex.Prog.Fn("M::parse")
		call := func() {
			if _, err := ex.CallFn(fn, data); err != nil {
				t.Fatal(err)
			}
		}
		call()
		call()
		if seen[0] == seen[1] {
			t.Errorf("O%d: reused a struct before Recycle was asked", level)
		}
		if err := ex.Recycle(fn); err != nil {
			t.Fatal(err)
		}
		call()
		kept := nested
		call()
		if seen[2] != seen[3] {
			t.Errorf("O%d: a recycling entry built a new struct for each call", level)
		}
		if kept.AsStruct() == nested.AsStruct() || kept.AsStruct().Fields[1].AsInt() != 1 {
			t.Errorf("O%d: a non-recycling call nested in a recycling one got a recycled struct", level)
		}
		if ex.rec.scope != (recScope{}) {
			t.Errorf("O%d: scope %+v left open", level, ex.rec.scope)
		}
	}
}

// TestRecycleScopeSurvivesPanic: a Go panic through a recycling call closes
// its scope, so the next call, recycling or not, starts outside one.
func TestRecycleScopeSurvivesPanic(t *testing.T) {
	ex := linkAt(t, 1, recycleModule(callHost))
	boom := errors.New("boom")
	ex.RegisterBorrowingHost("keep", func(*Exec, []values.Value) (values.Value, error) { panic(boom) })
	fn := ex.Prog.Fn("M::parse")
	if err := ex.Recycle(fn); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("recovered %v, want the host's panic", r)
			}
		}()
		ex.CallFn(fn, values.BytesFrom([]byte("abc")))
	}()
	if ex.rec.scope != (recScope{}) {
		t.Fatalf("scope %+v left open by a panic", ex.rec.scope)
	}
	for _, o := range ex.rec.structs {
		if o.used != 0 {
			t.Fatalf("%d structs still in a dead scope", o.used)
		}
	}
}

// TestLyingBorrowerIsPoisoned: a host registered as borrowing that keeps
// the struct it is handed breaks the contract. Without the hiltipoison tag
// the next call hands the kept struct out again, so the kept value silently
// turns into the next call's; with it, the kept value reads as garbage as
// soon as the call returns.
func TestLyingBorrowerIsPoisoned(t *testing.T) {
	ex := linkAt(t, 1, recycleModule(callHost))
	var kept []*values.Struct
	ex.RegisterBorrowingHost("keep", func(_ *Exec, a []values.Value) (values.Value, error) {
		kept = append(kept, a[0].AsStruct())
		return values.Nil, nil
	})
	fn := ex.Prog.Fn("M::parse")
	if err := ex.Recycle(fn); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.CallFn(fn, values.BytesFrom([]byte("abc"))); err != nil {
		t.Fatal(err)
	}
	name := kept[0].Fields[0].AsBytes()
	if poisoned {
		if name == nil || name.String() == "abc" {
			t.Fatalf("kept name reads %v after release, want poison", name)
		}
		return
	}
	if _, err := ex.CallFn(fn, values.BytesFrom([]byte("xyz"))); err != nil {
		t.Fatal(err)
	}
	if kept[0] != kept[1] {
		t.Fatal("the kept struct was not handed out again: the lie went unnoticed by this test")
	}
}
