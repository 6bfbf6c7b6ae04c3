// The BinPAC++ compiler: grammars -> HILTI modules. For each unit it emits
// a struct type (the parsed PDU object handed to the host application, cf.
// the paper's Figure 6(b)) and an incremental parse function
//
//	parse_<Unit>(self ref<U>, cur iterator<bytes>, params...) -> iterator<bytes>
//
// plus a host-facing entry point `<Unit>_parse(data ref<bytes>) -> ref<U>`
// for the top-level unit. All input access goes through would-block-aware
// runtime operations, so running the entry point inside a fiber yields a
// parser that suspends whenever it exhausts the currently available bytes
// and transparently resumes later — the paper's "fully incremental
// LL(1)-parsers" with no manual buffering layer.

package binpac

import (
	"fmt"
	"slices"
	"strings"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	hregexp "hilti/internal/rt/regexp"
	"hilti/internal/rt/values"
)

// ParseErrorName is the exception raised on grammar mismatch.
const ParseErrorName = "BinPAC::ParseError"

// Compile translates a grammar into a HILTI module named after it.
func Compile(g *Grammar) (*ast.Module, error) { return compile(g, true) }

// CompileFieldByField is Compile without layout lowering: every field gets
// its own instructions. It is the reference Compile's runs are tested
// against.
func CompileFieldByField(g *Grammar) (*ast.Module, error) { return compile(g, false) }

func compile(g *Grammar, runs bool) (*ast.Module, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	c := &compiler{g: g, b: ast.NewBuilder(g.Name), structs: map[string]*types.Type{}, runs: runs,
		begin: g.passesBegin()}
	// Declare all unit struct types first (units may reference each other).
	for _, u := range g.Units {
		st, err := c.structType(u)
		if err != nil {
			return nil, err
		}
		c.structs[u.Name] = st
		c.b.DeclareType(u.Name, st)
	}
	for _, u := range g.Units {
		if err := c.unitParser(u); err != nil {
			return nil, fmt.Errorf("binpac: unit %s: %w", u.Name, err)
		}
	}
	if err := c.entryPoint(g.Unit(g.Top)); err != nil {
		return nil, err
	}
	return c.b.M, nil
}

type compiler struct {
	g       *Grammar
	b       *ast.Builder
	structs map[string]*types.Type
	relbl   int
	runs    bool // lower runs of fixed-width fields by layout (emitFields)
	// begin: a field passes %begin (passesBegin), so each parse function
	// keeps the position it started at. Without one no input before the
	// current position is read again, and the parser drops what it has
	// consumed — after each streamed piece and between top-level messages —
	// so a parked parse holds no more input than it has yet to parse.
	begin bool
}

// fieldValueType maps a field to the struct-field type storing its value.
func (c *compiler) fieldValueType(f *Field) *types.Type {
	switch f.Kind {
	case FToken, FBytes, FBytesUntil, FRestOfData, FCustom:
		return types.BytesT
	case FUInt:
		return types.Int64T
	case FSubUnit:
		return types.RefT(c.structs[f.Unit].Deref())
	case FList:
		return types.RefT(types.VectorT(c.fieldValueType(f.Elem)))
	default:
		return types.AnyT
	}
}

// alt is one alternative of a switch field: a case index, or -1 for the
// default.
type alt struct {
	sw *Field
	i  int
}

// exclusive reports whether fields reached through alternative paths p and
// q never both parse: where the paths first part, they take different
// alternatives of one switch.
func exclusive(p, q []alt) bool {
	for i := 0; i < len(p) && i < len(q); i++ {
		if p[i] != q[i] {
			return p[i].sw == q[i].sw
		}
	}
	return false
}

func (c *compiler) structType(u *Unit) (*types.Type, error) {
	def := &types.StructDef{Name: u.Name}
	add := func(name string, t *types.Type, dflt values.Value) error {
		if def.Index(name) >= 0 {
			return fmt.Errorf("duplicate member %q", name)
		}
		def.Fields = append(def.Fields, types.StructField{Name: name, Type: t, Default: dflt})
		return nil
	}
	// Collect named fields (including those inside switch alternatives).
	// The runtime struct needs names and defaults; precise value types are
	// advisory in this backend, so unresolved sub-unit types stay nil here.
	// A name may repeat across alternatives of one switch: only one of them
	// parses, so they share one member, as a P4 header_union's members do.
	paths := map[string][][]alt{} // every alternative path a name was seen on
	var walk func(fs []*Field, path []alt) error
	walk = func(fs []*Field, path []alt) error {
		for _, f := range fs {
			if f.Kind == FSwitch {
				for i, cs := range f.Cases {
					if err := walk(cs.Fields, append(path[:len(path):len(path)], alt{f, i})); err != nil {
						return err
					}
				}
				if err := walk(f.Default, append(path[:len(path):len(path)], alt{f, -1})); err != nil {
					return err
				}
				continue
			}
			if f.Name == "" || f.Stream {
				continue
			}
			seen := paths[f.Name]
			for _, p := range seen {
				if !exclusive(p, path) {
					return fmt.Errorf("duplicate member %q", f.Name)
				}
			}
			paths[f.Name] = append(seen, path)
			if len(seen) == 0 {
				if err := add(f.Name, nil, values.Unset); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(u.Fields, nil); err != nil {
		return nil, err
	}
	for _, v := range u.Vars {
		var t *types.Type
		var d values.Value
		switch v.Type {
		case VarInt:
			t, d = types.Int64T, values.Int(v.Default)
		case VarBool:
			t, d = types.BoolT, values.Bool(v.Default != 0)
		case VarDigest:
			t, d = types.DigestT, values.Unset
		default:
			t, d = types.BytesT, values.Unset
		}
		if err := add(v.Name, t, d); err != nil {
			return nil, err
		}
	}
	return types.StructT(def), nil
}

// unitParser emits parse_<Unit>.
func (c *compiler) unitParser(u *Unit) error {
	params := []ast.Param{
		{Name: "self", Type: types.RefT(c.structs[u.Name].Deref())},
		{Name: "cur", Type: types.IterT(types.BytesT)},
	}
	for _, p := range u.Params {
		params = append(params, ast.Param{Name: p, Type: types.IterT(types.BytesT)})
	}
	fb := c.b.Function("parse_"+u.Name, types.IterT(types.BytesT), params...)
	if c.begin {
		fb.Set(fb.Local("__begin", types.IterT(types.BytesT)), ast.VarOp("cur"))
	}
	ec := &emitCtx{c: c, u: u, fb: fb}
	if err := ec.emitFields(u.Fields); err != nil {
		return err
	}
	if u.HookDone {
		ec.runHook(u.Name + "::%done")
	}
	fb.Return(ast.VarOp("cur"))
	return nil
}

// entryPoint emits <Top>_parse(data) -> ref<Top>.
func (c *compiler) entryPoint(top *Unit) error {
	fb := c.b.Function(top.Name+"_parse", types.RefT(c.structs[top.Name].Deref()),
		ast.Param{Name: "data", Type: types.RefT(types.BytesT)})
	self := fb.Local("self", types.RefT(c.structs[top.Name].Deref()))
	cur := fb.Local("cur", types.IterT(types.BytesT))
	fb.Assign(self, "new", ast.TypeOperand(c.structs[top.Name]))
	fb.Assign(cur, "bytes.begin", ast.VarOp("data"))
	args := []ast.Operand{ast.FuncOperand("parse_" + top.Name), self, cur}
	for range top.Params {
		args = append(args, cur) // top-level params default to input start
	}
	fb.Assign(cur, "call", args...)
	fb.Return(self)
	return nil
}

// emitCtx emits parsing code for one unit body.
type emitCtx struct {
	c  *compiler
	u  *Unit
	fb *ast.FuncBuilder
}

func (ec *emitCtx) label(prefix string) string {
	ec.c.relbl++
	return fmt.Sprintf("__%s%d", prefix, ec.c.relbl)
}

// store assigns a parsed value into self.<name> (or discards it) and runs
// the field hook.
func (ec *emitCtx) store(f *Field, val ast.Operand) {
	if f.Name != "" {
		ec.fb.Instr("struct.set", ast.VarOp("self"), ast.FieldOperand(f.Name), val)
	}
	if f.Hook {
		ec.runHook(ec.u.Name + "::" + f.Name)
	}
}

// runHook emits a hook invocation receiving self plus the unit's
// parameters, so semantic hook bodies can reach enclosing-unit state (the
// HTTP grammar's Header hooks write into their parent message), then extra
// (a streamed field's piece).
func (ec *emitCtx) runHook(name string, extra ...ast.Operand) {
	args := []ast.Operand{ast.FuncOperand(name), ast.VarOp("self")}
	for _, p := range ec.u.Params {
		args = append(args, ast.VarOp(p))
	}
	ec.fb.Instr("hook.run", append(args, extra...)...)
}

// srcOperand resolves an integer Src into an operand (possibly emitting a
// struct.get).
func (ec *emitCtx) srcOperand(s Src) ast.Operand {
	switch {
	case s.Var != "":
		t := ec.fb.Temp(types.Int64T)
		ec.fb.Assign(t, "struct.get", ast.VarOp("self"), ast.FieldOperand(s.Var))
		return t
	case s.Field != "":
		t := ec.fb.Temp(types.Int64T)
		ec.fb.Assign(t, "struct.get", ast.VarOp("self"), ast.FieldOperand(s.Field))
		return t
	default:
		return ast.IntOp(s.Const)
	}
}

// argOperand resolves a sub-unit / custom-function argument name: the
// distinguished %begin iterator, a unit variable or earlier field (loaded
// from self), or a unit parameter.
func (ec *emitCtx) argOperand(name string) ast.Operand {
	switch {
	case name == "%begin":
		return ast.VarOp("__begin")
	case ec.u.hasVar(name) || ec.u.hasField(name):
		t := ec.fb.Temp(types.AnyT)
		ec.fb.Assign(t, "struct.get", ast.VarOp("self"), ast.FieldOperand(name))
		return t
	default:
		return ast.VarOp(name) // unit parameter or local
	}
}

// regexpConst compiles pattern to a constant operand and reports whether it
// matches the empty string: a token of such a pattern always matches.
func regexpConst(pattern string) (op ast.Operand, nullable bool, err error) {
	re, err := hregexp.Compile(pattern)
	if err != nil {
		return ast.Operand{}, false, err
	}
	id, _ := re.Match(nil)
	return ast.ConstOp(values.Ref(values.KindRegExp, re), types.RegExpT), id != 0, nil
}

// emitFields emits a unit's (or a switch case's) field list. A maximal run
// of two or more adjacent fixed-width integers without hooks is lowered by
// its layout: one unpack.fields reads the run with one bounds check and
// stores every field, where field-by-field code would take an unpack, two
// tuple.index moves and a struct.set each — the P4 backends' merge of
// parser states that extract adjacent fixed-width headers.
func (ec *emitCtx) emitFields(fs []*Field) error {
	for len(fs) > 0 {
		n := 0
		for ec.c.runs && n < len(fs) && fs[n].Kind == FUInt && !fs[n].Hook {
			n++
		}
		if n < 2 {
			if err := ec.emitField(fs[0]); err != nil {
				return err
			}
			fs = fs[1:]
			continue
		}
		layout := make([]string, n)
		for i, f := range fs[:n] {
			layout[i] = f.Name + ":" + strings.TrimPrefix(uintOp(f), "unpack.")
		}
		ec.fb.Assign(ast.VarOp("cur"), "unpack.fields", ast.VarOp("self"), ast.VarOp("cur"),
			ast.StringOp(strings.Join(layout, " ")))
		fs = fs[n:]
	}
	return nil
}

// uintOp names the unpack instruction of a fixed-width integer field.
func uintOp(f *Field) string {
	op := fmt.Sprintf("unpack.uint%d", f.Width)
	if f.Width > 8 {
		if f.Little {
			op += "le"
		} else {
			op += "be"
		}
	}
	return op
}

func (ec *emitCtx) emitField(f *Field) error {
	fb := ec.fb
	switch f.Kind {
	case FToken, FLiteral:
		reOp, nullable, err := regexpConst(f.Pattern)
		if err != nil {
			return err
		}
		tup := fb.Temp(types.TupleT(types.Int64T, types.IterT(types.BytesT)))
		fb.Assign(tup, "regexp.match_token", reOp, ast.VarOp("cur"))
		if !nullable {
			id := fb.Temp(types.Int64T)
			ok := fb.Temp(types.BoolT)
			fb.Assign(id, "tuple.index", tup, ast.IntOp(0))
			fb.Assign(ok, "int.gt", id, ast.IntOp(0))
			okL, failL := ec.label("tok_ok"), ec.label("tok_fail")
			fb.IfElse(ok, okL, failL)
			fb.Block(failL)
			fb.Instr("exception.throw", ast.StringOp(ParseErrorName),
				ast.StringOp(fmt.Sprintf("%s: expected /%s/", ec.u.Name, f.Pattern)))
			fb.Block(okL)
		}
		if f.Kind == FToken && f.Name != "" {
			end := fb.Temp(types.IterT(types.BytesT))
			val := fb.Temp(types.BytesT)
			fb.Assign(end, "tuple.index", tup, ast.IntOp(1))
			fb.Assign(val, "bytes.sub", ast.VarOp("cur"), end)
			fb.Set(ast.VarOp("cur"), end)
			ec.store(f, val)
		} else {
			fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
			ec.store(f, ast.Operand{})
		}
		return nil

	case FUInt:
		tup := fb.Temp(types.TupleT(types.Int64T, types.IterT(types.BytesT)))
		val := fb.Temp(types.Int64T)
		fb.Assign(tup, uintOp(f), ast.VarOp("cur"))
		fb.Assign(val, "tuple.index", tup, ast.IntOp(0))
		fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
		ec.store(f, val)
		return nil

	case FBytes:
		n := ec.srcOperand(f.Length)
		if f.Stream {
			ec.emitStream(f, n)
			return nil
		}
		tup := fb.Temp(types.TupleT(types.BytesT, types.IterT(types.BytesT)))
		val := fb.Temp(types.BytesT)
		fb.Assign(tup, "unpack.bytes", ast.VarOp("cur"), n)
		fb.Assign(val, "tuple.index", tup, ast.IntOp(0))
		fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
		ec.store(f, val)
		return nil

	case FBytesUntil:
		ftup := fb.Temp(types.TupleT(types.BoolT, types.IterT(types.BytesT)))
		found := fb.Temp(types.BoolT)
		pos := fb.Temp(types.IterT(types.BytesT))
		fb.Assign(ftup, "bytes.find_from", ast.VarOp("cur"),
			ast.ConstOp(values.BytesFrom([]byte(f.Delim)), types.BytesT))
		fb.Assign(found, "tuple.index", ftup, ast.IntOp(0))
		okL, failL := ec.label("until_ok"), ec.label("until_fail")
		fb.IfElse(found, okL, failL)
		fb.Block(failL)
		fb.Instr("exception.throw", ast.StringOp(ParseErrorName),
			ast.StringOp(fmt.Sprintf("%s: missing delimiter %q", ec.u.Name, f.Delim)))
		fb.Block(okL)
		fb.Assign(pos, "tuple.index", ftup, ast.IntOp(1))
		val := fb.Temp(types.BytesT)
		fb.Assign(val, "bytes.sub", ast.VarOp("cur"), pos)
		fb.Assign(ast.VarOp("cur"), "iterator.incr_by", pos, ast.IntOp(int64(len(f.Delim))))
		ec.store(f, val)
		return nil

	case FRestOfData:
		if f.Stream {
			ec.emitStream(f, ast.Operand{})
			return nil
		}
		endIt := fb.Temp(types.IterT(types.BytesT))
		val := fb.Temp(types.BytesT)
		fb.Instr("bytes.wait_frozen", ast.VarOp("cur"))
		// cur's rope: reconstruct end iterator via bytes.end of the data the
		// iterator points into; iterator ops carry their rope, so take the
		// end via sub to the distinguished end.
		fb.Assign(endIt, "iterator.end_of", ast.VarOp("cur"))
		fb.Assign(val, "bytes.sub", ast.VarOp("cur"), endIt)
		fb.Set(ast.VarOp("cur"), endIt)
		ec.store(f, val)
		return nil

	case FSubUnit:
		sub := fb.Temp(types.RefT(ec.c.structs[f.Unit].Deref()))
		fb.Assign(sub, "new", ast.TypeOperand(ec.c.structs[f.Unit]))
		args := []ast.Operand{ast.FuncOperand("parse_" + f.Unit), sub, ast.VarOp("cur")}
		for _, a := range f.UnitArgs {
			args = append(args, ec.argOperand(a))
		}
		fb.Assign(ast.VarOp("cur"), "call", args...)
		ec.store(f, sub)
		return nil

	case FList:
		var i, n ast.Operand
		if f.Mode == ListCount {
			i = fb.Temp(types.Int64T)
			fb.Set(i, ast.IntOp(0))
			n = ec.srcOperand(f.Count)
		}
		var vec ast.Operand
		if f.Name != "" {
			vec = fb.Temp(types.RefT(types.VectorT(types.AnyT)))
			newOps := []ast.Operand{ast.TypeOperand(types.VectorT(types.AnyT))}
			if f.Mode == ListCount {
				newOps = append(newOps, n) // sized for its count
			}
			fb.Assign(vec, "new", newOps...)
		}
		loopL, bodyL, doneL := ec.label("loop"), ec.label("body"), ec.label("done")
		fb.Jump(loopL)
		fb.Block(loopL)
		switch f.Mode {
		case ListCount:
			cond := fb.Temp(types.BoolT)
			fb.Assign(cond, "int.lt", i, n)
			fb.IfElse(cond, bodyL, doneL)
		case ListUntilLiteral:
			reOp, _, err := regexpConst(f.Until)
			if err != nil {
				return err
			}
			tup := fb.Temp(types.TupleT(types.Int64T, types.IterT(types.BytesT)))
			id := fb.Temp(types.Int64T)
			hit := fb.Temp(types.BoolT)
			fb.Assign(tup, "regexp.match_token", reOp, ast.VarOp("cur"))
			fb.Assign(id, "tuple.index", tup, ast.IntOp(0))
			fb.Assign(hit, "int.gt", id, ast.IntOp(0))
			consumeL := ec.label("term")
			fb.IfElse(hit, consumeL, bodyL)
			fb.Block(consumeL)
			fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
			fb.Jump(doneL)
		case ListUntilEnd:
			if !ec.c.begin && !ec.c.g.parses(ec.u.Name) {
				fb.Instr("bytes.trim_to", ast.VarOp("cur")) // a message boundary
			}
			atEnd := fb.Temp(types.BoolT)
			fb.Assign(atEnd, "iterator.at_end", ast.VarOp("cur"))
			fb.IfElse(atEnd, doneL, bodyL)
		}
		fb.Block(bodyL)
		elem := *f.Elem
		elemTmpName := ec.label("elem")
		elem.Name = "" // element value handled below, not stored on self
		var elemVal ast.Operand
		if name, ok := ec.elemFunc(f); ok {
			args := []ast.Operand{ast.FuncOperand(name), ast.VarOp("cur")}
			for _, p := range ec.u.Params {
				args = append(args, ast.VarOp(p))
			}
			fb.Assign(ast.VarOp("cur"), "call", args...)
		} else if f.Name != "" {
			// Parse the element into a temporary by giving it a synthetic
			// named target: emit as unnamed, capturing the value.
			var err error
			elemVal, err = ec.emitElem(&elem, elemTmpName)
			if err != nil {
				return err
			}
			fb.Instr("vector.push_back", vec, elemVal)
		} else {
			if _, err := ec.emitElem(&elem, elemTmpName); err != nil {
				return err
			}
		}
		if f.Elem.Hook {
			ec.runHook(ec.u.Name + "::" + f.Name + "_elem")
		}
		if f.Mode == ListCount {
			fb.Assign(i, "int.add", i, ast.IntOp(1))
		}
		fb.Jump(loopL)
		fb.Block(doneL)
		if f.Name != "" {
			ec.store(&Field{Name: f.Name, Hook: f.Hook}, vec)
		} else if f.Hook {
			ec.runHook(ec.u.Name + "::" + f.Name)
		}
		return nil

	case FSwitch:
		sel := ec.srcOperand(f.On)
		doneL := ec.label("sw_done")
		dfltL := ec.label("sw_dflt")
		ops := []ast.Operand{sel, ast.LabelOp(dfltL)}
		caseLabels := make([]string, len(f.Cases))
		for i, cs := range f.Cases {
			caseLabels[i] = ec.label("sw_case")
			ops = append(ops, ast.Operand{Kind: ast.CtorOp, Elems: []ast.Operand{
				ast.IntOp(cs.Value), ast.LabelOp(caseLabels[i]),
			}})
		}
		fb.Instr("switch", ops...)
		for i, cs := range f.Cases {
			fb.Block(caseLabels[i])
			if err := ec.emitFields(cs.Fields); err != nil {
				return err
			}
			fb.Jump(doneL)
		}
		fb.Block(dfltL)
		if err := ec.emitFields(f.Default); err != nil {
			return err
		}
		fb.Block(doneL)
		if f.Hook {
			ec.runHook(ec.u.Name + "::" + f.Name)
		}
		return nil

	case FCustom:
		tup := fb.Temp(types.TupleT(types.BytesT, types.IterT(types.BytesT)))
		val := fb.Temp(types.BytesT)
		args := []ast.Operand{ast.FuncOperand(f.Func)}
		for _, a := range f.FuncArgs {
			args = append(args, ec.argOperand(a))
		}
		args = append(args, ast.VarOp("cur"))
		fb.Assign(tup, "call", args...)
		fb.Assign(val, "tuple.index", tup, ast.IntOp(0))
		fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
		ec.store(f, val)
		return nil

	default:
		return fmt.Errorf("unsupported field kind %d", f.Kind)
	}
}

// emitStream lowers a streamed field to a loop that hands each available
// piece of its input — a view of one rope chunk, at most the bytes still due
// — to the field's hook (bytes.piece). A field with a length (n) ends when
// the pieces have covered it; one without runs to the frozen end of input,
// where bytes.piece yields an empty piece (n is zero). The piece's register
// is cleared after the hook, so a parse parked in the loop holds no piece.
func (ec *emitCtx) emitStream(f *Field, n ast.Operand) {
	fb := ec.fb
	piece := fb.Temp(types.BytesT)
	got := fb.Temp(types.Int64T)
	cond := fb.Temp(types.BoolT)
	loopL, bodyL, doneL := ec.label("stream"), ec.label("piece"), ec.label("stream_done")
	limit := ast.IntOp(-1)
	if !n.IsZero() {
		limit = fb.Temp(types.Int64T)
		fb.Set(limit, n)
	}
	fb.Jump(loopL)
	fb.Block(loopL)
	if !n.IsZero() {
		fb.Assign(cond, "int.gt", limit, ast.IntOp(0))
		fb.IfElse(cond, bodyL, doneL)
		fb.Block(bodyL)
	}
	fb.Assign(piece, "bytes.piece", ast.VarOp("cur"), limit)
	fb.Assign(got, "bytes.length", piece)
	if !n.IsZero() {
		fb.Assign(limit, "int.sub", limit, got)
	} else {
		fb.Assign(cond, "int.eq", got, ast.IntOp(0))
		fb.IfElse(cond, doneL, bodyL)
		fb.Block(bodyL)
	}
	fb.Assign(ast.VarOp("cur"), "iterator.incr_by", ast.VarOp("cur"), got)
	if f.Hook {
		ec.runHook(ec.u.Name+"::"+f.Name, piece)
	}
	fb.Set(piece, ast.ConstOp(values.Nil, types.BytesT))
	if !ec.c.begin {
		fb.Instr("bytes.trim_to", ast.VarOp("cur"))
	}
	fb.Jump(loopL)
	fb.Block(doneL)
}

// elemFunc emits parse_<Unit>_elem(cur, params...) -> iterator<bytes> for
// the list-until-end of sub-units of a unit no other unit parses, as each of
// HTTP's two lists of messages is: it builds one element and parses it, so
// nothing the element's parse builds outlives the function, and a host may
// have a call of it recycle those objects (vm.Exec.Recycle). It reports
// false for any other list, whose elements the list's loop parses itself:
// one stored in a vector, one with a hook, or one whose arguments are not
// all unit parameters.
func (ec *emitCtx) elemFunc(f *Field) (string, bool) {
	u, elem := ec.u, f.Elem
	if f.Mode != ListUntilEnd || ec.c.g.parses(u.Name) || f.Name != "" || elem.Kind != FSubUnit || elem.Hook {
		return "", false
	}
	for _, a := range elem.UnitArgs {
		if a == "%begin" || u.hasVar(a) || u.hasField(a) || !slices.Contains(u.Params, a) {
			return "", false
		}
	}
	name := "parse_" + u.Name + "_elem"
	params := []ast.Param{{Name: "cur", Type: types.IterT(types.BytesT)}}
	for _, p := range u.Params {
		params = append(params, ast.Param{Name: p, Type: types.IterT(types.BytesT)})
	}
	fb := ec.c.b.Function(name, types.IterT(types.BytesT), params...)
	st := ec.c.structs[elem.Unit]
	sub := fb.Temp(types.RefT(st.Deref()))
	fb.Assign(sub, "new", ast.TypeOperand(st))
	args := []ast.Operand{ast.FuncOperand("parse_" + elem.Unit), sub, ast.VarOp("cur")}
	for _, a := range elem.UnitArgs {
		args = append(args, ast.VarOp(a))
	}
	fb.Assign(ast.VarOp("cur"), "call", args...)
	fb.Return(ast.VarOp("cur"))
	return name, true
}

// emitElem parses a list element, returning the operand holding its value.
func (ec *emitCtx) emitElem(elem *Field, tmpName string) (ast.Operand, error) {
	fb := ec.fb
	switch elem.Kind {
	case FSubUnit:
		sub := fb.Temp(types.RefT(ec.c.structs[elem.Unit].Deref()))
		fb.Assign(sub, "new", ast.TypeOperand(ec.c.structs[elem.Unit]))
		args := []ast.Operand{ast.FuncOperand("parse_" + elem.Unit), sub, ast.VarOp("cur")}
		for _, a := range elem.UnitArgs {
			args = append(args, ec.argOperand(a))
		}
		fb.Assign(ast.VarOp("cur"), "call", args...)
		return sub, nil
	case FUInt:
		tup := fb.Temp(types.TupleT(types.Int64T, types.IterT(types.BytesT)))
		val := fb.Temp(types.Int64T)
		fb.Assign(tup, uintOp(elem), ast.VarOp("cur"))
		fb.Assign(val, "tuple.index", tup, ast.IntOp(0))
		fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
		return val, nil
	case FToken:
		reOp, _, err := regexpConst(elem.Pattern)
		if err != nil {
			return ast.Operand{}, err
		}
		tup := fb.Temp(types.TupleT(types.Int64T, types.IterT(types.BytesT)))
		id := fb.Temp(types.Int64T)
		ok := fb.Temp(types.BoolT)
		end := fb.Temp(types.IterT(types.BytesT))
		val := fb.Temp(types.BytesT)
		fb.Assign(tup, "regexp.match_token", reOp, ast.VarOp("cur"))
		fb.Assign(id, "tuple.index", tup, ast.IntOp(0))
		fb.Assign(ok, "int.gt", id, ast.IntOp(0))
		okL, failL := ec.label("etok_ok"), ec.label("etok_fail")
		fb.IfElse(ok, okL, failL)
		fb.Block(failL)
		fb.Instr("exception.throw", ast.StringOp(ParseErrorName),
			ast.StringOp(fmt.Sprintf("%s: expected /%s/", ec.u.Name, elem.Pattern)))
		fb.Block(okL)
		fb.Assign(end, "tuple.index", tup, ast.IntOp(1))
		fb.Assign(val, "bytes.sub", ast.VarOp("cur"), end)
		fb.Set(ast.VarOp("cur"), end)
		return val, nil
	case FBytes:
		n := ec.srcOperand(elem.Length)
		tup := fb.Temp(types.TupleT(types.BytesT, types.IterT(types.BytesT)))
		val := fb.Temp(types.BytesT)
		fb.Assign(tup, "unpack.bytes", ast.VarOp("cur"), n)
		fb.Assign(val, "tuple.index", tup, ast.IntOp(0))
		fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
		return val, nil
	default:
		return ast.Operand{}, fmt.Errorf("unsupported list element kind %d", elem.Kind)
	}
}
