// The DNS grammar (§6.4's second case study): binary parsing with
// fixed-width header fields, counted lists of questions and resource
// records, rdata dispatch by record type, and — via custom HILTI parse
// functions — RFC 1035 name compression and TXT character-string lists.

package grammars

import (
	"hilti/internal/binpac"
	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
)

// DNS record type constants (matching the wire values).
const (
	DNSTypeA     = 1
	DNSTypeNS    = 2
	DNSTypeCNAME = 5
	DNSTypePTR   = 12
	DNSTypeMX    = 15
	DNSTypeTXT   = 16
	DNSTypeAAAA  = 28
)

// DNSGrammar builds the DNS message grammar.
func DNSGrammar() *binpac.Grammar {
	question := &binpac.Unit{
		Name:   "Question",
		Params: []string{"msg"},
		Fields: []*binpac.Field{
			{Name: "qname", Kind: binpac.FCustom, Func: "parse_name", FuncArgs: []string{"msg"}},
			{Name: "qtype", Kind: binpac.FUInt, Width: 16},
			{Name: "qclass", Kind: binpac.FUInt, Width: 16},
		},
	}
	// The rdata alternatives share members, since only one of them parses:
	// addr (A, AAAA), target (every name, and TXT's strings), mx_pref, and
	// raw for any other type.
	target := &binpac.Field{Name: "target", Kind: binpac.FCustom, Func: "parse_name", FuncArgs: []string{"msg"}}
	rr := &binpac.Unit{
		Name:   "RR",
		Params: []string{"msg"},
		Fields: []*binpac.Field{
			{Name: "name", Kind: binpac.FCustom, Func: "parse_name", FuncArgs: []string{"msg"}},
			{Name: "rtype", Kind: binpac.FUInt, Width: 16},
			{Name: "class", Kind: binpac.FUInt, Width: 16},
			{Name: "ttl", Kind: binpac.FUInt, Width: 32},
			{Name: "rdlen", Kind: binpac.FUInt, Width: 16},
			{Name: "rdata", Kind: binpac.FSwitch, On: binpac.FieldSrc("rtype"), Cases: []binpac.Case{
				{Value: DNSTypeA, Fields: []*binpac.Field{
					{Name: "addr", Kind: binpac.FBytes, Length: binpac.ConstSrc(4)}}},
				{Value: DNSTypeAAAA, Fields: []*binpac.Field{
					{Name: "addr", Kind: binpac.FBytes, Length: binpac.ConstSrc(16)}}},
				{Value: DNSTypeCNAME, Fields: []*binpac.Field{target}},
				{Value: DNSTypeNS, Fields: []*binpac.Field{target}},
				{Value: DNSTypePTR, Fields: []*binpac.Field{target}},
				{Value: DNSTypeMX, Fields: []*binpac.Field{
					{Name: "mx_pref", Kind: binpac.FUInt, Width: 16},
					target,
				}},
				{Value: DNSTypeTXT, Fields: []*binpac.Field{
					// The paper notes: BinPAC++ extracts *all* strings of a
					// TXT record (Bro's standard parser only the first).
					{Name: "target", Kind: binpac.FCustom, Func: "parse_txt", FuncArgs: []string{"rdlen"}},
				}},
			}, Default: []*binpac.Field{
				{Name: "raw", Kind: binpac.FBytes, Length: binpac.FieldSrc("rdlen")},
			}},
		},
	}
	message := &binpac.Unit{
		Name:     "Message",
		Params:   []string{"ctx"},
		HookDone: true,
		Fields: []*binpac.Field{
			{Name: "id", Kind: binpac.FUInt, Width: 16},
			{Name: "flags", Kind: binpac.FUInt, Width: 16},
			{Name: "qdcount", Kind: binpac.FUInt, Width: 16},
			{Name: "ancount", Kind: binpac.FUInt, Width: 16},
			{Name: "nscount", Kind: binpac.FUInt, Width: 16},
			{Name: "arcount", Kind: binpac.FUInt, Width: 16},
			{Name: "questions", Kind: binpac.FList, Mode: binpac.ListCount, Count: binpac.FieldSrc("qdcount"),
				Elem: &binpac.Field{Kind: binpac.FSubUnit, Unit: "Question", UnitArgs: []string{"%begin"}}},
			{Name: "answers", Kind: binpac.FList, Mode: binpac.ListCount, Count: binpac.FieldSrc("ancount"),
				Elem: &binpac.Field{Kind: binpac.FSubUnit, Unit: "RR", UnitArgs: []string{"%begin"}}},
			{Name: "authority", Kind: binpac.FList, Mode: binpac.ListCount, Count: binpac.FieldSrc("nscount"),
				Elem: &binpac.Field{Kind: binpac.FSubUnit, Unit: "RR", UnitArgs: []string{"%begin"}}},
		},
	}
	return &binpac.Grammar{
		Name:  "DNS",
		Top:   "Message",
		Units: []*binpac.Unit{question, rr, message},
	}
}

// DNSModules compiles the DNS grammar plus its custom parse functions and
// the %done hook that hands the finished message to the host via
// bro_dns_message(ctx, self). The modules are built once per process and
// shared (see shared).
func DNSModules() ([]*ast.Module, error) { return dnsModules() }

var dnsModules = shared(func() ([]*ast.Module, error) {
	parser, err := binpac.Compile(DNSGrammar())
	if err != nil {
		return nil, err
	}
	return []*ast.Module{parser, dnsHooks()}, nil
})

// dnsHooks builds the module of DNS's hand-written HILTI: the custom parse
// functions and the %done hook.
func dnsHooks() *ast.Module {
	b := ast.NewBuilder("DNSHooks")
	buildParseName(b)
	buildParseTXT(b)
	{
		fb := b.Hook("Message::%done", 0,
			ast.Param{Name: "self", Type: types.AnyT},
			ast.Param{Name: "ctx", Type: types.Int64T})
		fb.Call("bro_dns_message", ast.VarOp("ctx"), ast.VarOp("self"))
		fb.ReturnVoid()
	}
	return b.M
}

// buildParseName emits parse_name(msg, cur) -> (bytes, iterator): RFC 1035
// domain-name decoding with compression-pointer following (bounded to
// guard against pointer loops), returning the dotted name and the iterator
// after the name's wire encoding. Each label is appended to the name
// straight from the datagram (bytes.append_from), so a label is no value of
// its own.
func buildParseName(b *ast.Builder) {
	fb := b.Function("parse_name", types.TupleT(types.BytesT, types.IterT(types.BytesT)),
		ast.Param{Name: "msg", Type: types.IterT(types.BytesT)},
		ast.Param{Name: "cur", Type: types.IterT(types.BytesT)})
	out := fb.Local("out", types.BytesT)
	tup := fb.Local("tup", types.TupleT(types.Int64T, types.IterT(types.BytesT)))
	l := fb.Local("l", types.Int64T)
	l2 := fb.Local("l2", types.Int64T)
	off := fb.Local("off", types.Int64T)
	next := fb.Local("next", types.IterT(types.BytesT))
	retCur := fb.Local("retCur", types.IterT(types.BytesT))
	jumped := fb.Local("jumped", types.BoolT)
	jumps := fb.Local("jumps", types.Int64T)
	cond := fb.Local("cond", types.BoolT)
	n := fb.Local("n", types.Int64T)

	fb.Assign(out, "new", ast.TypeOperand(types.BytesT))
	fb.Set(jumped, ast.BoolOp(false))
	fb.Set(jumps, ast.IntOp(0))
	fb.Jump("loop")

	fb.Block("loop")
	fb.Assign(tup, "unpack.uint8", ast.VarOp("cur"))
	fb.Assign(l, "tuple.index", tup, ast.IntOp(0))
	fb.Assign(next, "tuple.index", tup, ast.IntOp(1))
	fb.Assign(cond, "int.eq", l, ast.IntOp(0))
	fb.IfElse(cond, "terminator", "not_term")

	fb.Block("not_term")
	fb.Assign(cond, "int.geq", l, ast.IntOp(192))
	fb.IfElse(cond, "pointer", "label")

	fb.Block("pointer")
	fb.Assign(jumps, "int.add", jumps, ast.IntOp(1))
	fb.Assign(cond, "int.gt", jumps, ast.IntOp(16))
	fb.IfElse(cond, "loop_error", "ptr_ok")
	fb.Block("loop_error")
	fb.Instr("exception.throw", ast.StringOp("BinPAC::ParseError"),
		ast.StringOp("DNS: compression pointer loop"))
	fb.Block("ptr_ok")
	fb.Assign(tup, "unpack.uint8", next)
	fb.Assign(l2, "tuple.index", tup, ast.IntOp(0))
	fb.IfElse(jumped, "ptr_jump", "ptr_first")
	fb.Block("ptr_first")
	fb.Assign(retCur, "tuple.index", tup, ast.IntOp(1))
	fb.Set(jumped, ast.BoolOp(true))
	fb.Block("ptr_jump")
	fb.Assign(off, "int.and", l, ast.IntOp(63))
	fb.Assign(off, "int.shl", off, ast.IntOp(8))
	fb.Assign(off, "int.or", off, l2)
	fb.Assign(ast.VarOp("cur"), "iterator.incr_by", ast.VarOp("msg"), off)
	fb.Jump("loop")

	fb.Block("label")
	fb.Assign(n, "bytes.length", out)
	fb.Assign(cond, "int.gt", n, ast.IntOp(0))
	fb.IfElse(cond, "add_dot", "no_dot")
	fb.Block("add_dot")
	fb.Instr("bytes.append", out, ast.ConstOp(bytesConst("."), types.BytesT))
	fb.Block("no_dot")
	fb.Assign(ast.VarOp("cur"), "bytes.append_from", out, next, l)
	fb.Jump("loop")

	fb.Block("terminator")
	fb.IfElse(jumped, "ret_jumped", "ret_plain")
	fb.Block("ret_jumped")
	fb.Instr("bytes.freeze", out)
	fb.Return(ast.TupleOp(out, retCur))
	fb.Block("ret_plain")
	fb.Instr("bytes.freeze", out)
	fb.Return(ast.TupleOp(out, next))
}

// buildParseTXT emits parse_txt(rdlen, cur) -> (bytes, iterator): decode
// the character-strings of a TXT rdata (length-prefixed, back to back
// within rdlen bytes), joined with commas. A string claiming more bytes
// than the rdata has left is a parse error.
func buildParseTXT(b *ast.Builder) {
	fb := b.Function("parse_txt", types.TupleT(types.BytesT, types.IterT(types.BytesT)),
		ast.Param{Name: "rdlen", Type: types.Int64T},
		ast.Param{Name: "cur", Type: types.IterT(types.BytesT)})
	out := fb.Local("out", types.BytesT)
	endPos := fb.Local("endPos", types.IterT(types.BytesT))
	tup := fb.Local("tup", types.TupleT(types.Int64T, types.IterT(types.BytesT)))
	l := fb.Local("l", types.Int64T)
	cond := fb.Local("cond", types.BoolT)
	n := fb.Local("n", types.Int64T)

	fb.Assign(out, "new", ast.TypeOperand(types.BytesT))
	fb.Assign(endPos, "iterator.incr_by", ast.VarOp("cur"), ast.VarOp("rdlen"))
	fb.Jump("loop")

	fb.Block("loop")
	fb.Assign(n, "iterator.diff", ast.VarOp("cur"), endPos)
	fb.Assign(cond, "int.leq", n, ast.IntOp(0))
	fb.IfElse(cond, "done", "more")

	fb.Block("more")
	fb.Assign(tup, "unpack.uint8", ast.VarOp("cur"))
	fb.Assign(l, "tuple.index", tup, ast.IntOp(0))
	fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
	fb.Assign(n, "iterator.diff", ast.VarOp("cur"), endPos)
	fb.Assign(cond, "int.gt", l, n)
	fb.IfElse(cond, "overrun", "fits")
	fb.Block("overrun")
	fb.Instr("exception.throw", ast.StringOp("BinPAC::ParseError"),
		ast.StringOp("DNS: TXT string overruns its rdata"))
	fb.Block("fits")
	fb.Assign(n, "bytes.length", out)
	fb.Assign(cond, "int.gt", n, ast.IntOp(0))
	fb.IfElse(cond, "sep", "no_sep")
	fb.Block("sep")
	fb.Instr("bytes.append", out, ast.ConstOp(bytesConst(","), types.BytesT))
	fb.Block("no_sep")
	fb.Assign(ast.VarOp("cur"), "bytes.append_from", out, ast.VarOp("cur"), l)
	fb.Jump("loop")

	fb.Block("done")
	fb.Instr("bytes.freeze", out)
	fb.Return(ast.TupleOp(out, ast.VarOp("cur")))
}
