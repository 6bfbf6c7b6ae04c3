// Package grammars contains the BinPAC++ protocol grammars of the paper's
// evaluation — HTTP and DNS (§6.4's case studies) plus the SSH banner
// grammar of Figure 7 — together with their semantic hooks, which are
// themselves HILTI code attached as hook bodies (the paper's grammar
// "semantic constructs ... compiled to corresponding HILTI code").
//
// Each grammar exposes a Build function returning the HILTI modules to
// link: the compiler-generated parser module plus a hooks module. Host
// applications (the Bro analog) register the bro_* host functions the
// hooks call to raise events.
package grammars

import (
	"slices"
	"sync"

	"hilti/internal/binpac"
	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/rt/values"
)

// bytesConst builds a frozen bytes literal.
func bytesConst(s string) values.Value { return values.BytesFrom([]byte(s)) }

// HTTP body kinds (the Reply/Request `bodykind` variable).
const (
	BodyNone     = 0
	BodyLength   = 1
	BodyChunked  = 2
	BodyUntilEOF = 3
)

// HTTPGrammar builds the HTTP grammar: request and reply streams with
// headers and bodies delimited by length, by chunks or by the end of the
// connection. A body is a streamed field: its pieces go to the message's
// data hook as they arrive, and the message keeps only their count, digest
// and first bytes.
func HTTPGrammar() *binpac.Grammar {
	// Blank lines before a message are skipped (RFC 7230 §3.5).
	blankLines := &binpac.Field{Kind: binpac.FLiteral, Pattern: `(\r?\n)*`}
	requestLine := &binpac.Unit{
		Name: "RequestLine",
		Fields: []*binpac.Field{
			blankLines,
			{Name: "method", Kind: binpac.FToken, Pattern: `[^ \t\r\n]+`},
			{Kind: binpac.FLiteral, Pattern: `[ \t]+`},
			{Name: "uri", Kind: binpac.FToken, Pattern: `[^ \t\r\n]+`},
			{Kind: binpac.FLiteral, Pattern: `[ \t]+`},
			{Name: "version", Kind: binpac.FToken, Pattern: `HTTP\/[0-9]+\.[0-9]+`},
			{Kind: binpac.FLiteral, Pattern: `\r?\n`},
		},
	}
	// A header of a Request or a Reply: one unit each, so that its hook's
	// msg parameter has one type.
	header := func(msg string) *binpac.Unit {
		return &binpac.Unit{
			Name:     msg + "Header",
			Params:   []string{"msg"},
			HookDone: true,
			Fields: []*binpac.Field{
				{Name: "name", Kind: binpac.FToken, Pattern: `[^:\r\n]+`},
				{Kind: binpac.FLiteral, Pattern: `:[ \t]*`},
				// The value without the whitespace around it (RFC 7230 §3.2.4).
				{Name: "value", Kind: binpac.FToken, Pattern: `([^\r\n]*[^ \t\r\n])?`},
				{Kind: binpac.FLiteral, Pattern: `[ \t]*\r?\n`},
			},
		}
	}
	// chunk is one chunk of a chunked body. The list of them ends at the
	// last-chunk line (size 0), which with the trailer lines up to a blank
	// one ends the body.
	chunk := &binpac.Unit{
		Name:   "Chunk",
		Params: []string{"msg"},
		Vars:   []binpac.Var{{Name: "size", Type: binpac.VarInt}},
		Fields: []*binpac.Field{
			{Name: "size_str", Kind: binpac.FToken, Pattern: `[0-9a-fA-F]+`, Hook: true},
			{Kind: binpac.FLiteral, Pattern: `[^\r\n]*\r\n`}, // chunk extensions
			{Name: "data", Kind: binpac.FBytes, Length: binpac.VarSrc("size"), Stream: true, Hook: true},
			{Kind: binpac.FLiteral, Pattern: `\r\n`},
		},
	}
	chunked := []*binpac.Field{
		{Kind: binpac.FList, Mode: binpac.ListUntilLiteral,
			Until: `0+(\r\n|[^0-9a-fA-F\r\n][^\r\n]*\r\n)([^\r\n]+\r\n)*\r\n`,
			Elem:  &binpac.Field{Kind: binpac.FSubUnit, Unit: "Chunk", UnitArgs: []string{"self"}}},
	}
	byLength := []*binpac.Field{{Name: "data", Kind: binpac.FBytes, Length: binpac.VarSrc("clen"), Stream: true, Hook: true}}
	// The variables a message's hooks keep: framing from its headers, and
	// the body's count, digest and first bytes.
	vars := func(bodykind, isOrig int64) []binpac.Var {
		return []binpac.Var{
			{Name: "bodykind", Type: binpac.VarInt, Default: bodykind},
			{Name: "clen", Type: binpac.VarInt},
			{Name: "ctype", Type: binpac.VarBytes},
			{Name: "is_orig", Type: binpac.VarInt, Default: isOrig},
			{Name: "hook_ctx", Type: binpac.VarInt},
			{Name: "blen", Type: binpac.VarInt},
			{Name: "digest", Type: binpac.VarDigest},
			{Name: "head", Type: binpac.VarBytes},
		}
	}
	request := &binpac.Unit{
		Name:     "Request",
		Params:   []string{"ctx"},
		HookDone: true,
		Vars:     vars(BodyNone, 1),
		Fields: []*binpac.Field{
			{Name: "request_line", Kind: binpac.FSubUnit, Unit: "RequestLine", Hook: true},
			{Kind: binpac.FList, Mode: binpac.ListUntilLiteral, Until: `\r?\n`,
				Elem: &binpac.Field{Kind: binpac.FSubUnit, Unit: "RequestHeader", UnitArgs: []string{"self"}}},
			{Name: "body", Kind: binpac.FSwitch, On: binpac.VarSrc("bodykind"), Cases: []binpac.Case{
				{Value: BodyNone, Fields: nil},
				{Value: BodyLength, Fields: byLength},
			}, Default: []*binpac.Field{}},
		},
	}
	requests := &binpac.Unit{
		Name:   "Requests",
		Params: []string{"ctx"},
		Fields: []*binpac.Field{
			{Kind: binpac.FList, Mode: binpac.ListUntilEnd,
				Elem: &binpac.Field{Kind: binpac.FSubUnit, Unit: "Request", UnitArgs: []string{"ctx"}}},
		},
	}
	reply := &binpac.Unit{
		Name:     "Reply",
		Params:   []string{"ctx"},
		HookDone: true,
		Vars:     append(vars(BodyUntilEOF, 0), binpac.Var{Name: "status", Type: binpac.VarInt}),
		Fields: []*binpac.Field{
			blankLines,
			{Name: "version", Kind: binpac.FToken, Pattern: `HTTP\/[0-9]+\.[0-9]+`},
			{Kind: binpac.FLiteral, Pattern: `[ \t]+`},
			{Name: "status_str", Kind: binpac.FToken, Pattern: `[0-9]+`},
			{Kind: binpac.FLiteral, Pattern: `[ \t]*`},
			{Name: "reason", Kind: binpac.FBytesUntil, Delim: "\r\n", Hook: true},
			{Name: "headers", Kind: binpac.FList, Mode: binpac.ListUntilLiteral, Until: `\r?\n`, Hook: true,
				Elem: &binpac.Field{Kind: binpac.FSubUnit, Unit: "ReplyHeader", UnitArgs: []string{"self"}}},
			{Name: "body", Kind: binpac.FSwitch, On: binpac.VarSrc("bodykind"), Cases: []binpac.Case{
				{Value: BodyNone, Fields: nil},
				{Value: BodyLength, Fields: byLength},
				{Value: BodyChunked, Fields: chunked},
				{Value: BodyUntilEOF, Fields: []*binpac.Field{
					{Name: "data", Kind: binpac.FRestOfData, Stream: true, Hook: true}}},
			}, Default: []*binpac.Field{}},
		},
	}
	replies := &binpac.Unit{
		Name:   "Replies",
		Params: []string{"ctx"},
		Fields: []*binpac.Field{
			{Kind: binpac.FList, Mode: binpac.ListUntilEnd,
				Elem: &binpac.Field{Kind: binpac.FSubUnit, Unit: "Reply", UnitArgs: []string{"ctx"}}},
		},
	}
	return &binpac.Grammar{
		Name: "HTTP",
		Top:  "Requests",
		Units: []*binpac.Unit{
			requestLine, header("Request"), header("Reply"), chunk, request, requests, reply, replies,
		},
	}
}

// HTTPModules compiles the HTTP grammar and builds its semantic-hook
// module. Returned modules link together; the host registers these
// callbacks:
//
//	bro_http_request(ctx, method, uri, version)
//	bro_http_reply(ctx, version, status, reason)
//	bro_http_header(ctx, is_orig, name, value)
//	bro_http_pick_body(ctx, status, bodykind, clen) -> int
//	bro_http_body(ctx, is_orig, ctype, sha1, len, head)
//	bro_http_message_done(ctx, is_orig)
//
// head is the body's first min(len, 4) bytes, for MIME sniffing. The modules
// are built once per process and shared (see shared).
func HTTPModules() ([]*ast.Module, error) { return httpModules() }

var httpModules = shared(func() ([]*ast.Module, error) {
	parser, err := binpac.Compile(HTTPGrammar())
	if err != nil {
		return nil, err
	}
	hooks, err := httpHooks(parser)
	if err != nil {
		return nil, err
	}
	return []*ast.Module{parser, hooks}, nil
})

// shared memoizes a grammar's modules for the process: every engine links
// the same ASTs, which linking only reads — the regexp constants in them
// are safe for concurrent matching, and each struct type's runtime
// definition, which StructDef.Runtime builds lazily, is built here before
// the modules are handed out. Callers get their own slice.
func shared(build func() ([]*ast.Module, error)) func() ([]*ast.Module, error) {
	once := sync.OnceValues(func() ([]*ast.Module, error) {
		mods, err := build()
		for _, m := range mods {
			for _, t := range m.Types {
				if t.StructDef != nil {
					t.StructDef.Runtime()
				}
			}
		}
		return mods, err
	})
	return func() ([]*ast.Module, error) {
		mods, err := once()
		return slices.Clone(mods), err
	}
}

// sniffLen is how many leading body bytes a message keeps for MIME
// sniffing (analyzers.SniffMIME reads at most four).
const sniffLen = 4

// httpHooks builds the HILTI hook bodies implementing HTTP's semantics
// against the units of the parser module.
func httpHooks(parser *ast.Module) (*ast.Module, error) {
	b := ast.NewBuilder("HTTPHooks")

	// A unit parameter has its unit's type, so its field accesses compile
	// to indices.
	unit := func(param, name string) ast.Param {
		return ast.Param{Name: param, Type: types.RefT(parser.Types[name])}
	}
	ctxP := ast.Param{Name: "ctx", Type: types.Int64T}
	pieceP := ast.Param{Name: "piece", Type: types.BytesT}

	// <Msg>Header::%done(self, msg): classify interesting headers into
	// message variables and raise the per-header event.
	for _, m := range []string{"Request", "Reply"} {
		fb := b.Hook(m+"Header::%done", 0, unit("self", m+"Header"), unit("msg", m))
		name := fb.Local("name", types.BytesT)
		value := fb.Local("value", types.BytesT)
		cond := fb.Local("cond", types.BoolT)
		isOrig := fb.Local("is_orig", types.Int64T)
		ctx := fb.Local("hctx", types.Int64T)
		n := fb.Local("n", types.Int64T)
		is := func(v ast.Operand, s string) {
			fb.Assign(cond, "bytes.equal_nocase", v, ast.ConstOp(bytesConst(s), types.BytesT))
		}
		fb.Assign(name, "struct.get", ast.VarOp("self"), ast.FieldOperand("name"))
		fb.Assign(value, "struct.get", ast.VarOp("self"), ast.FieldOperand("value"))

		// The per-header event needs the message's direction and context.
		fb.Assign(isOrig, "struct.get", ast.VarOp("msg"), ast.FieldOperand("is_orig"))
		fb.Assign(ctx, "struct.get", ast.VarOp("msg"), ast.FieldOperand("hook_ctx"))
		fb.Call("bro_http_header", ctx, isOrig, name, value)

		is(name, "content-length")
		fb.IfElse(cond, "clen", "not_clen")
		fb.Block("clen")
		fb.Assign(n, "bytes.to_int", value, ast.IntOp(10))
		fb.Instr("struct.set", ast.VarOp("msg"), ast.FieldOperand("clen"), n)
		fb.Instr("struct.set", ast.VarOp("msg"), ast.FieldOperand("bodykind"), ast.IntOp(BodyLength))
		fb.Jump("done")
		fb.Block("not_clen")
		is(name, "transfer-encoding")
		fb.IfElse(cond, "te", "not_te")
		fb.Block("te")
		is(value, "chunked")
		fb.IfElse(cond, "te_chunked", "done")
		fb.Block("te_chunked")
		fb.Instr("struct.set", ast.VarOp("msg"), ast.FieldOperand("bodykind"), ast.IntOp(BodyChunked))
		fb.Jump("done")
		fb.Block("not_te")
		is(name, "content-type")
		fb.IfElse(cond, "ct", "done")
		fb.Block("ct")
		fb.Instr("struct.set", ast.VarOp("msg"), ast.FieldOperand("ctype"), value)
		fb.Block("done")
		fb.ReturnVoid()
	}

	// Request::request_line(self, ctx): record ctx for header hooks and
	// raise http_request.
	{
		fb := b.Hook("Request::request_line", 0, unit("self", "Request"), ctxP)
		rl := fb.Local("rl", types.RefT(parser.Types["RequestLine"]))
		m := fb.Local("m", types.BytesT)
		u := fb.Local("u", types.BytesT)
		v := fb.Local("v", types.BytesT)
		fb.Instr("struct.set", ast.VarOp("self"), ast.FieldOperand("hook_ctx"), ast.VarOp("ctx"))
		fb.Assign(rl, "struct.get", ast.VarOp("self"), ast.FieldOperand("request_line"))
		fb.Assign(m, "struct.get", rl, ast.FieldOperand("method"))
		fb.Assign(u, "struct.get", rl, ast.FieldOperand("uri"))
		fb.Assign(v, "struct.get", rl, ast.FieldOperand("version"))
		fb.Call("bro_http_request", ast.VarOp("ctx"), m, u, v)
		fb.ReturnVoid()
	}

	// Reply::reason(self, ctx): the status line is complete. Record ctx,
	// convert the status text and raise http_reply — before the headers'
	// events, as the standard parser does.
	{
		fb := b.Hook("Reply::reason", 0, unit("self", "Reply"), ctxP)
		s := fb.Local("s", types.BytesT)
		status := fb.Local("status", types.Int64T)
		v := fb.Local("v", types.BytesT)
		reason := fb.Local("reason", types.BytesT)
		fb.Instr("struct.set", ast.VarOp("self"), ast.FieldOperand("hook_ctx"), ast.VarOp("ctx"))
		fb.Assign(s, "struct.get", ast.VarOp("self"), ast.FieldOperand("status_str"))
		fb.Assign(status, "bytes.to_int", s, ast.IntOp(10))
		fb.Instr("struct.set", ast.VarOp("self"), ast.FieldOperand("status"), status)
		fb.Assign(v, "struct.get", ast.VarOp("self"), ast.FieldOperand("version"))
		fb.Assign(reason, "struct.get", ast.VarOp("self"), ast.FieldOperand("reason"))
		fb.Call("bro_http_reply", ast.VarOp("ctx"), v, status, reason)
		fb.ReturnVoid()
	}

	// Reply::headers(self, ctx): after all headers, let the host adjust the
	// body kind (it knows about HEAD requests and status semantics).
	{
		fb := b.Hook("Reply::headers", 0, unit("self", "Reply"), ctxP)
		status := fb.Local("status", types.Int64T)
		kind := fb.Local("kind", types.Int64T)
		clen := fb.Local("clen", types.Int64T)
		fb.Assign(status, "struct.get", ast.VarOp("self"), ast.FieldOperand("status"))
		fb.Assign(kind, "struct.get", ast.VarOp("self"), ast.FieldOperand("bodykind"))
		fb.Assign(clen, "struct.get", ast.VarOp("self"), ast.FieldOperand("clen"))
		fb.CallResult(kind, "bro_http_pick_body", ast.VarOp("ctx"), status, kind, clen)
		fb.Instr("struct.set", ast.VarOp("self"), ast.FieldOperand("bodykind"), kind)
		fb.ReturnVoid()
	}

	// Chunk::size_str(self, msg): the chunk's size is hex.
	{
		fb := b.Hook("Chunk::size_str", 0, unit("self", "Chunk"), unit("msg", "Reply"))
		s := fb.Local("s", types.BytesT)
		n := fb.Local("n", types.Int64T)
		fb.Assign(s, "struct.get", ast.VarOp("self"), ast.FieldOperand("size_str"))
		fb.Assign(n, "bytes.to_int", s, ast.IntOp(16))
		fb.Instr("struct.set", ast.VarOp("self"), ast.FieldOperand("size"), n)
		fb.ReturnVoid()
	}

	// body_piece_<Msg>(msg, piece) takes a body piece of message msg:
	// counts it, digests it, and copies whatever of the body's first
	// sniffLen bytes it holds. The piece itself is a view of the input and
	// is not kept. The streamed fields' hooks call it.
	for _, m := range []string{"Request", "Reply"} {
		fb := b.Function("body_piece_"+m, types.VoidT, unit("msg", m), pieceP)
		msg, piece := ast.VarOp("msg"), ast.VarOp("piece")
		n := fb.Local("n", types.Int64T)
		k := fb.Local("k", types.Int64T)
		plen := fb.Local("plen", types.Int64T)
		cond := fb.Local("cond", types.BoolT)
		d := fb.Local("d", types.DigestT)
		head := fb.Local("head", types.BytesT)
		from := fb.Local("from", types.IterT(types.BytesT))
		to := fb.Local("to", types.IterT(types.BytesT))
		sub := fb.Local("sub", types.BytesT)
		fb.Assign(n, "struct.get", msg, ast.FieldOperand("blen"))
		fb.Assign(plen, "bytes.length", piece)
		fb.Assign(cond, "int.lt", n, ast.IntOp(sniffLen))
		fb.IfElse(cond, "head", "digest")
		fb.Block("head")
		fb.Assign(cond, "int.eq", n, ast.IntOp(0))
		fb.IfElse(cond, "first", "more")
		fb.Block("first") // the body's first piece starts its digest and head
		fb.Assign(d, "hash.new")
		fb.Instr("struct.set", msg, ast.FieldOperand("digest"), d)
		fb.Assign(head, "new", ast.TypeOperand(types.BytesT))
		fb.Instr("struct.set", msg, ast.FieldOperand("head"), head)
		fb.Jump("take")
		fb.Block("more")
		fb.Assign(head, "struct.get", msg, ast.FieldOperand("head"))
		fb.Block("take") // min(sniffLen - n, plen) bytes, copied
		fb.Assign(k, "int.sub", ast.IntOp(sniffLen), n)
		fb.Assign(cond, "int.lt", plen, k)
		fb.IfElse(cond, "short", "cut")
		fb.Block("short")
		fb.Set(k, plen)
		fb.Block("cut")
		fb.Assign(from, "bytes.begin", piece)
		fb.Assign(to, "iterator.incr_by", from, k)
		fb.Assign(sub, "bytes.sub", from, to)
		fb.Instr("bytes.append", head, sub)
		fb.Block("digest")
		fb.Assign(d, "struct.get", msg, ast.FieldOperand("digest"))
		fb.Instr("hash.update", d, piece)
		fb.Assign(n, "int.add", n, plen)
		fb.Instr("struct.set", msg, ast.FieldOperand("blen"), n)
		fb.ReturnVoid()
	}
	// The streamed fields' hooks: a message's own body, and a chunk's data,
	// whose message is its msg parameter.
	for _, h := range []struct {
		name, msg, piece string
		params           []ast.Param
	}{
		{"Request::data", "self", "body_piece_Request", []ast.Param{unit("self", "Request"), ctxP, pieceP}},
		{"Reply::data", "self", "body_piece_Reply", []ast.Param{unit("self", "Reply"), ctxP, pieceP}},
		{"Chunk::data", "msg", "body_piece_Reply", []ast.Param{unit("self", "Chunk"), unit("msg", "Reply"), pieceP}},
	} {
		fb := b.Hook(h.name, 0, h.params...)
		fb.Call(h.piece, ast.VarOp(h.msg), ast.VarOp("piece"))
		fb.ReturnVoid()
	}

	// Shared %done logic for both directions: raise http_body for a body,
	// then http_message_done.
	emitDone := func(u string) {
		fb := b.Hook(u+"::%done", 0, unit("self", u), ctxP)
		isOrig := fb.Local("is_orig", types.Int64T)
		n := fb.Local("n", types.Int64T)
		cond := fb.Local("cond", types.BoolT)
		ctype := fb.Local("ctype", types.BytesT)
		d := fb.Local("d", types.DigestT)
		sha := fb.Local("sha", types.StringT)
		head := fb.Local("head", types.BytesT)
		fb.Assign(isOrig, "struct.get", ast.VarOp("self"), ast.FieldOperand("is_orig"))
		fb.Assign(n, "struct.get", ast.VarOp("self"), ast.FieldOperand("blen"))
		fb.Assign(cond, "int.gt", n, ast.IntOp(0))
		fb.IfElse(cond, "body", "no_body")
		fb.Block("body")
		fb.Assign(ctype, "struct.get_default", ast.VarOp("self"), ast.FieldOperand("ctype"),
			ast.ConstOp(bytesConst(""), types.BytesT))
		fb.Assign(d, "struct.get", ast.VarOp("self"), ast.FieldOperand("digest"))
		fb.Assign(sha, "hash.final", d)
		fb.Assign(head, "struct.get", ast.VarOp("self"), ast.FieldOperand("head"))
		fb.Call("bro_http_body", ast.VarOp("ctx"), isOrig, ctype, sha, n, head)
		fb.Block("no_body")
		fb.Call("bro_http_message_done", ast.VarOp("ctx"), isOrig)
		fb.ReturnVoid()
	}
	emitDone("Request")
	emitDone("Reply")
	return b.M, nil
}
