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
	"fmt"
	"slices"
	"sync"

	"hilti/internal/binpac"
	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	hregexp "hilti/internal/rt/regexp"
	"hilti/internal/rt/values"
)

// bytesConst builds a frozen bytes literal.
func bytesConst(s string) values.Value { return values.BytesFrom([]byte(s)) }

// regexpOperand builds a compiled-regexp constant operand.
func regexpOperand(pattern string) (ast.Operand, error) {
	re, err := hregexp.Compile(pattern)
	if err != nil {
		return ast.Operand{}, err
	}
	return ast.ConstOp(values.Ref(values.KindRegExp, re), types.RegExpT), nil
}

// HTTP body kinds (the Reply/Request `bodykind` variable).
const (
	BodyNone     = 0
	BodyLength   = 1
	BodyChunked  = 2
	BodyUntilEOF = 3
)

// HTTPGrammar builds the HTTP grammar: request and reply streams with
// headers, length-delimited and chunked bodies.
func HTTPGrammar() *binpac.Grammar {
	requestLine := &binpac.Unit{
		Name: "RequestLine",
		Fields: []*binpac.Field{
			{Name: "method", Kind: binpac.FToken, Pattern: `[^ \t\r\n]+`},
			{Kind: binpac.FLiteral, Pattern: `[ \t]+`},
			{Name: "uri", Kind: binpac.FToken, Pattern: `[^ \t\r\n]+`},
			{Kind: binpac.FLiteral, Pattern: `[ \t]+`},
			{Name: "version", Kind: binpac.FToken, Pattern: `HTTP\/[0-9]+\.[0-9]+`},
			{Kind: binpac.FLiteral, Pattern: `\r?\n`},
		},
	}
	header := &binpac.Unit{
		Name:     "Header",
		Params:   []string{"msg"},
		HookDone: true,
		Fields: []*binpac.Field{
			{Name: "name", Kind: binpac.FToken, Pattern: `[^:\r\n]+`},
			{Kind: binpac.FLiteral, Pattern: `:[ \t]*`},
			{Name: "value", Kind: binpac.FToken, Pattern: `[^\r\n]*`},
			{Kind: binpac.FLiteral, Pattern: `\r?\n`},
		},
	}
	request := &binpac.Unit{
		Name:     "Request",
		Params:   []string{"ctx"},
		HookDone: true,
		Vars: []binpac.Var{
			{Name: "bodykind", Type: binpac.VarInt, Default: BodyNone},
			{Name: "clen", Type: binpac.VarInt},
			{Name: "ctype", Type: binpac.VarBytes},
			{Name: "is_orig", Type: binpac.VarInt, Default: 1},
			{Name: "hook_ctx", Type: binpac.VarInt},
		},
		Fields: []*binpac.Field{
			{Name: "request_line", Kind: binpac.FSubUnit, Unit: "RequestLine", Hook: true},
			{Name: "headers", Kind: binpac.FList, Mode: binpac.ListUntilLiteral, Until: `\r?\n`,
				Elem: &binpac.Field{Kind: binpac.FSubUnit, Unit: "Header", UnitArgs: []string{"self"}}},
			{Name: "body", Kind: binpac.FSwitch, On: binpac.VarSrc("bodykind"), Cases: []binpac.Case{
				{Value: BodyNone, Fields: nil},
				{Value: BodyLength, Fields: []*binpac.Field{
					{Name: "body_data", Kind: binpac.FBytes, Length: binpac.VarSrc("clen")}}},
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
		Vars: []binpac.Var{
			{Name: "bodykind", Type: binpac.VarInt, Default: BodyUntilEOF},
			{Name: "clen", Type: binpac.VarInt},
			{Name: "chunked", Type: binpac.VarInt},
			{Name: "ctype", Type: binpac.VarBytes},
			{Name: "status", Type: binpac.VarInt},
			{Name: "is_orig", Type: binpac.VarInt, Default: 0},
			{Name: "hook_ctx", Type: binpac.VarInt},
		},
		Fields: []*binpac.Field{
			{Name: "version", Kind: binpac.FToken, Pattern: `HTTP\/[0-9]+\.[0-9]+`},
			{Kind: binpac.FLiteral, Pattern: `[ \t]+`},
			{Name: "status_str", Kind: binpac.FToken, Pattern: `[0-9]+`, Hook: true},
			{Kind: binpac.FLiteral, Pattern: `[ \t]*`},
			{Name: "reason", Kind: binpac.FBytesUntil, Delim: "\r\n"},
			{Name: "headers", Kind: binpac.FList, Mode: binpac.ListUntilLiteral, Until: `\r?\n`, Hook: true,
				Elem: &binpac.Field{Kind: binpac.FSubUnit, Unit: "Header", UnitArgs: []string{"self"}}},
			{Name: "body", Kind: binpac.FSwitch, On: binpac.VarSrc("bodykind"), Cases: []binpac.Case{
				{Value: BodyNone, Fields: nil},
				{Value: BodyLength, Fields: []*binpac.Field{
					{Name: "body_data", Kind: binpac.FBytes, Length: binpac.VarSrc("clen")}}},
				{Value: BodyChunked, Fields: []*binpac.Field{
					{Name: "body_chunked", Kind: binpac.FCustom, Func: "parse_chunked"}}},
				{Value: BodyUntilEOF, Fields: []*binpac.Field{
					{Name: "body_eof", Kind: binpac.FRestOfData}}},
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
			requestLine, header, request, requests, reply, replies,
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
//	bro_http_body(ctx, is_orig, ctype, sha1, len)
//	bro_http_message_done(ctx, is_orig)
//
// The modules are built once per process and shared (see shared).
func HTTPModules() ([]*ast.Module, error) { return httpModules() }

var httpModules = shared(func() ([]*ast.Module, error) {
	parser, err := binpac.Compile(HTTPGrammar())
	if err != nil {
		return nil, err
	}
	hooks, err := httpHooks()
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

// httpHooks builds the HILTI hook bodies implementing HTTP's semantics.
func httpHooks() (*ast.Module, error) {
	b := ast.NewBuilder("HTTPHooks")

	selfP := ast.Param{Name: "self", Type: types.AnyT}
	msgP := ast.Param{Name: "msg", Type: types.AnyT}
	ctxP := ast.Param{Name: "ctx", Type: types.Int64T}

	// Header::%done(self, msg): classify interesting headers into message
	// variables and raise the per-header event.
	{
		fb := b.Hook("Header::%done", 0, selfP, msgP)
		name := fb.Local("name", types.BytesT)
		lower := fb.Local("lower", types.BytesT)
		value := fb.Local("value", types.BytesT)
		cond := fb.Local("cond", types.BoolT)
		isOrig := fb.Local("is_orig", types.Int64T)
		ctx := fb.Local("hctx", types.Int64T)
		n := fb.Local("n", types.Int64T)
		fb.Assign(name, "struct.get", ast.VarOp("self"), ast.FieldOperand("name"))
		fb.Assign(value, "struct.get", ast.VarOp("self"), ast.FieldOperand("value"))
		fb.Assign(lower, "bytes.lower", name)

		// The per-header event needs the message's direction and context.
		fb.Assign(isOrig, "struct.get", ast.VarOp("msg"), ast.FieldOperand("is_orig"))
		fb.Assign(ctx, "struct.get", ast.VarOp("msg"), ast.FieldOperand("hook_ctx"))
		fb.Call("bro_http_header", ctx, isOrig, name, value)

		fb.Assign(cond, "equal", lower, ast.ConstOp(bytesConst("content-length"), types.BytesT))
		fb.IfElse(cond, "clen", "not_clen")
		fb.Block("clen")
		fb.Assign(n, "bytes.to_int", value, ast.IntOp(10))
		fb.Instr("struct.set", ast.VarOp("msg"), ast.FieldOperand("clen"), n)
		fb.Instr("struct.set", ast.VarOp("msg"), ast.FieldOperand("bodykind"), ast.IntOp(BodyLength))
		fb.Jump("done")
		fb.Block("not_clen")
		fb.Assign(cond, "equal", lower, ast.ConstOp(bytesConst("transfer-encoding"), types.BytesT))
		fb.IfElse(cond, "te", "not_te")
		fb.Block("te")
		fb.Assign(lower, "bytes.lower", value)
		fb.Assign(cond, "equal", lower, ast.ConstOp(bytesConst("chunked"), types.BytesT))
		fb.IfElse(cond, "te_chunked", "done")
		fb.Block("te_chunked")
		fb.Instr("struct.set", ast.VarOp("msg"), ast.FieldOperand("bodykind"), ast.IntOp(BodyChunked))
		fb.Jump("done")
		fb.Block("not_te")
		fb.Assign(cond, "equal", lower, ast.ConstOp(bytesConst("content-type"), types.BytesT))
		fb.IfElse(cond, "ct", "done")
		fb.Block("ct")
		fb.Instr("struct.set", ast.VarOp("msg"), ast.FieldOperand("ctype"), value)
		fb.Block("done")
		fb.ReturnVoid()
	}

	// Request::request_line(self, ctx): record ctx for header hooks and
	// raise http_request.
	{
		fb := b.Hook("Request::request_line", 0, selfP, ctxP)
		rl := fb.Local("rl", types.AnyT)
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

	// Reply::status_str(self, ctx): record ctx, convert the status text.
	{
		fb := b.Hook("Reply::status_str", 0, selfP, ctxP)
		s := fb.Local("s", types.BytesT)
		n := fb.Local("n", types.Int64T)
		fb.Instr("struct.set", ast.VarOp("self"), ast.FieldOperand("hook_ctx"), ast.VarOp("ctx"))
		fb.Assign(s, "struct.get", ast.VarOp("self"), ast.FieldOperand("status_str"))
		fb.Assign(n, "bytes.to_int", s, ast.IntOp(10))
		fb.Instr("struct.set", ast.VarOp("self"), ast.FieldOperand("status"), n)
		fb.ReturnVoid()
	}

	// Reply::headers(self, ctx): after all headers, let the host adjust the
	// body kind (it knows about HEAD requests and status semantics), then
	// raise http_reply.
	{
		fb := b.Hook("Reply::headers", 0, selfP, ctxP)
		status := fb.Local("status", types.Int64T)
		kind := fb.Local("kind", types.Int64T)
		clen := fb.Local("clen", types.Int64T)
		v := fb.Local("v", types.BytesT)
		reason := fb.Local("reason", types.BytesT)
		fb.Assign(status, "struct.get", ast.VarOp("self"), ast.FieldOperand("status"))
		fb.Assign(kind, "struct.get", ast.VarOp("self"), ast.FieldOperand("bodykind"))
		fb.Assign(clen, "struct.get", ast.VarOp("self"), ast.FieldOperand("clen"))
		fb.CallResult(kind, "bro_http_pick_body", ast.VarOp("ctx"), status, kind, clen)
		fb.Instr("struct.set", ast.VarOp("self"), ast.FieldOperand("bodykind"), kind)
		fb.Assign(v, "struct.get", ast.VarOp("self"), ast.FieldOperand("version"))
		fb.Assign(reason, "struct.get", ast.VarOp("self"), ast.FieldOperand("reason"))
		fb.Call("bro_http_reply", ast.VarOp("ctx"), v, status, reason)
		fb.ReturnVoid()
	}

	// Shared %done logic for both directions: hash whatever body was
	// parsed, raise http_body and http_message_done.
	emitDone := func(hookName string) {
		fb := b.Hook(hookName, 0, selfP, ctxP)
		isOrig := fb.Local("is_orig", types.Int64T)
		body := fb.Local("body", types.BytesT)
		ctype := fb.Local("ctype", types.BytesT)
		cond := fb.Local("cond", types.BoolT)
		sha := fb.Local("sha", types.StringT)
		blen := fb.Local("blen", types.Int64T)
		fb.Assign(isOrig, "struct.get", ast.VarOp("self"), ast.FieldOperand("is_orig"))
		for _, fieldName := range []string{"body_data", "body_chunked", "body_eof"} {
			fb.Assign(cond, "struct.is_set", ast.VarOp("self"), ast.FieldOperand(fieldName))
			okL, nextL := "have_"+fieldName, "next_"+fieldName
			fb.IfElse(cond, okL, nextL)
			fb.Block(okL)
			fb.Assign(body, "struct.get", ast.VarOp("self"), ast.FieldOperand(fieldName))
			fb.Jump("have_body")
			fb.Block(nextL)
		}
		fb.Jump("no_body")
		fb.Block("have_body")
		fb.Assign(blen, "bytes.length", body)
		fb.Assign(cond, "int.gt", blen, ast.IntOp(0))
		fb.IfElse(cond, "hash", "no_body")
		fb.Block("hash")
		fb.Assign(ctype, "struct.get_default", ast.VarOp("self"), ast.FieldOperand("ctype"),
			ast.ConstOp(bytesConst(""), types.BytesT))
		fb.CallResult(sha, "Hilti::sha1", body)
		fb.Call("bro_http_body", ast.VarOp("ctx"), isOrig, ctype, sha, blen, body)
		fb.Block("no_body")
		fb.Call("bro_http_message_done", ast.VarOp("ctx"), isOrig)
		fb.ReturnVoid()
	}
	emitDone("Request::%done")
	emitDone("Reply::%done")

	// parse_chunked(cur) -> (bytes, iterator): chunked transfer decoding
	// as an imperative HILTI function (size line, data, CRLF; terminated by
	// a zero-size chunk and blank trailer line).
	if err := buildParseChunked(b); err != nil {
		return nil, err
	}
	return b.M, nil
}

// buildParseChunked emits the chunked-body decoder.
func buildParseChunked(b *ast.Builder) error {
	fb := b.Function("parse_chunked", types.TupleT(types.BytesT, types.IterT(types.BytesT)),
		ast.Param{Name: "cur", Type: types.IterT(types.BytesT)})
	out := fb.Local("out", types.BytesT)
	tup := fb.Local("tup", types.TupleT(types.Int64T, types.IterT(types.BytesT)))
	btup := fb.Local("btup", types.TupleT(types.BytesT, types.IterT(types.BytesT)))
	id := fb.Local("id", types.Int64T)
	n := fb.Local("n", types.Int64T)
	sizeBytes := fb.Local("sizeBytes", types.BytesT)
	end := fb.Local("end", types.IterT(types.BytesT))
	chunk := fb.Local("chunk", types.BytesT)
	ok := fb.Local("ok", types.BoolT)

	fb.Assign(out, "new", ast.TypeOperand(types.BytesT))
	fb.Jump("loop")

	fb.Block("loop")
	// Size line: hex digits up to CRLF (extensions tolerated and skipped).
	mustMatch(fb, tup, id, ok, `[0-9a-fA-F]+`, "bad chunk size")
	fb.Assign(end, "tuple.index", tup, ast.IntOp(1))
	fb.Assign(sizeBytes, "bytes.sub", ast.VarOp("cur"), end)
	fb.Set(ast.VarOp("cur"), end)
	fb.Assign(n, "bytes.to_int", sizeBytes, ast.IntOp(16))
	mustMatch(fb, tup, id, ok, `[^\r\n]*\r\n`, "bad chunk size line")
	fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
	fb.Assign(ok, "int.eq", n, ast.IntOp(0))
	fb.IfElse(ok, "last", "data")

	fb.Block("data")
	fb.Assign(btup, "unpack.bytes", ast.VarOp("cur"), n)
	fb.Assign(chunk, "tuple.index", btup, ast.IntOp(0))
	fb.Assign(ast.VarOp("cur"), "tuple.index", btup, ast.IntOp(1))
	fb.Instr("bytes.append", out, chunk)
	mustMatch(fb, tup, id, ok, `\r\n`, "missing chunk CRLF")
	fb.Assign(ast.VarOp("cur"), "tuple.index", tup, ast.IntOp(1))
	fb.Jump("loop")

	fb.Block("last")
	// Trailer section: lines until the blank line.
	fb.Jump("trailer")
	fb.Block("trailer")
	mustMatch(fb, tup, id, ok, `\r\n|[^\r\n]+\r\n`, "bad trailer")
	fb.Assign(end, "tuple.index", tup, ast.IntOp(1))
	fb.Assign(sizeBytes, "bytes.sub", ast.VarOp("cur"), end)
	fb.Set(ast.VarOp("cur"), end)
	fb.Assign(n, "bytes.length", sizeBytes)
	fb.Assign(ok, "int.eq", n, ast.IntOp(2)) // bare CRLF: end of trailers
	fb.IfElse(ok, "finish", "trailer")

	fb.Block("finish")
	fb.Instr("bytes.freeze", out)
	fb.Return(ast.TupleOp(out, ast.VarOp("cur")))
	return nil
}

// mustMatch emits an anchored token match that throws a parse error when
// it fails.
func mustMatch(fb *ast.FuncBuilder, tup, id, ok ast.Operand, pattern, msg string) {
	reOp, err := regexpOperand(pattern)
	if err != nil {
		panic(err) // literal patterns in this file
	}
	fb.Assign(tup, "regexp.match_token", reOp, ast.VarOp("cur"))
	fb.Assign(id, "tuple.index", tup, ast.IntOp(0))
	fb.Assign(ok, "int.gt", id, ast.IntOp(0))
	okL := fmt.Sprintf("__mm_ok_%p_%s", fb, pattern)
	failL := fmt.Sprintf("__mm_fail_%p_%s", fb, pattern)
	fb.IfElse(ok, okL, failL)
	fb.Block(failL)
	fb.Instr("exception.throw", ast.StringOp(binpac.ParseErrorName), ast.StringOp(msg))
	fb.Block(okL)
}
