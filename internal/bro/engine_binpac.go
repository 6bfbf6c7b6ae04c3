// BinPAC++ parser integration: the engine drives HILTI-compiled parsers
// over reassembled streams (HTTP) and datagrams (DNS), exactly like the
// paper's Bro plugin drives BinPAC++ parsers (§4, §5 "Bro Interface").
// Parser hooks call bro_* host functions, which turn the parse's values
// into event arguments — a rope into a string, a parsed DNS message into
// its lists — and the component clock charges that conversion to glue
// (Figure 9's third bar). Every callback borrows its arguments, so a DNS
// datagram's parse and each HTTP message's (parse_Requests_elem,
// parse_Replies_elem) recycle their values when they return; a parse
// parked mid-message keeps its own until then (vm.Exec.Recycle). Grammars
// and compiled scripts are one linked program on one Exec, so a compiled
// handler a callback dispatches is a re-entrant CallFn nested in the parse:
// its instructions count against the parse's budget.

package bro

import (
	"encoding/hex"

	"hilti/internal/analyzers"
	"hilti/internal/binpac/grammars"
	"hilti/internal/hilti/vm"
	"hilti/internal/rt/container"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// attachBinpacHTTP wires a connection's streams to its HTTP parses. A
// direction's parse starts at its first byte (binpacDeliver), so a
// connection that never carries payload costs no parse.
func (e *Engine) attachBinpacHTTP(c *conn) {
	c.origStream.Deliver = func(d []byte) { e.binpacDeliver(c, true, d) }
	c.respStream.Deliver = func(d []byte) { e.binpacDeliver(c, false, d) }
}

// binpacDir returns a direction's parse state.
func (c *conn) binpacDir(isOrig bool) (rope *hbytes.Bytes, run **vm.Resumable, dead *bool) {
	if isOrig {
		return c.origRope, &c.origRun, &c.origDead
	}
	return c.respRope, &c.respRun, &c.respDead
}

// binpacDeliver resumes a direction's parse on one segment. The segment is
// the reassembler's, valid for this call only (reassembly.Stream.Deliver):
// the rope borrows it, and Settle keeps what the parse still holds of it
// when the call ends, however it ends (DESIGN "A segment is lent to the
// parse").
func (e *Engine) binpacDeliver(c *conn, isOrig bool, d []byte) {
	if c.origRope == nil { // the connection's first byte: both ropes, one object
		ropes := new([2]hbytes.Bytes)
		c.origRope, c.respRope = &ropes[0], &ropes[1]
	}
	rope, run, dead := c.binpacDir(isOrig)
	if *dead {
		return
	}
	if *run == nil {
		fn, def := e.httpRepFn, e.httpRepStruct
		if isOrig {
			fn, def = e.httpReqFn, e.httpReqStruct
		}
		*run = e.ex.FiberCall(fn, values.StructVal(values.NewStruct(def)), values.IterBytes(rope.Begin()), values.Int(c.ctx))
	}
	defer e.ex.Settle()
	_ = e.ex.Lend(rope, d) // cannot fail: a live direction is not frozen, and no loan outlives its call
	_, done, err := (*run).Resume()
	if done {
		*dead = true
		if err != nil {
			e.parseErrs.Inc()
		}
	}
}

// finishBinpacDir freezes a started direction's input and drives the parse
// to completion (list-until-end units finish at frozen end of data).
func (e *Engine) finishBinpacDir(c *conn, isOrig bool) {
	rope, run, dead := c.binpacDir(isOrig)
	if *run == nil || *dead {
		return
	}
	rope.Freeze()
	_, done, err := (*run).Resume()
	*dead = true
	if !done {
		(*run).Abort()
	} else if err != nil {
		e.parseErrs.Inc()
	}
}

// binpacDNSPacket parses one DNS datagram through the HILTI parser. A
// datagram is a complete PDU: the rope is frozen before the parse starts,
// so nothing can suspend and the parser is called directly — no fiber. (The
// paper notes its generated parsers always run incrementally, even on UDP,
// and calls that an inefficiency.) The engine owns the rope and the Message
// the parse fills, and reuses both for every datagram; the values the parse
// builds are recycled when the call returns (initBinpac, vm.Exec.Recycle).
// The rope aliases the payload, which is borrowed for this call only.
func (e *Engine) binpacDNSPacket(c *conn, payload []byte) {
	e.dnsRope.Reset(payload)
	e.dnsSelf.Reset()

	e.clock.enter(compParse)
	_, err := e.ex.CallFn(e.dnsParseFn, values.StructVal(e.dnsSelf), values.IterBytes(e.dnsRope.Begin()), values.Int(c.ctx))
	e.clock.leave()
	e.dnsRope.Reset(nil)
	if err != nil {
		e.parseErrs.Inc()
	}
}

// registerBinpacHost wires the bro_* callbacks the parser hooks invoke.
// Every one borrows its arguments: it copies what it keeps (renderHilti,
// values.String), so a message's parse may be recycled.
func (e *Engine) registerBinpacHost() {
	// host registers fn for a callback whose first argument is the context
	// of its connection; fn converts the others in one glue interval.
	host := func(name string, fn func(c *conn, args []values.Value)) {
		e.ex.RegisterBorrowingHost(name, func(_ *vm.Exec, args []values.Value) (values.Value, error) {
			if c := e.flows.ctxs[args[0].AsInt()]; c != nil {
				fn(c, args)
			}
			return values.Nil, nil
		})
	}
	str := func(v values.Value) values.Value {
		return values.String(renderHilti(v))
	}
	isOrig := func(v values.Value) values.Value { return values.Bool(v.AsInt() != 0) }

	host("bro_http_request", func(c *conn, args []values.Value) {
		e.clock.enter(compGlue)
		method, uri, version := str(args[1]), str(args[2]), str(args[3])
		e.clock.leave()
		c.methods = append(c.methods, method.AsString())
		e.dispatch(evHTTPRequest, c, method, uri, version)
	})
	host("bro_http_reply", func(c *conn, args []values.Value) {
		e.clock.enter(compGlue)
		version, reason := str(args[1]), str(args[3])
		e.clock.leave()
		e.dispatch(evHTTPReply, c, version, values.Int(args[2].AsInt()), reason)
	})
	host("bro_http_header", func(c *conn, args []values.Value) {
		e.clock.enter(compGlue)
		name, value := str(args[2]), str(args[3])
		e.clock.leave()
		e.dispatch(evHTTPHeader, c, isOrig(args[1]), name, value)
	})
	// bro_http_pick_body implements the host-side body-framing decisions a
	// reply parser cannot make alone: HEAD responses and no-body statuses.
	e.ex.RegisterBorrowingHost("bro_http_pick_body", func(_ *vm.Exec, args []values.Value) (values.Value, error) {
		c := e.flows.ctxs[args[0].AsInt()]
		status := args[1].AsInt()
		kind := args[2].AsInt()
		isHead := false
		if c != nil && len(c.methods) > 0 {
			isHead = c.methods[0] == "HEAD"
			c.methods = c.methods[1:]
		}
		if isHead || status == 304 || status == 204 || (status >= 100 && status < 200) {
			return values.Int(grammars.BodyNone), nil
		}
		return values.Int(kind), nil
	})
	// args: ctx, is_orig, ctype, sha1, len, head (the body's first bytes)
	host("bro_http_body", func(c *conn, args []values.Value) {
		e.clock.enter(compGlue)
		ctype, sum := str(args[2]), str(args[3])
		if ctype.AsString() == "" {
			ctype = values.String(analyzers.SniffMIME(args[5].AsBytes().Bytes()))
		}
		e.clock.leave()
		e.dispatch(evHTTPBody, c, isOrig(args[1]), ctype, sum, values.Int(args[4].AsInt()))
	})
	host("bro_http_message_done", func(c *conn, args []values.Value) {
		e.dispatch(evHTTPMessageDone, c, isOrig(args[1]))
	})
	// bro_dns_message borrows the Message: the glue copies every string it
	// keeps.
	e.ex.RegisterBorrowingHost("bro_dns_message", func(_ *vm.Exec, args []values.Value) (values.Value, error) {
		if c := e.flows.ctxs[args[0].AsInt()]; c != nil {
			e.binpacDNSEvents(c, args[1])
		}
		return values.Nil, nil
	})
}

// dnsIndex holds the member indices of the parsed DNS structs the glue
// reads, resolved once per engine instead of by name per message.
type dnsIndex struct {
	id, flags, questions, answers int // Message
	qname, qtype                  int // Question
	ttl, addr, target, raw        int // RR
}

func newDNSIndex(msg, q, rr *values.StructDef) dnsIndex {
	return dnsIndex{
		id: msg.Index("id"), flags: msg.Index("flags"),
		questions: msg.Index("questions"), answers: msg.Index("answers"),
		qname: q.Index("qname"), qtype: q.Index("qtype"),
		ttl: rr.Index("ttl"), addr: rr.Index("addr"), target: rr.Index("target"), raw: rr.Index("raw"),
	}
}

// binpacDNSEvents walks the parsed DNS Message struct and raises the same
// events the standard parser produces. Walking the HILTI structs into the
// engine's representation is conversion glue, charged accordingly.
func (e *Engine) binpacDNSEvents(c *conn, msg values.Value) {
	e.clock.enter(compGlue)
	ix := &e.dnsIx
	s := msg.AsStruct()
	id := int(s.Fields[ix.id].AsInt())
	flags := s.Fields[ix.flags].AsInt()
	isResp := flags&0x8000 != 0
	rcode := int(flags & 0xF)

	query, qtype := "", 0
	if vec, ok := s.Fields[ix.questions].O.(*container.Vector); ok && vec.Len() > 0 {
		q0, _ := vec.Get(0)
		if qs := q0.AsStruct(); qs != nil {
			if n := qs.Fields[ix.qname].AsBytes(); n != nil {
				query = n.String()
			}
			qtype = int(qs.Fields[ix.qtype].AsInt())
		}
	}
	// The answer and TTL lists are the engine's scratch: dnsLists copies
	// them into the event's vectors.
	answers, ttls := e.dnsAnswers[:0], e.dnsTTLs[:0]
	if vec, ok := s.Fields[ix.answers].O.(*container.Vector); ok {
		for _, rv := range vec.Elems() {
			if rr := rv.AsStruct(); rr != nil {
				answers = append(answers, renderRR(rr, ix))
				ttls = append(ttls, rr.Fields[ix.ttl].AsInt())
			}
		}
	}
	e.dnsAnswers, e.dnsTTLs = answers, ttls
	e.clock.leave()
	e.dnsEvents(c, isResp, id, query, qtype, rcode, answers, ttls)
}

// renderRR renders one parsed RR's value like the standard parser does: an
// address by its length, a name or TXT strings as they are, other rdata in
// hex.
func renderRR(rr *values.Struct, ix *dnsIndex) string {
	if a := rr.Fields[ix.addr].AsBytes(); a != nil {
		switch b := a.Bytes(); len(b) {
		case 4:
			return values.Format(values.AddrFrom4([4]byte(b)))
		case 16:
			return values.Format(values.AddrFrom16([16]byte(b)))
		}
	}
	if t := rr.Fields[ix.target].AsBytes(); t != nil {
		return t.String()
	}
	if r := rr.Fields[ix.raw].AsBytes(); r != nil {
		return "\\x" + hex.EncodeToString(r.Bytes())
	}
	return ""
}
