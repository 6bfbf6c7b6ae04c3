package bro

import (
	"testing"

	"hilti/internal/hilti/vm"
)

// TestCompiledEngineLoadsNoInterpScripts: with compiled scripts the scripts
// live in the engine's HILTI program only. The interpreter, which still
// builds connection records and writes logs, holds none of their globals,
// functions or handlers, so a checkpoint carries no dead copy of them.
func TestCompiledEngineLoadsNoInterpScripts(t *testing.T) {
	scripts := []string{HTTPScript, FilesScript, DNSScript}
	in := mustEngine(t, Config{Parser: "standard", ScriptExec: "interp", Scripts: scripts, Quiet: true})
	if len(in.interp.Globals) == 0 || len(in.interp.Events) == 0 {
		t.Fatal("the interpreted engine loaded no scripts; the check below would be vacuous")
	}
	for _, parser := range []string{"standard", "binpac"} {
		e := mustEngine(t, Config{Parser: parser, ScriptExec: "hilti", Scripts: scripts, Quiet: true})
		if ip := e.interp; len(ip.Globals)+len(ip.Funcs)+len(ip.Events) != 0 {
			t.Errorf("%s+hilti: the interpreter holds %d globals, %d functions, %d events",
				parser, len(ip.Globals), len(ip.Funcs), len(ip.Events))
		}
		if e.ex == nil || len(e.ex.Globals) == 0 {
			t.Errorf("%s+hilti: the engine's program holds no script globals", parser)
		}
	}
}

// burnScript's dns_request handler costs a few hundred instructions and
// touches nothing the parse reads.
const burnScript = `
global burned: count = 0;

function burn(n: count): count {
    if ( n == 0 )
        return 0;
    return burn(n - 1) + 1;
}

event dns_request(c: connection, trans_id: count, query: string, qtype: count) {
    burned = burned + burn(100);
}
`

// TestNestedHandlerChargedToParse: on binpac+hilti the grammar and the
// compiled handlers are one program on one Exec, so the handler a parser
// callback dispatches runs nested in the parse's invocation. Its
// instructions count against the parse's budget: a Config.Limits that fits
// the parse alone and the handler alone trips when the two run together.
func TestNestedHandlerChargedToParse(t *testing.T) {
	query := smallDNSTrace(t)[0].Data // the first transaction's query
	run := func(parser, scripts string, lim vm.Limits) (*Engine, uint64) {
		e := mustEngine(t, Config{Parser: parser, ScriptExec: scripts, Scripts: []string{burnScript}, Quiet: true, Limits: lim})
		e.ProcessPacket(1, query)
		return e, e.ex.Steps()
	}
	// On its own, each is one top-level invocation.
	_, handler := run("standard", "hilti", vm.Limits{})
	_, parse := run("binpac", "interp", vm.Limits{})
	_, linked := run("binpac", "hilti", vm.Limits{})
	if handler < 200 || parse == 0 || linked != parse+handler {
		t.Fatalf("instructions: handler %d, parse %d, parse with the nested handler %d (want their sum)", handler, parse, linked)
	}

	lim := vm.Limits{Instructions: max(parse, handler) + min(parse, handler)/2}
	if e, _ := run("standard", "hilti", lim); e.StatsSnapshot().BudgetBlown != 0 {
		t.Fatal("the handler alone blew the budget")
	}
	if e, _ := run("binpac", "interp", lim); e.StatsSnapshot().ParseErr != 0 {
		t.Fatal("the parse alone blew the budget")
	}
	e, _ := run("binpac", "hilti", lim)
	if st := e.StatsSnapshot(); st.BudgetBlown != 1 || st.Events != 1 {
		t.Fatalf("parse with the nested handler: %d budgets blown over %d events, want 1 of 1", st.BudgetBlown, st.Events)
	}
}
