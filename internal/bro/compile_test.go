package bro

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/rt/container"
	"hilti/internal/rt/values"
)

// compileExec compiles scripts and returns a ready Exec with host fns and
// the program's struct definitions by name.
func compileExec(t testing.TB, src string) (*vm.Exec, map[string]*values.StructDef, *bytes.Buffer, func() int64) {
	t.Helper()
	return compileExecWith(t, vm.Options{OptLevel: vm.DefaultOptLevel()}, src)
}

func compileExecWith(t testing.TB, opts vm.Options, src string) (*vm.Exec, map[string]*values.StructDef, *bytes.Buffer, func() int64) {
	t.Helper()
	s, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := CompileScripts(s)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.LinkWith(opts, mod)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ex.Out = &out
	now := int64(0)
	structs := map[string]*values.StructDef{}
	for name, typ := range mod.Types {
		if typ.StructDef != nil {
			structs[name] = typ.StructDef.Runtime()
		}
	}
	RegisterHostFns(ex, func() int64 { return now }, nil)
	if _, err := ex.Call("BroScripts::__init_globals"); err != nil {
		t.Fatal(err)
	}
	return ex, structs, &out, func() int64 { return now }
}

func TestCompiledFigure8Track(t *testing.T) {
	ex, structs, out, _ := compileExec(t, trackBro)
	for _, host := range []byte{118, 2, 3, 2} {
		c := newConnStruct(structs, "C1", flow.FromIPv4([4]byte{10, 0, 0, 1}, [4]byte{208, 80, 152, host}, 1024, 80, layers.IPProtoTCP), 0)
		if err := ex.RunHook("connection_established", values.StructVal(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.RunHook("bro_done"); err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 8(c) output.
	want := "208.80.152.118\n208.80.152.2\n208.80.152.3\n"
	if out.String() != want {
		t.Fatalf("output %q, want %q", out.String(), want)
	}
}

func TestCompiledFib(t *testing.T) {
	ex, _, _, _ := compileExec(t, fibBro)
	v, err := ex.Call("fib", values.Int(15))
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 610 {
		t.Fatalf("fib(15) = %v", v)
	}
}

// TestCompiledMatchesInterp runs the same script through both execution
// engines and compares the printed output byte for byte — the Table 3
// methodology in miniature.
func TestCompiledMatchesInterp(t *testing.T) {
	src := `
type Stat: record {
    n: count;
    last: time;
};

global stats: table[string] of Stat;
global total: count = 0;

event observe(who: string, when: time) {
    if ( who !in stats )
        stats[who] = Stat($n=0, $last=when);
    local s = stats[who];
    s$n = s$n + 1;
    s$last = when;
    total += 1;
}

event report() {
    print "total", total;
    for ( who in stats )
        print fmt("%s -> %s", who, stats[who]$n);
    if ( total > 3 && "alice" in stats )
        print "alice seen";
}
`
	type step struct {
		who  string
		when int64
	}
	steps := []step{
		{"alice", 1e9}, {"bob", 2e9}, {"alice", 3e9}, {"carol", 4e9}, {"alice", 5e9},
	}

	// Interpreter run.
	s, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	ip := NewInterp()
	if err := ip.Load(s); err != nil {
		t.Fatal(err)
	}
	var iout bytes.Buffer
	ip.Out = &iout
	for _, st := range steps {
		if err := ip.Dispatch("observe", StringVal(st.who), TimeVal(st.when)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ip.Dispatch("report"); err != nil {
		t.Fatal(err)
	}

	// Compiled run.
	ex, _, cout, _ := compileExec(t, src)
	for _, st := range steps {
		err := ex.RunHook("observe", values.String(st.who), values.TimeVal(st.when))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.RunHook("report"); err != nil {
		t.Fatal(err)
	}

	if iout.String() != cout.String() {
		t.Fatalf("outputs differ:\ninterp:\n%s\ncompiled:\n%s", iout.String(), cout.String())
	}
	if iout.Len() == 0 {
		t.Fatal("no output produced")
	}

	t.Run("vector index out of reach", compiledMatchesInterpOnVectorIndex)
	t.Run("unset value rendered", compiledMatchesInterpOnUnset)
	t.Run("arithmetic on an unset value", compiledMatchesInterpOnUnsetArithmetic)
}

// compiledMatchesInterpOnUnsetArithmetic: arithmetic on a record field
// never set aborts the handler with an error on both backends — the
// interpreter's names the operand "unset", the compiled code raises a HILTI
// exception — and the engine records no fault. The interpreter used to
// dereference the missing value and panic.
func compiledMatchesInterpOnUnsetArithmetic(t *testing.T) {
	src := `
type Pair: record {
    a: string;
    b: count &optional;
};

event add(s: string) {
    local p = Pair($a=s);
    print "before", p$a;
    print p$b + 1;
    print "after";
}
`
	for _, scripts := range []string{"interp", "hilti"} {
		e := mustEngine(t, Config{Parser: "standard", ScriptExec: scripts, Scripts: []string{src}})
		var out bytes.Buffer
		e.interp.Out = &out
		var bodies []*vm.CompiledFunc
		if e.ex != nil {
			e.ex.Out = &out
			bodies = e.ex.Prog.HookBodies["add"]
		}
		e.dispatchNamed("add", bodies, nil, []values.Value{values.String("x")})
		if n := e.faults.Count(); n != 0 {
			t.Errorf("%s: %d faults, the first %v", scripts, n, e.Faults()[0])
		}
		if got := out.String(); got != "before, x\n" {
			t.Errorf("%s printed %q", scripts, got)
		}
	}
	ip, _ := loadInterp(t, src)
	if err := ip.Dispatch("add", StringVal("x")); err == nil || !strings.Contains(err.Error(), "+: unset, count") {
		t.Errorf("interp: %v", err)
	}
}

// compiledMatchesInterpOnUnset: a vector slot never assigned is unset, and
// fmt and cat render it as "-" on both backends; the interpreted cat used
// to panic on it.
func compiledMatchesInterpOnUnset(t *testing.T) {
	src := `
global v: vector of string;

event show() {
    v[1] = "b";
    print "fmt", fmt("%s", v[0]);
    print "cat", cat(v[0]);
    print "cat3", cat("a", v[0], v[1]);
}
`
	ip, iout := loadInterp(t, src)
	if err := ip.Dispatch("show"); err != nil {
		t.Fatalf("interp: %v", err)
	}
	ex, _, cout, _ := compileExec(t, src)
	if err := ex.RunHook("show"); err != nil {
		t.Fatalf("compiled: %v", err)
	}
	const want = "fmt, -\ncat, -\ncat3, a-b\n"
	if iout.String() != want || cout.String() != want {
		t.Fatalf("interp printed %q, compiled %q, want %q", iout, cout, want)
	}
}

// compiledMatchesInterpOnVectorIndex: an index read off the wire cannot
// claim memory. A vector read past its end, or written more than
// container.MaxGrow past it, raises the same Hilti::IndexError in the
// interpreter and compiled at O0 and O1 — without growing the vector, so
// an index of 1<<62 costs a few objects.
func compiledMatchesInterpOnVectorIndex(t *testing.T) {
	src := `
global v: vector of count;

event grow(i: count) {
    print "grow", i;
    v[i] = 1;
    print "size", |v|;
}

event peek(i: count) {
    print "peek", i;
    print v[i];
}
`
	const huge = CountVal(1) << 62
	type call struct {
		event string
		i     CountVal
		err   bool
	}
	calls := []call{{"grow", 0, false}, {"grow", huge, true}, {"peek", 0, false}, {"peek", 1, true},
		{"peek", huge, true}, {"grow", 1 + container.MaxGrow, false}, {"grow", 2*container.MaxGrow + 3, true}}

	type backend struct {
		name string
		run  func(event string, i CountVal) error
		out  *bytes.Buffer
		mute func()
	}
	s, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	ip := NewInterp()
	if err := ip.Load(s); err != nil {
		t.Fatal(err)
	}
	var iout bytes.Buffer
	ip.Out = &iout
	backends := []backend{{"interp", func(ev string, i CountVal) error { return ip.Dispatch(ev, i) }, &iout,
		func() { ip.Out = io.Discard }}}
	for _, lvl := range []int{0, 1} {
		ex, _, out, _ := compileExecWith(t, vm.Options{OptLevel: lvl}, src)
		backends = append(backends, backend{fmt.Sprintf("O%d", lvl), func(ev string, i CountVal) error {
			return ex.RunHook(ev, values.Int(int64(i)))
		}, out, func() { ex.Out = io.Discard }})
	}
	var errs [][]string
	for _, b := range backends {
		var got []string
		for _, c := range calls {
			err := b.run(c.event, c.i)
			if (err != nil) != c.err {
				t.Fatalf("%s: %s(%d) error %v, want one: %v", b.name, c.event, c.i, err, c.err)
			}
			var exc *values.Exception
			if err != nil && !errors.As(err, &exc) {
				t.Fatalf("%s: %s(%d) failed with %v, not a HILTI exception", b.name, c.event, c.i, err)
			}
			if exc != nil {
				got = append(got, exc.Error())
			}
		}
		errs = append(errs, got)
		if b.out.String() != backends[0].out.String() {
			t.Errorf("%s output differs from the interpreter's:\n%s\nvs\n%s", b.name, b.out, backends[0].out)
		}
		if !slices.Equal(got, errs[0]) {
			t.Errorf("%s raises %q, the interpreter %q", b.name, got, errs[0])
		}
		// The print and the error's allocations, under -race too; nothing
		// the size of the index.
		b.mute()
		for _, ev := range []string{"grow", "peek"} {
			if n := testing.AllocsPerRun(20, func() { b.run(ev, huge) }); n > 32 { //nolint:errcheck
				t.Errorf("%s: %s(1<<62) allocates %v objects", b.name, ev, n)
			}
		}
	}
}

// TestInterpScopingMatchesCompiled pins Bro's function scoping on both
// backends: a local lives for the whole call, whatever block declared it;
// an assignment to an unknown name makes a local; a local shadows a global
// without touching it; a return inside a loop leaves the call; recursive
// calls do not share locals.
func TestInterpScopingMatchesCompiled(t *testing.T) {
	src := `
global x: count = 7;
global seen: count = 0;

function first_over(v: vector of count, least: count): count {
    for ( i in v )
        if ( v[i] > least )
            return v[i];
    return 0;
}

function fib(n: count): count {
    if ( n < 2 )
        return n;
    return fib(n - 1) + fib(n - 2);
}

event scopes(n: count) {
    if ( n > 1 ) {
        local y = 3;
    }
    print "if local", y;
    local v = vector(1, 5, 7);
    for ( i in v )
        seen += v[i];
    print "for var", i, seen;
    z = n * 2;
    print "implicit", z;
    local x = 5;
    x = x + 1;
    print "shadow", x;
}

event loop_return() {
    local v = vector(1, 5, 7);
    for ( j in v ) {
        print "iter", j;
        if ( j == 1 )
            return;
    }
    print "after";
}

event report() {
    print "global", x;
    print "first_over", first_over(vector(1, 5, 7), 1);
    print "fib", fib(15);
}
`
	const want = "if local, 3\nfor var, 2, 13\nimplicit, 4\nshadow, 6\n" +
		"iter, 0\niter, 1\n" +
		"global, 7\nfirst_over, 5\nfib, 610\n"

	ip, iout := loadInterp(t, src)
	for _, ev := range []struct {
		name string
		args []Val
	}{{"scopes", []Val{CountVal(2)}}, {"loop_return", nil}, {"report", nil}} {
		if err := ip.Dispatch(ev.name, ev.args...); err != nil {
			t.Fatal(err)
		}
	}

	ex, _, cout, _ := compileExec(t, src)
	if err := ex.RunHook("scopes", values.Int(2)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"loop_return", "report"} {
		if err := ex.RunHook(name); err != nil {
			t.Fatal(err)
		}
	}

	if iout.String() != cout.String() {
		t.Fatalf("outputs differ:\ninterp:\n%s\ncompiled:\n%s", iout.String(), cout.String())
	}
	if iout.String() != want {
		t.Fatalf("output:\n%s\nwant:\n%s", iout.String(), want)
	}

	// What the interpreter refuses and the compiled backend reads as zero:
	// a parameter the caller did not pass, a local whose declaration did
	// not run.
	for _, c := range []struct {
		args []Val
		name string
	}{{nil, "n"}, {[]Val{CountVal(1)}, "y"}} {
		err := ip.Dispatch("scopes", c.args...)
		if want := "undefined identifier \"" + c.name + "\""; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("scopes(%v): error %v, want %s", c.args, err, want)
		}
	}
}

func TestCompiledVectorOps(t *testing.T) {
	src := `
global v: vector of count;

event go() {
    v[|v|] = 5;
    v[|v|] = 7;
    local sum = 0;
    for ( i in v )
        sum += v[i];
    print sum, |v|;
}
`
	ex, _, out, _ := compileExec(t, src)
	if err := ex.RunHook("go"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "12, 2\n" {
		t.Fatalf("got %q", out.String())
	}
}

func TestCompiledCompositeKeysAndDelete(t *testing.T) {
	src := `
global pending: table[string, count] of string;

event go() {
    pending["C1", 7] = "q";
    if ( ["C1", 7] in pending )
        print pending["C1", 7];
    delete pending["C1", 7];
    if ( ["C1", 7] !in pending )
        print "gone";
}
`
	ex, _, out, _ := compileExec(t, src)
	if err := ex.RunHook("go"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "q\ngone\n" {
		t.Fatalf("got %q", out.String())
	}
}

func TestCompiledExpiration(t *testing.T) {
	src := `
global seen: set[string] &read_expire=10 secs;

event touch(k: string) {
    add seen[k];
}

event check(k: string) {
    if ( k in seen )
        print "present";
    else
        print "absent";
}
`
	s, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := CompileScripts(s)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := vm.NewExec(prog)
	var out bytes.Buffer
	ex.Out = &out
	RegisterHostFns(ex, func() int64 { return 0 }, nil)
	if _, err := ex.Call("BroScripts::__init_globals"); err != nil {
		t.Fatal(err)
	}
	ex.GlobalTM.Advance(0)
	ex.RunHook("touch", values.String("x"))
	ex.GlobalTM.Advance(5e9)
	ex.RunHook("check", values.String("x")) // present, refreshes
	ex.GlobalTM.Advance(20e9)
	ex.RunHook("check", values.String("x")) // expired (idle 15s > 10s)
	if out.String() != "present\nabsent\n" {
		t.Fatalf("got %q", out.String())
	}
}

func BenchmarkFibCompiled(b *testing.B) {
	ex, _, _, _ := compileExec(b, fibBro)
	fn := ex.Prog.Fn("BroScripts::fib")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.CallFn(fn, values.Int(20)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInterpScratchNotRetained: the interpreter lends a statement its index
// and argument lists on a stack it pops and clears when the statement is
// done, so whatever keeps such a list must copy it. Each script below keeps
// one — a several-index insert walked later, vector(...) of evaluated
// arguments, arguments forwarded to a nested event — and its log must equal
// the compiled backend's. A handler that panics mid-statement — network_time
// is made to panic under both backends — leaves the stack dirty; the next
// event starts on an empty one.
func TestInterpScratchNotRetained(t *testing.T) {
	src := `
global pairs: table[string, count] of count;
global kept: vector of vector of string;

event insert(s: string, n: count) {
    pairs[cat(s, "-", n), n + 1] = n * 2;
    pairs[s, n] = n;
}

event walk() {
    for ( k, v in pairs )
        Log::write("walk", [$k=k, $v=v]);
}

event keep(s: string, n: count) {
    local v = vector(cat(s, "!"), fmt("%s", n), s);
    kept[|kept|] = v;
    Log::write("vector", [$first=v[0], $second=v[1], $third=v[2]]);
}

event inner(a: string, b: count, c: string) {
    Log::write("nested", [$a=a, $b=b, $c=c]);
}

event outer(s: string, n: count) {
    event inner(cat(s, "/", n), n + 1, s);
    Log::write("nested", [$a=s, $b=n, $c="outer"]);
}

event bad(s: string) {
    event inner(s, |s|, cat(s, network_time()));
}

event recall() {
    for ( i in kept )
        Log::write("vector", [$first=kept[i][0], $second=kept[i][1], $third=kept[i][2]]);
}
`
	type ev struct {
		name string
		args []Val
	}
	evs := []ev{
		{"insert", []Val{StringVal("x"), CountVal(1)}},
		{"keep", []Val{StringVal("y"), CountVal(2)}},
		{"insert", []Val{StringVal("z"), CountVal(3)}},
		{"outer", []Val{StringVal("o"), CountVal(4)}},
		{"keep", []Val{StringVal("w"), CountVal(5)}},
		{"bad", []Val{StringVal("b")}},
		{"outer", []Val{StringVal("p"), CountVal(6)}},
		{"walk", nil},
		{"recall", nil},
	}
	// Run each event to its end or to its panic, as the engine's
	// containment does.
	run := func(fn func() error) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return fn()
	}

	// network_time panics inside bad only: the tables read the clock too.
	inBad := false
	now := func() int64 {
		if inBad {
			panic("injected")
		}
		return 0
	}
	ip, _ := loadInterp(t, src)
	ilogs := NewLogSet()
	ip.LogWrite = ilogs.Write
	ip.Now = now
	var ierrs []bool
	for _, e := range evs {
		inBad = e.name == "bad"
		err := run(func() error { return ip.Dispatch(e.name, e.args...) })
		if e.name == "bad" && (err == nil || !strings.HasPrefix(err.Error(), "panic: ")) {
			t.Errorf("interpreted bad: %v, want the injected panic", err)
		}
		ierrs = append(ierrs, err != nil)
		if len(ip.stack) != 0 || slices.ContainsFunc(ip.stack[:cap(ip.stack)], func(v Val) bool { return v != nil }) {
			t.Errorf("after %s: the list stack holds %v", e.name, ip.stack[:cap(ip.stack)])
		}
	}

	ex, _, _, _ := compileExec(t, src)
	clogs := NewLogSet()
	RegisterHostFns(ex, now, clogs)
	var cerrs []bool
	for _, e := range evs {
		args := make([]values.Value, len(e.args))
		for i, a := range e.args {
			switch a := a.(type) {
			case StringVal:
				args[i] = values.String(string(a))
			case CountVal:
				args[i] = values.Int(int64(a))
			}
		}
		inBad = e.name == "bad"
		cerrs = append(cerrs, run(func() error { return ex.RunHook(e.name, args...) }) != nil)
	}

	for i, e := range evs {
		if ierrs[i] != (e.name == "bad") || cerrs[i] != (e.name == "bad") {
			t.Errorf("%s failed: interpreted %v, compiled %v; want only bad to", e.name, ierrs[i], cerrs[i])
		}
	}
	for _, stream := range []string{"walk", "vector", "nested"} {
		il, cl := ilogs.Lines(stream), clogs.Lines(stream)
		if len(il) == 0 || !slices.Equal(il, cl) {
			t.Errorf("%s.log differs:\ninterpreted:\n%s\ncompiled:\n%s", stream, strings.Join(il, "\n"), strings.Join(cl, "\n"))
		}
	}
}
