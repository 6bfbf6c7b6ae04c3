package bro

import (
	"bytes"
	"strings"
	"testing"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/rt/values"
)

func loadInterp(t *testing.T, src string) (*Interp, *bytes.Buffer) {
	t.Helper()
	s, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	ip := NewInterp()
	if err := ip.Load(s); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ip.Out = &out
	return ip, &out
}

// trackBro is Figure 8(a) verbatim.
const trackBro = `
global hosts: set[addr];

event connection_established(c: connection) {
    add hosts[c$id$resp_h];   # Record responder IP.
}

event bro_done() {
    for ( i in hosts )        # Print all recorded IPs.
        print i;
}
`

func TestFigure8TrackInterp(t *testing.T) {
	ip, out := loadInterp(t, trackBro)
	for _, host := range []byte{118, 2, 3, 2} {
		c := ip.MakeConn("C1", flow.FromIPv4([4]byte{10, 0, 0, 1}, [4]byte{208, 80, 152, host}, 1024, 80, layers.IPProtoTCP), 0)
		if err := ip.Dispatch("connection_established", c); err != nil {
			t.Fatal(err)
		}
	}
	if err := ip.Dispatch("bro_done"); err != nil {
		t.Fatal(err)
	}
	want := "208.80.152.118\n208.80.152.2\n208.80.152.3\n"
	if out.String() != want {
		t.Fatalf("output %q, want %q", out.String(), want)
	}
}

const fibBro = `
function fib(n: count): count {
    if ( n < 2 )
        return n;
    return fib(n-1) + fib(n-2);
}
`

func TestFibInterp(t *testing.T) {
	ip, _ := loadInterp(t, fibBro)
	v, err := ip.CallFunction("fib", CountVal(15))
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := v.(CountVal); !ok || c != 610 {
		t.Fatalf("fib(15) = %v", v)
	}
}

func TestTablesRecordsAndExpiration(t *testing.T) {
	src := `
type Info: record {
    n: count;
    who: addr;
};

global seen: table[string] of Info &create_expire=10 secs;
global counter: count = 0;

event tick(key: string, who: addr) {
    if ( key !in seen )
        seen[key] = Info($n=0, $who=who);
    local i = seen[key];
    i$n = i$n + 1;
    counter += 1;
}

event report() {
    for ( k in seen )
        print fmt("%s=%s", k, seen[k]$n);
}
`
	ip, out := loadInterp(t, src)
	now := int64(0)
	ip.Now = func() int64 { return now }
	a := AddrVal{A: values.MustParseAddr("1.1.1.1")}
	ip.Dispatch("tick", StringVal("x"), a)
	ip.Dispatch("tick", StringVal("x"), a)
	now = 5e9
	ip.Dispatch("tick", StringVal("y"), a)
	ip.Dispatch("report")
	if got := out.String(); got != "x=2\ny=1\n" {
		t.Fatalf("got %q", got)
	}
	out.Reset()
	// x expires at 10s (created at 0), y persists (created 5s).
	now = 11e9
	ip.Dispatch("report")
	if got := out.String(); got != "y=1\n" {
		t.Fatalf("after expiry got %q", got)
	}
	if v := ip.Globals["counter"].(CountVal); v != 3 {
		t.Fatalf("counter = %d", v)
	}
}

func TestVectorsAndLoops(t *testing.T) {
	src := `
global v: vector of count;

event go() {
    v[|v|] = 10;
    v[|v|] = 20;
    v[|v|] = 30;
    local sum = 0;
    for ( i in v )
        sum += v[i];
    print sum, |v|;
}
`
	ip, out := loadInterp(t, src)
	if err := ip.Dispatch("go"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "60, 3\n" {
		t.Fatalf("got %q", out.String())
	}
}

func TestCompositeTableKeys(t *testing.T) {
	src := `
global pending: table[string, count] of string;

event put(uid: string, id: count, q: string) {
    pending[uid, id] = q;
}

event get(uid: string, id: count) {
    if ( [uid, id] in pending ) {
        print pending[uid, id];
        delete pending[uid, id];
    } else
        print "missing";
}
`
	ip, out := loadInterp(t, src)
	ip.Dispatch("put", StringVal("C1"), CountVal(7), StringVal("query1"))
	ip.Dispatch("get", StringVal("C1"), CountVal(7))
	ip.Dispatch("get", StringVal("C1"), CountVal(7))
	ip.Dispatch("get", StringVal("C2"), CountVal(7))
	if out.String() != "query1\nmissing\nmissing\n" {
		t.Fatalf("got %q", out.String())
	}
}

func TestSubnetAndStringOps(t *testing.T) {
	src := `
event go(a: addr) {
    if ( a in 10.0.0.0/8 )
        print "internal";
    else
        print "external";
    print to_lower("HeLLo") + "!";
}
`
	ip, out := loadInterp(t, src)
	ip.Dispatch("go", AddrVal{A: values.MustParseAddr("10.5.5.5")})
	ip.Dispatch("go", AddrVal{A: values.MustParseAddr("8.8.8.8")})
	want := "internal\nhello!\nexternal\nhello!\n"
	if out.String() != want {
		t.Fatalf("got %q", out.String())
	}
}

func TestLogWrite(t *testing.T) {
	src := `
event go(uid: string) {
    Log::write("http", [$uid=uid, $status=CountVal]);
}
`
	// CtorExpr field referencing unknown name should error at eval.
	ip, _ := loadInterp(t, src)
	if err := ip.Dispatch("go", StringVal("C1")); err == nil {
		t.Fatal("expected undefined identifier error")
	}

	src2 := `
event go(uid: string, n: count) {
    Log::write("http", [$uid=uid, $status=n]);
}
`
	ip2, _ := loadInterp(t, src2)
	var stream string
	var rec *RecordVal
	ip2.LogWrite = func(s string, r *RecordVal) { stream, rec = s, r }
	if err := ip2.Dispatch("go", StringVal("C9"), CountVal(200)); err != nil {
		t.Fatal(err)
	}
	if stream != "http" || rec.Get("uid").Render() != "C9" || rec.Get("status").Render() != "200" {
		t.Fatalf("stream=%q rec=%v", stream, rec)
	}
}

func TestEventStmtSynchronousDispatch(t *testing.T) {
	src := `
event helper(n: count) {
    print "helper", n;
}
event go() {
    event helper(42);
    print "after";
}
`
	ip, out := loadInterp(t, src)
	ip.Dispatch("go")
	if out.String() != "helper, 42\nafter\n" {
		t.Fatalf("got %q", out.String())
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []string{
		`event go() { print missing_identifier; }`,
		`event go() { local t: table[count] of count; print t[1]; }`,
		`event go() { local x = 1 / 0; }`,
		`event go() { local c: connection; print c$nonexistent; }`,
	}
	for i, src := range cases {
		ip, _ := loadInterp(t, src)
		if err := ip.Dispatch("go"); err == nil {
			t.Errorf("case %d: expected runtime error", i)
		}
	}
}

func TestParseErrorsScript(t *testing.T) {
	bad := []string{
		`event go() { if true ) { } }`,
		`global x`,
		`type T: record { f count; };`,
		`event go() { for i in x ) print i; }`,
	}
	for i, src := range bad {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("case %d should fail to parse", i)
		}
	}
}

func BenchmarkFibInterp(b *testing.B) {
	s, err := ParseScript(fibBro)
	if err != nil {
		b.Fatal(err)
	}
	ip := NewInterp()
	ip.Load(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.CallFunction("fib", CountVal(20)); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = strings.Join
