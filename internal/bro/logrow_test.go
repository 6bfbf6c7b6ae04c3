package bro

import (
	"strings"
	"testing"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/rt/container"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// TestRenderHiltiMatchesFromHilti holds the one HILTI renderer to the glue:
// for every kind, renderHilti(v) is byte for byte fromHilti(v).Render(),
// and "-" where fromHilti has no Val (a log column's placeholder).
func TestRenderHiltiMatchesFromHilti(t *testing.T) {
	rope := hbytes.NewFromString("GET ")
	rope.Append([]byte("/index.html"))

	def := values.NewStructDef("Info",
		values.StructField{Name: "uid", Default: values.Unset},
		values.StructField{Name: "n", Default: values.Unset},
		values.StructField{Name: "ts", Default: values.Unset})
	st := values.NewStruct(def)
	st.Set(0, values.String("C1"))
	st.Set(2, values.TimeVal(1_500_000_000))

	vec := container.NewVector(values.Nil)
	vec.PushBack(values.Int(1))
	vec.PushBack(values.Unset)
	vec.PushBack(values.String("x"))

	set := container.NewSet()
	set.Insert(values.String("a"))
	set.Insert(values.TupleVal(values.String("b"), values.Int(2)))

	m := container.NewMap()
	m.Insert(values.String("k"), values.Int(7))
	m.Insert(values.Int(3), values.StructVal(st))

	cases := []struct {
		name string
		v    values.Value
	}{
		{"bool-true", values.Bool(true)},
		{"bool-false", values.Bool(false)},
		{"int-negative", values.Int(-42)},
		{"int-zero", values.Int(0)},
		{"int-count", values.Int(1 << 40)},
		{"double", values.Double(3.25)},
		{"double-negative", values.Double(-0.0000004)},
		{"string", values.String("hello\tworld")},
		{"string-empty", values.String("")},
		{"bytes-one-chunk", values.BytesFrom([]byte("abc"))},
		{"bytes-two-chunks", values.BytesVal(rope)},
		{"addr-v4", values.MustParseAddr("10.0.0.1")},
		{"addr-v6", values.MustParseAddr("2001:db8::1")},
		{"net-v4", values.MustParseNet("10.0.0.0/8")},
		{"net-v6", values.MustParseNet("2001:db8::/32")},
		{"port-tcp", values.PortVal(80, values.ProtoTCP)},
		{"port-udp", values.PortVal(53, values.ProtoUDP)},
		{"port-icmp", values.PortVal(8, values.ProtoICMP)},
		{"time", values.TimeVal(1_700_000_000_123_456_789)},
		{"interval", values.IntervalVal(2_500_000)},
		{"unset", values.Unset},
		{"void", values.Nil},
		{"struct-unset-field", values.StructVal(st)},
		{"vector", values.Ref(values.KindVector, vec)},
		{"set", values.Ref(values.KindSet, set)},
		{"map", values.Ref(values.KindMap, m)},
		{"tuple", values.TupleVal(values.Int(-1), values.Unset, values.PortVal(22, values.ProtoTCP))},
		{"any-val", values.Any(CountVal(9))},
		{"any-foreign", values.Any(struct{}{})},
	}
	for _, tc := range cases {
		want := "-"
		if x := NewGlue().fromHilti(tc.v); x != nil {
			want = x.Render()
		}
		if got := renderHilti(tc.v); got != want {
			t.Errorf("%s: renderHilti = %q, fromHilti(v).Render() = %q", tc.name, got, want)
		}
		if got := string(appendHiltiOr([]byte("pre|"), tc.v, "-")); got != "pre|"+want {
			t.Errorf("%s: appendHiltiOr = %q, want %q", tc.name, got, "pre|"+want)
		}
	}
}

// TestLogShapesMatchAcrossBackends writes the shapes the compiled lowering
// treats differently through both script backends; every stream must come
// out byte-identical.
func TestLogShapesMatchAcrossBackends(t *testing.T) {
	const script = `
type Row: record {
    uid: string;
    method: string;
    status_code: count;
};

global nested: count = 0;

function inner(u: string): string {
    nested += 1;
    Log::write("http", [$uid=fmt("inner-%s", u), $status_code=nested]);
    return u;
}

event http_request(c: connection, method: string, uri: string, version: string) {
    # Fields out of column order, with some columns missing.
    Log::write("http", [$uri=uri, $method=method, $uid=c$uid, $ts=network_time()]);
    # A stream without declared columns takes the literal's own order.
    Log::write("shape", [$version=version, $orig_p=c$id$orig_p, $method=method]);
    # A record variable with a field never assigned.
    local r = Row($uid=c$uid, $method=method);
    Log::write("http", r);
    Log::write("rows", r);
    # A field that writes to the same stream, between fields that read a
    # global it changes.
    Log::write("http", [$status_code=nested, $uid=inner(c$uid), $reason=fmt("%s", nested)]);
}
`
	var logs [2]map[string][]string
	for i, exec := range []string{"interp", "hilti"} {
		e, err := NewEngine(Config{Parser: "standard", ScriptExec: exec, Scripts: []string{script}, Quiet: true})
		if err != nil {
			t.Fatal(err)
		}
		c, _ := e.getConn(flow.FromIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 40000, 80, layers.IPProtoTCP), true, false)
		e.now = 1_700_000_000_000_000_000
		e.dispatch(evHTTPRequest, c, values.String("GET"), values.String("/a"), values.String("1.1"))
		e.dispatch(evHTTPRequest, c, values.String("POST"), values.String("/b"), values.String("1.0"))
		if n := e.faults.Count(); n != 0 {
			t.Fatalf("%s: %d handler faults", exec, n)
		}
		logs[i] = map[string][]string{}
		for _, s := range []string{"http", "shape", "rows"} {
			logs[i][s] = e.Logs.Lines(s)
		}
	}
	for _, s := range []string{"http", "shape", "rows"} {
		ip, hl := strings.Join(logs[0][s], "\n"), strings.Join(logs[1][s], "\n")
		if len(logs[0][s]) == 0 {
			t.Errorf("%s: nothing written", s)
		}
		if ip != hl {
			t.Errorf("%s.log differs across backends:\ninterp:\n%s\nhilti:\n%s", s, ip, hl)
		}
	}
	// Spot-check the shapes themselves on one backend.
	want := map[string]string{
		"shape": "1.1\t40000/tcp\tGET",
		"rows":  "uid\tGET\t-",
	}
	for s, w := range want {
		got := logs[0][s][0]
		if s == "rows" {
			got = "uid" + got[strings.IndexByte(got, '\t'):]
		}
		if got != w {
			t.Errorf("%s: first line %q, want %q", s, got, w)
		}
	}
	http := logs[0]["http"]
	if len(http) != 8 || !strings.HasPrefix(http[2], "-\tinner-") || !strings.HasSuffix(http[3], "\t0\t1\t-\t-") {
		t.Errorf("http.log does not show the nested write first and the pre-call global after it:\n%s",
			strings.Join(http, "\n"))
	}
}
