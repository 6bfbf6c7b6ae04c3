package binpac

import (
	"strings"
	"testing"

	"hilti/internal/hilti/vm"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// requestLineGrammar is Figure 6(a): the HTTP request line.
func requestLineGrammar() *Grammar {
	version := &Unit{
		Name: "Version",
		Fields: []*Field{
			{Kind: FLiteral, Pattern: `HTTP\/`},
			{Name: "number", Kind: FToken, Pattern: `[0-9]+\.[0-9]+`},
		},
	}
	reqLine := &Unit{
		Name: "RequestLine",
		Fields: []*Field{
			{Name: "method", Kind: FToken, Pattern: `[^ \t\r\n]+`},
			{Kind: FLiteral, Pattern: `[ \t]+`},
			{Name: "uri", Kind: FToken, Pattern: `[^ \t\r\n]+`},
			{Kind: FLiteral, Pattern: `[ \t]+`},
			{Name: "version", Kind: FSubUnit, Unit: "Version"},
			{Kind: FLiteral, Pattern: `\r?\n`},
		},
	}
	return &Grammar{Name: "HTTPReq", Top: "RequestLine", Units: []*Unit{version, reqLine}}
}

// sshBannerGrammar is Figure 7(a).
func sshBannerGrammar() *Grammar {
	banner := &Unit{
		Name: "Banner",
		Fields: []*Field{
			{Kind: FLiteral, Pattern: `SSH-`},
			{Name: "version", Kind: FToken, Pattern: `[^-]*`},
			{Kind: FLiteral, Pattern: `-`},
			{Name: "software", Kind: FToken, Pattern: `[^\r\n]*`},
		},
		HookDone: true,
	}
	return &Grammar{Name: "SSH", Top: "Banner", Units: []*Unit{banner}}
}

func compileAndExec(t *testing.T, g *Grammar) *vm.Exec {
	t.Helper()
	mod, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func fieldStr(t *testing.T, v values.Value, name string) string {
	t.Helper()
	s := v.AsStruct()
	if s == nil {
		t.Fatal("not a struct")
	}
	f, ok := s.GetName(name)
	if !ok {
		t.Fatalf("field %q unset", name)
	}
	if f.K == values.KindBytes {
		return f.AsBytes().String()
	}
	return values.Format(f)
}

func TestFigure6RequestLine(t *testing.T) {
	ex := compileAndExec(t, requestLineGrammar())
	obj, err := ex.Call("HTTPReq::RequestLine_parse",
		values.BytesFrom([]byte("GET /index.html HTTP/1.1\r\nHost: x\r\n")))
	if err != nil {
		t.Fatal(err)
	}
	// The debugging output of Figure 6(c): method, uri, version number.
	if got := fieldStr(t, obj, "method"); got != "GET" {
		t.Errorf("method = %q", got)
	}
	if got := fieldStr(t, obj, "uri"); got != "/index.html" {
		t.Errorf("uri = %q", got)
	}
	ver, _ := obj.AsStruct().GetName("version")
	if got := fieldStr(t, ver, "number"); got != "1.1" {
		t.Errorf("version = %q", got)
	}
}

func TestParseErrorOnGarbage(t *testing.T) {
	ex := compileAndExec(t, requestLineGrammar())
	_, err := ex.Call("HTTPReq::RequestLine_parse",
		values.BytesFrom([]byte("\x00\x01\x02 binary crud\r\n")))
	if err == nil || !strings.Contains(err.Error(), "BinPAC::ParseError") {
		t.Fatalf("got %v", err)
	}
}

func TestFigure7SSHBanner(t *testing.T) {
	ex := compileAndExec(t, sshBannerGrammar())
	var gotVersion, gotSoftware string
	// The .evt mechanism: a hook body on Banner::%done raises the host
	// event with the unit's fields (paper Figure 7(b)).
	ex.Hooks.Get("Banner::%done").Add(func(args []values.Value) (values.Value, bool) {
		s := args[0].AsStruct()
		v, _ := s.GetName("version")
		sw, _ := s.GetName("software")
		gotVersion = v.AsBytes().String()
		gotSoftware = sw.AsBytes().String()
		return values.Nil, false
	})
	_, err := ex.Call("SSH::Banner_parse", values.BytesFrom([]byte("SSH-1.99-OpenSSH_3.9p1\r\n")))
	if err != nil {
		t.Fatal(err)
	}
	if gotVersion != "1.99" || gotSoftware != "OpenSSH_3.9p1" {
		t.Fatalf("got %q %q", gotVersion, gotSoftware)
	}
}

func TestIncrementalParsing(t *testing.T) {
	// The paper's headline capability: feed the request line byte by byte;
	// the parser suspends and resumes transparently.
	g := requestLineGrammar()
	mod, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		t.Fatal(err)
	}

	input := "GET /index.html HTTP/1.1\r\n"
	data := hbytes.New()
	r := ex.FiberCall(prog.Fn("HTTPReq::RequestLine_parse"), values.BytesVal(data))
	var result values.Value
	done := false
	for i := 0; i < len(input) && !done; i++ {
		data.Append([]byte{input[i]})
		var err error
		result, done, err = r.Resume()
		if err != nil {
			t.Fatalf("at byte %d: %v", i, err)
		}
		if done && i < len(input)-3 {
			t.Fatalf("completed too early at byte %d", i)
		}
	}
	if !done {
		// The trailing newline may still be pending freeze-decisions.
		data.Freeze()
		var err error
		result, done, err = r.Resume()
		if err != nil || !done {
			t.Fatalf("final resume: done=%v err=%v", done, err)
		}
	}
	if got := fieldStr(t, result, "uri"); got != "/index.html" {
		t.Fatalf("uri = %q", got)
	}
}

func TestUIntAndBytesFields(t *testing.T) {
	g := &Grammar{
		Name: "Bin",
		Top:  "Rec",
		Units: []*Unit{{
			Name: "Rec",
			Fields: []*Field{
				{Name: "magic", Kind: FUInt, Width: 16},
				{Name: "len", Kind: FUInt, Width: 8},
				{Name: "payload", Kind: FBytes, Length: FieldSrc("len")},
				{Name: "trail", Kind: FUInt, Width: 32, Little: true},
			},
		}},
	}
	ex := compileAndExec(t, g)
	input := []byte{0xAB, 0xCD, 3, 'x', 'y', 'z', 0x01, 0x00, 0x00, 0x00}
	obj, err := ex.Call("Bin::Rec_parse", values.BytesFrom(input))
	if err != nil {
		t.Fatal(err)
	}
	if got := fieldStr(t, obj, "magic"); got != "43981" {
		t.Errorf("magic = %s", got)
	}
	if got := fieldStr(t, obj, "payload"); got != "xyz" {
		t.Errorf("payload = %q", got)
	}
	if got := fieldStr(t, obj, "trail"); got != "1" {
		t.Errorf("trail = %s", got)
	}
}

func TestListCountAndUntilLiteral(t *testing.T) {
	g := &Grammar{
		Name: "L",
		Top:  "Msg",
		Units: []*Unit{
			{
				Name: "Pair",
				Fields: []*Field{
					{Name: "key", Kind: FToken, Pattern: `[a-z]+`},
					{Kind: FLiteral, Pattern: `=`},
					{Name: "val", Kind: FToken, Pattern: `[0-9]+`},
					{Kind: FLiteral, Pattern: `;`},
				},
			},
			{
				Name: "Msg",
				Fields: []*Field{
					{Name: "nums", Kind: FList, Mode: ListCount, Count: ConstSrc(3),
						Elem: &Field{Kind: FUInt, Width: 8}},
					{Name: "pairs", Kind: FList, Mode: ListUntilLiteral, Until: `\.`,
						Elem: &Field{Kind: FSubUnit, Unit: "Pair"}},
				},
			},
		},
	}
	ex := compileAndExec(t, g)
	input := append([]byte{1, 2, 3}, []byte("ab=1;cd=22;.")...)
	obj, err := ex.Call("L::Msg_parse", values.BytesFrom(input))
	if err != nil {
		t.Fatal(err)
	}
	nums, _ := obj.AsStruct().GetName("nums")
	vec := nums.O.(interface{ Len() int })
	if vec.Len() != 3 {
		t.Fatalf("nums len %d", vec.Len())
	}
	pairs, _ := obj.AsStruct().GetName("pairs")
	pv := pairs.O.(interface {
		Len() int
		Get(int) (values.Value, bool)
	})
	if pv.Len() != 2 {
		t.Fatalf("pairs len %d", pv.Len())
	}
	second, _ := pv.Get(1)
	if got := fieldStr(t, second, "val"); got != "22" {
		t.Errorf("second val = %q", got)
	}
}

func TestSwitchOnVarWithHook(t *testing.T) {
	// Semantic constructs: a hook sets a unit variable that a later switch
	// dispatches on — the shape of HTTP body selection.
	g := &Grammar{
		Name: "S",
		Top:  "Msg",
		Units: []*Unit{{
			Name: "Msg",
			Vars: []Var{{Name: "kind", Type: VarInt}},
			Fields: []*Field{
				{Name: "tag", Kind: FUInt, Width: 8, Hook: true},
				{Name: "body", Kind: FSwitch, On: VarSrc("kind"), Cases: []Case{
					{Value: 1, Fields: []*Field{{Name: "short", Kind: FBytes, Length: ConstSrc(2)}}},
					{Value: 2, Fields: []*Field{{Name: "long", Kind: FBytes, Length: ConstSrc(4)}}},
				}, Default: []*Field{}},
			},
		}},
	}
	ex := compileAndExec(t, g)
	// The hook (host-side here; protocol modules use HILTI bodies) maps the
	// wire tag onto the variable.
	ex.Hooks.Get("Msg::tag").Add(func(args []values.Value) (values.Value, bool) {
		s := args[0].AsStruct()
		tag, _ := s.GetName("tag")
		if tag.AsInt() >= 100 {
			s.SetName("kind", values.Int(2))
		} else {
			s.SetName("kind", values.Int(1))
		}
		return values.Nil, false
	})
	obj, err := ex.Call("S::Msg_parse", values.BytesFrom([]byte{5, 'a', 'b'}))
	if err != nil {
		t.Fatal(err)
	}
	if got := fieldStr(t, obj, "short"); got != "ab" {
		t.Errorf("short = %q", got)
	}
	obj, err = ex.Call("S::Msg_parse", values.BytesFrom([]byte{200, 'w', 'x', 'y', 'z'}))
	if err != nil {
		t.Fatal(err)
	}
	if got := fieldStr(t, obj, "long"); got != "wxyz" {
		t.Errorf("long = %q", got)
	}
}

func TestBytesUntilAndRest(t *testing.T) {
	g := &Grammar{
		Name: "U",
		Top:  "Msg",
		Units: []*Unit{{
			Name: "Msg",
			Fields: []*Field{
				{Name: "line", Kind: FBytesUntil, Delim: "\r\n"},
				{Name: "rest", Kind: FRestOfData},
			},
		}},
	}
	ex := compileAndExec(t, g)
	obj, err := ex.Call("U::Msg_parse", values.BytesFrom([]byte("hello\r\nworld!")))
	if err != nil {
		t.Fatal(err)
	}
	if got := fieldStr(t, obj, "line"); got != "hello" {
		t.Errorf("line = %q", got)
	}
	if got := fieldStr(t, obj, "rest"); got != "world!" {
		t.Errorf("rest = %q", got)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []*Grammar{
		{Name: "G", Top: "Missing"},
		{Name: "G", Top: "U", Units: []*Unit{{Name: "U", Fields: []*Field{{Kind: FToken}}}}},
		{Name: "G", Top: "U", Units: []*Unit{{Name: "U", Fields: []*Field{{Kind: FUInt, Width: 7}}}}},
		{Name: "G", Top: "U", Units: []*Unit{{Name: "U", Fields: []*Field{{Kind: FSubUnit, Unit: "Nope"}}}}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("grammar %d should not validate", i)
		}
	}
}

// TestSharedSwitchMembers: a name repeated across the alternatives of one
// switch, the default included, is one member, which whichever alternative
// parses sets. Anywhere else a repeated name is still a duplicate.
func TestSharedSwitchMembers(t *testing.T) {
	bytesField := func(name string, n int64) *Field {
		return &Field{Name: name, Kind: FBytes, Length: ConstSrc(n)}
	}
	msg := func(fields ...*Field) *Grammar {
		return &Grammar{Name: "S", Top: "Msg", Units: []*Unit{{Name: "Msg", Fields: append(
			[]*Field{{Name: "tag", Kind: FUInt, Width: 8}}, fields...)}}}
	}
	swOn := func(on string, cases [][]*Field, dflt ...*Field) *Field {
		f := &Field{Kind: FSwitch, On: FieldSrc(on), Default: dflt}
		for i, fs := range cases {
			f.Cases = append(f.Cases, Case{Value: int64(i + 1), Fields: fs})
		}
		return f
	}
	sw := func(cases [][]*Field, dflt ...*Field) *Field { return swOn("tag", cases, dflt...) }

	g := msg(sw([][]*Field{
		{bytesField("v", 2)},
		{bytesField("v", 4)},
		{{Name: "sub", Kind: FUInt, Width: 8},
			swOn("sub", [][]*Field{{bytesField("v", 1)}, {bytesField("w", 1)}}, bytesField("v", 3))},
	}, &Field{Name: "v", Kind: FUInt, Width: 8}))
	mod, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range mod.Types["Msg"].StructDef.Fields {
		names = append(names, f.Name)
	}
	if got := strings.Join(names, " "); got != "tag v sub w" {
		t.Fatalf("members %q, want \"tag v sub w\"", got)
	}
	ex := compileAndExec(t, g)
	for in, want := range map[string]string{"\x01ab": "ab", "\x02wxyz": "wxyz", "\x03\x01c": "c", "\x03\x09def": "def", "\x07\x2a": "42"} {
		obj, err := ex.Call("S::Msg_parse", values.BytesFrom([]byte(in)))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got := fieldStr(t, obj, "v"); got != want {
			t.Errorf("%q: v = %q, want %q", in, got, want)
		}
	}

	for name, g := range map[string]*Grammar{
		"twice in one alternative":            msg(sw([][]*Field{{bytesField("v", 1), bytesField("v", 1)}})),
		"in two switches":                     msg(sw([][]*Field{{bytesField("v", 1)}}), sw([][]*Field{{bytesField("v", 1)}})),
		"in an alternative and a plain field": msg(bytesField("v", 1), sw([][]*Field{{bytesField("v", 1)}})),
		"in an alternative and an enclosing one's sibling": msg(sw([][]*Field{
			{bytesField("v", 1), sw([][]*Field{{bytesField("v", 1)}})}})),
	} {
		if _, err := Compile(g); err == nil || !strings.Contains(err.Error(), `duplicate member "v"`) {
			t.Errorf("%s: %v, want a duplicate member", name, err)
		}
	}
}
