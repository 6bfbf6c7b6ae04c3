package binpac_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hilti/internal/binpac"
	"hilti/internal/binpac/grammars"
	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/types"
	"hilti/internal/hilti/vm"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// Tests for the layout lowering: a run of adjacent fixed-width integers is
// one unpack.fields instruction (binpac.Compile), held against the
// field-by-field reference (binpac.CompileFieldByField) on everything a
// parse shows — struct contents whenever it parks, hook observations, the
// exception and the fields stored before it.

// mixPac2 mixes widths and byte orders; the hooked d splits what would
// otherwise be one run, and an anonymous field sits inside the second run.
const mixPac2 = `
module Mix;

export type Rec = unit {
    a: uint8;
    b: uint16;
    c: uint32 &littleendian;
    d: uint16 &hook;
    e: uint8;
    : uint16;
    f: uint32;
    g: uint16 &littleendian;
    h: uint8;
    tail: bytes &length=self.h;
};
`

var mixInput = []byte{
	0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, // a b c
	0x08, 0x09, // d
	0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10, 0x11, 0x12, 0x02, // e _ f g h
	'h', 'i',
}

// mixModules is the Mix parser plus a body for its field hook, which shows
// the host the struct as it stands when d has been parsed.
func mixModules(t *testing.T, compile func(*binpac.Grammar) (*ast.Module, error)) []*ast.Module {
	t.Helper()
	g, err := binpac.ParsePac2(mixPac2)
	if err != nil {
		t.Fatal(err)
	}
	parser, err := compile(g)
	if err != nil {
		t.Fatal(err)
	}
	b := ast.NewBuilder("MixHooks")
	fb := b.Hook("Rec::d", 0, ast.Param{Name: "self", Type: types.AnyT})
	fb.Call("seen", ast.VarOp("self"))
	fb.ReturnVoid()
	return []*ast.Module{parser, b.M}
}

// layouts lists the unpack.fields layouts of a compiled parser.
func layouts(m *ast.Module) []string {
	var out []string
	for _, f := range m.Functions {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == "unpack.fields" {
					out = append(out, in.Ops[2].Val.AsString())
				}
			}
		}
	}
	return out
}

func TestLayoutRunsSplitAtHooks(t *testing.T) {
	got := layouts(mixModules(t, binpac.Compile)[0])
	want := []string{"a:uint8 b:uint16be c:uint32le", "e:uint8 :uint16be f:uint32be g:uint16le h:uint8"}
	if !slices.Equal(got, want) {
		t.Fatalf("layouts %q, want %q", got, want)
	}
	if ref := layouts(mixModules(t, binpac.CompileFieldByField)[0]); len(ref) != 0 {
		t.Fatalf("the field-by-field reference lowered runs: %q", ref)
	}
}

// parser is one linked lowering of a grammar, ready to parse.
type parser struct {
	ex   *vm.Exec
	fn   *vm.CompiledFunc
	def  *values.StructDef
	args []values.Value // after self and cur
	seen []string       // what the grammar's hooks showed the host
}

func newParser(t *testing.T, mods []*ast.Module, level int, fn, unit string, args ...values.Value) *parser {
	t.Helper()
	prog, err := vm.LinkWith(vm.Options{OptLevel: level}, mods...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := vm.NewExec(prog)
	if err != nil {
		t.Fatal(err)
	}
	p := &parser{ex: ex, fn: prog.Fn(fn), def: mods[0].Types[unit].StructDef.Runtime(), args: args}
	for _, host := range []string{"seen", "bro_dns_message"} {
		ex.RegisterHost(host, func(_ *vm.Exec, a []values.Value) (values.Value, error) {
			p.seen = append(p.seen, values.Format(a[len(a)-1]))
			return values.Nil, nil
		})
	}
	return p
}

// parse feeds pieces one resume each, then freezes the rope and finishes,
// rendering the struct after every resume, what the hooks showed, and how
// the parse ended.
func (p *parser) parse(pieces ...[]byte) string {
	p.seen = nil
	rope := hbytes.New()
	self := values.StructVal(values.NewStruct(p.def))
	r := p.ex.FiberCall(p.fn, append([]values.Value{self, values.IterBytes(rope.Begin())}, p.args...)...)
	var out []string
	resume := func() bool {
		_, done, err := r.Resume()
		out = append(out, fmt.Sprintf("%v %v %s", done, err, values.Format(self)))
		return done
	}
	for _, piece := range pieces {
		rope.Append(piece)
		if resume() {
			break
		}
	}
	if !r.Done() {
		rope.Freeze()
		resume()
	}
	return strings.Join(append(out, p.seen...), "\n")
}

// splits is every way of cutting input that the differential feeds: in two
// at every offset, one byte at a time, and truncated at every length (the
// rope frozen short).
func splits(input []byte) [][][]byte {
	var out [][][]byte
	for k := 0; k <= len(input); k++ {
		out = append(out, [][]byte{input[:k], input[k:]})
		if k < len(input) {
			out = append(out, [][]byte{input[:k]})
		}
	}
	var bytewise [][]byte
	for i := range input {
		bytewise = append(bytewise, input[i:i+1])
	}
	return append(out, bytewise)
}

// differential parses every split with both lowerings at O0, O1 and O2;
// each must read exactly as the field-by-field reference at O0.
func differential(t *testing.T, input []byte, mods, ref func(level int) *parser) {
	want := ref(0)
	for _, level := range []int{0, 1, 2} {
		for _, p := range []*parser{mods(level), ref(level)} {
			for _, pieces := range splits(input) {
				if got, want := p.parse(pieces...), want.parse(pieces...); got != want {
					t.Fatalf("O%d, %d pieces, the first of %d bytes:\n--- got ---\n%s\n--- field by field ---\n%s",
						level, len(pieces), len(pieces[0]), got, want)
				}
			}
		}
	}
}

func TestLayoutRunsMatchFieldByField(t *testing.T) {
	mix := func(compile func(*binpac.Grammar) (*ast.Module, error)) func(int) *parser {
		return func(level int) *parser {
			return newParser(t, mixModules(t, compile), level, "Mix::parse_Rec", "Rec")
		}
	}
	full := mix(binpac.Compile)(1).parse(mixInput)
	if !strings.Contains(full, "d=2057") || !strings.Contains(full, "g=4625, h=2, tail=hi") ||
		!strings.Contains(full, "c=117835012, d=2057, e=(unset)") {
		t.Fatalf("Mix parse:\n%s", full)
	}
	differential(t, mixInput, mix(binpac.Compile), mix(binpac.CompileFieldByField))

	// A run longer than the executor's stack buffer.
	var src strings.Builder
	wideInput := make([]byte, 18*4)
	src.WriteString("module Wide;\nexport type Rec = unit {\n")
	for i := range 18 {
		fmt.Fprintf(&src, "    f%d: uint32;\n", i)
		wideInput[4*i+3] = byte(i)
	}
	src.WriteString("};\n")
	wide := func(compile func(*binpac.Grammar) (*ast.Module, error)) func(int) *parser {
		return func(level int) *parser {
			g, err := binpac.ParsePac2(src.String())
			if err != nil {
				t.Fatal(err)
			}
			m, err := compile(g)
			if err != nil {
				t.Fatal(err)
			}
			return newParser(t, []*ast.Module{m}, level, "Wide::parse_Rec", "Rec")
		}
	}
	differential(t, wideInput, wide(binpac.Compile), wide(binpac.CompileFieldByField))
}

// TestDNSLayoutMatchesFieldByField runs the DNS grammar — Message's six
// header fields, Question's and RR's fixed tails as runs, names through
// parse_name — against its field-by-field lowering on a message with a
// compressed name, an A and a TXT answer, cut everywhere.
func TestDNSLayoutMatchesFieldByField(t *testing.T) {
	mods, err := grammars.DNSModules()
	if err != nil {
		t.Fatal(err)
	}
	refParser, err := binpac.CompileFieldByField(grammars.DNSGrammar())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{ // Question, RR, Message
		"qtype:uint16be qclass:uint16be",
		"rtype:uint16be class:uint16be ttl:uint32be rdlen:uint16be",
		"id:uint16be flags:uint16be qdcount:uint16be ancount:uint16be nscount:uint16be arcount:uint16be",
	}
	if got := layouts(mods[0]); !slices.Equal(got, want) {
		t.Fatalf("DNS layouts %q, want %q", got, want)
	}
	dns := func(mods []*ast.Module) func(int) *parser {
		return func(level int) *parser {
			return newParser(t, mods, level, "DNS::parse_Message", "Message", values.Int(1))
		}
	}
	differential(t, dnsMessage, dns(mods), dns([]*ast.Module{refParser, mods[1]}))
}

// dnsMessage: id 0xBEEF, one question www.example.com A IN, an A answer
// and a TXT answer whose names are compression pointers to the question's.
var dnsMessage = []byte{
	0xbe, 0xef, 0x81, 0x80, 0, 1, 0, 2, 0, 0, 0, 0,
	3, 'w', 'w', 'w', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0, 0, 1, 0, 1,
	0xc0, 12, 0, 1, 0, 1, 0, 0, 0x0e, 0x10, 0, 4, 93, 184, 216, 34,
	0xc0, 12, 0, 16, 0, 1, 0, 0, 0, 60, 0, 7, 3, 'a', 'b', 'c', 2, 'd', 'e',
}

// TestDNSParseMessageGolden pins DNS::parse_Message at O1: the header is
// one unpack.fields, each counted list is a vector sized for its count.
func TestDNSParseMessageGolden(t *testing.T) {
	mods, err := grammars.DNSModules()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.LinkWith(vm.Options{OptLevel: 1}, mods...)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `func DNS::parse_Message (params=3 regs=19)
0000 assign             r3 <- r1
0001 unpack.fields      r1 <- r0, r1, c:id:uint16be flags:uint16be qdcount:uint16be ancount:uint16be nscount:uint16be arcount:uint16be
0002 assign             r4 <- c:0
0003 struct.get_idx     r5 <- r0, c:qdcount
0004 new                r6 <- r5
0005 int.lt+br          r7 <- r4, r5 ; t1=6 t2=10
0006 new                r8
0007 call               r1 <- r8, r1, r3
0008 vector.push_back   r6, r8
0009 int.add            r4 <- r4, c:1 ; t1=5
0010 struct.set_idx     r0, c:questions, r6
0011 assign             r9 <- c:0
0012 struct.get_idx     r10 <- r0, c:ancount
0013 new                r11 <- r10
0014 int.lt+br          r12 <- r9, r10 ; t1=15 t2=19
0015 new                r13
0016 call               r1 <- r13, r1, r3
0017 vector.push_back   r11, r13
0018 int.add            r9 <- r9, c:1 ; t1=14
0019 struct.set_idx     r0, c:answers, r11
0020 assign             r14 <- c:0
0021 struct.get_idx     r15 <- r0, c:nscount
0022 new                r16 <- r15
0023 int.lt+br          r17 <- r14, r15 ; t1=24 t2=28
0024 new                r18
0025 call               r1 <- r18, r1, r3
0026 vector.push_back   r16, r18
0027 int.add            r14 <- r14, c:1 ; t1=23
0028 struct.set_idx     r0, c:authority, r16
0029 hook.run           _ <- r0, r2
0030 return.result      _ <- r1
`
	if got := prog.Fn("DNS::parse_Message").Disasm(); got != golden {
		t.Fatalf("DNS::parse_Message at O1:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}
