package values

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddrParseFormatV4(t *testing.T) {
	a := MustParseAddr("192.168.1.1")
	if !a.AddrIsV4() {
		t.Fatal("should be v4-mapped")
	}
	if got := Format(a); got != "192.168.1.1" {
		t.Fatalf("format = %q", got)
	}
}

func TestAddrParseFormatV6(t *testing.T) {
	cases := []string{"2001:db8::1", "::1", "fe80::1:2:3", "2001:db8:0:1:1:1:1:1"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if a.AddrIsV4() {
			t.Fatalf("%s classified as v4", s)
		}
		back, err := ParseAddr(Format(a))
		if err != nil || !Equal(a, back) {
			t.Fatalf("%s: roundtrip %q -> %v", s, Format(a), err)
		}
	}
}

func TestAddrV4MappedEmbedded(t *testing.T) {
	a := MustParseAddr("::ffff:10.0.0.1")
	b := MustParseAddr("10.0.0.1")
	if !Equal(a, b) {
		t.Fatal("IPv4-mapped form should equal plain IPv4")
	}
}

func TestNetContains(t *testing.T) {
	n := MustParseNet("10.0.5.0/24")
	if !n.NetContains(MustParseAddr("10.0.5.77")) {
		t.Fatal("should contain")
	}
	if n.NetContains(MustParseAddr("10.0.6.1")) {
		t.Fatal("should not contain")
	}
	if got := Format(n); got != "10.0.5.0/24" {
		t.Fatalf("format = %q", got)
	}
	n6 := MustParseNet("2001:db8::/32")
	if !n6.NetContains(MustParseAddr("2001:db8:1::5")) {
		t.Fatal("v6 should contain")
	}
	if n6.NetContains(MustParseAddr("2001:db9::1")) {
		t.Fatal("v6 should not contain")
	}
}

func TestNetNormalizesHostBits(t *testing.T) {
	a := MustParseNet("10.1.2.3/16")
	b := MustParseNet("10.1.0.0/16")
	if !Equal(a, b) {
		t.Fatal("host bits should be masked off")
	}
}

func TestPortParseFormat(t *testing.T) {
	p, err := ParsePort("80/tcp")
	if err != nil {
		t.Fatal(err)
	}
	num, proto := p.AsPort()
	if num != 80 || proto != ProtoTCP {
		t.Fatalf("got %d/%d", num, proto)
	}
	if Format(p) != "80/tcp" {
		t.Fatalf("format = %q", Format(p))
	}
	if _, err := ParsePort("80"); err == nil {
		t.Fatal("want error for missing proto")
	}
}

func TestEqualScalars(t *testing.T) {
	if !Equal(Int(42), Int(42)) || Equal(Int(42), Int(43)) {
		t.Fatal("int equality")
	}
	if Equal(Int(1), Bool(true)) {
		t.Fatal("cross-kind equality must be false")
	}
	if !Equal(String("x"), String("x")) {
		t.Fatal("string equality")
	}
	if !Equal(BytesFrom([]byte("ab")), BytesFrom([]byte("ab"))) {
		t.Fatal("bytes equality is by content")
	}
}

func TestTupleEqualCompareKey(t *testing.T) {
	a := TupleVal(MustParseAddr("1.2.3.4"), PortVal(80, ProtoTCP))
	b := TupleVal(MustParseAddr("1.2.3.4"), PortVal(80, ProtoTCP))
	c := TupleVal(MustParseAddr("1.2.3.4"), PortVal(81, ProtoTCP))
	if !Equal(a, b) || Equal(a, c) {
		t.Fatal("tuple equality")
	}
	if Key(a) != Key(b) || Key(a) == Key(c) {
		t.Fatal("tuple keying")
	}
	if Compare(a, c) >= 0 {
		t.Fatal("tuple ordering")
	}
}

func TestStructDefaultsAndUnset(t *testing.T) {
	def := NewStructDef("conn",
		StructField{Name: "src"},
		StructField{Name: "count", Default: Int(0)},
	)
	s := NewStruct(def)
	if _, ok := s.GetName("src"); ok {
		t.Fatal("src should be unset")
	}
	if v, ok := s.GetName("count"); !ok || v.AsInt() != 0 {
		t.Fatal("count default should apply")
	}
	s.SetName("src", MustParseAddr("1.1.1.1"))
	if v, ok := s.GetName("src"); !ok || Format(v) != "1.1.1.1" {
		t.Fatal("set/get")
	}
	if def.Index("nope") != -1 {
		t.Fatal("unknown index")
	}
}

func TestDeepCopyStruct(t *testing.T) {
	def := NewStructDef("r", StructField{Name: "b"})
	s := NewStruct(def)
	bv := BytesFrom([]byte("abc"))
	s.SetName("b", bv)
	cp := DeepCopy(StructVal(s))
	// Mutate the original's bytes; the copy must be unaffected.
	bv.AsBytes().Unfreeze()
	bv.AsBytes().Append([]byte("XYZ"))
	got, _ := cp.AsStruct().GetName("b")
	if got.AsBytes().String() != "abc" {
		t.Fatalf("deep copy shares bytes: %q", got.AsBytes().String())
	}
}

// TestDeepCopyEverySize: a struct or tuple copies field for field at every
// size, stored inline (up to 16 struct fields, 4 tuple elements) or not,
// and mutating the copy leaves the original alone.
func TestDeepCopyEverySize(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 9, 16, 17} {
		fs := make([]StructField, n)
		for i := range fs {
			fs[i] = StructField{Name: fmt.Sprintf("f%d", i)}
		}
		s := NewStruct(NewStructDef("r", fs...))
		tu := NewTuple(n)
		for i := range n {
			s.Set(i, Int(int64(i)))
			tu.Elems[i] = Int(int64(i))
		}
		for _, c := range []struct {
			kind       string
			orig, copy []Value
		}{
			{"struct", s.Fields, DeepCopy(StructVal(s)).AsStruct().Fields},
			{"tuple", tu.Elems, DeepCopy(Ref(KindTuple, tu)).AsTuple().Elems},
		} {
			if len(c.copy) != n || cap(c.copy) != n {
				t.Fatalf("%d-%s copy: len %d cap %d", n, c.kind, len(c.copy), cap(c.copy))
			}
			for i := range c.copy {
				if c.copy[i] != Int(int64(i)) {
					t.Fatalf("%d-%s copy: element %d = %v", n, c.kind, i, c.copy[i])
				}
				c.copy[i] = Int(-1)
			}
			for i, v := range c.orig {
				if v != Int(int64(i)) {
					t.Fatalf("%d-%s: mutating the copy changed the original's element %d to %v", n, c.kind, i, v)
				}
			}
		}
	}
}

func TestFormat(t *testing.T) {
	cases := map[string]Value{
		"True":        Bool(true),
		"-7":          Int(-7),
		"3.5":         Double(3.5),
		"hi":          String("hi"),
		"1.2.3.4":     MustParseAddr("1.2.3.4"),
		"53/udp":      PortVal(53, ProtoUDP),
		"300.000000s": IntervalVal(300 * 1e9),
	}
	for want, v := range cases {
		if got := Format(v); got != want {
			t.Errorf("Format(%v) = %q, want %q", v.K, got, want)
		}
	}
	if !strings.HasPrefix(Format(TimeVal(0)), "1970-01-01T00:00:00") {
		t.Errorf("time format: %q", Format(TimeVal(0)))
	}
}

func TestEnumFormat(t *testing.T) {
	et := NewEnumType("ExpireStrategy", "Create", "Access")
	v := EnumVal(et, 1)
	if Format(v) != "ExpireStrategy::Access" {
		t.Fatalf("got %q", Format(v))
	}
	if et.Label(99) != "Undef" {
		t.Fatal("unknown label")
	}
}

func TestIsTruthy(t *testing.T) {
	if IsTruthy(Int(0)) || !IsTruthy(Int(1)) {
		t.Fatal("int truthiness")
	}
	if IsTruthy(String("")) || !IsTruthy(String("x")) {
		t.Fatal("string truthiness")
	}
	if IsTruthy(Nil) || IsTruthy(Unset) {
		t.Fatal("nil truthiness")
	}
}

func TestHashStability(t *testing.T) {
	a := TupleVal(MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.2"))
	b := TupleVal(MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.2"))
	if Hash(a) != Hash(b) {
		t.Fatal("hash must be deterministic by content")
	}
	if Hash(a) == 0 {
		t.Fatal("hash should not be zero for hashable values")
	}
}

// Property: Equal(a, b) iff Key(a) == Key(b) for integer tuples.
func TestQuickKeyEqualAgreement(t *testing.T) {
	f := func(x, y int64, s1, s2 string) bool {
		a := TupleVal(Int(x), String(s1))
		b := TupleVal(Int(y), String(s2))
		return Equal(a, b) == (Key(a) == Key(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is antisymmetric and consistent with Equal for ints.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(x, y int64) bool {
		a, b := Int(x), Int(y)
		return Compare(a, b) == -Compare(b, a) &&
			(Compare(a, b) == 0) == Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: address parse/format roundtrips for arbitrary 16-byte addresses.
func TestQuickAddrRoundtrip(t *testing.T) {
	f := func(raw [16]byte) bool {
		a := AddrFrom16(raw)
		back, err := ParseAddr(Format(a))
		return err == nil && Equal(a, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendAddr appends exactly Format's text, for both families.
func TestQuickAppendAddrMatchesFormat(t *testing.T) {
	f := func(raw [16]byte, v4 bool) bool {
		if v4 {
			copy(raw[:12], []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})
		}
		a := AddrFrom16(raw)
		return string(AppendAddr([]byte("x"), a)) == "x"+Format(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFormatAddrV4AllocatesOnlyTheString: an IPv4 address renders into a
// stack buffer, so Format costs the one string it returns.
func TestFormatAddrV4AllocatesOnlyTheString(t *testing.T) {
	a := AddrFrom4([4]byte{192, 168, 100, 200})
	var s string
	if n := testing.AllocsPerRun(100, func() { s = Format(a) }); n != 1 || s != "192.168.100.200" {
		t.Fatalf("Format = %q in %v allocations, want 1", s, n)
	}
}

// refFormatV6 is formatAddr's IPv6 case as it was before appendV6: the
// reference appendV6 is held to.
func refFormatV6(v Value) string {
	b := v.Addr16()
	groups := make([]uint16, 8)
	for i := range groups {
		groups[i] = uint16(b[2*i])<<8 | uint16(b[2*i+1])
	}
	// Find the longest run of zero groups for "::" compression.
	bestStart, bestLen := -1, 0
	for i := 0; i < 8; {
		if groups[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && groups[j] == 0 {
			j++
		}
		if j-i > bestLen {
			bestStart, bestLen = i, j-i
		}
		i = j
	}
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		if i == bestStart && bestLen > 1 {
			sb.WriteString("::")
			i += bestLen - 1
			continue
		}
		if i > 0 && !(bestLen > 1 && i == bestStart+bestLen) {
			sb.WriteByte(':')
		}
		sb.WriteString(strconv.FormatUint(uint64(groups[i]), 16))
	}
	return sb.String()
}

// TestFormatV6MatchesReference: an IPv6 address renders to refFormatV6's
// text, byte for byte, over a seeded sweep that places a zero run of every
// length at every position — the other groups nonzero, or zero at random
// so that two runs compete — and over random addresses; Format of one
// costs the string it returns.
func TestFormatV6MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 6))
	group := func(zeroOdds int) uint16 {
		if zeroOdds > 0 && rng.IntN(zeroOdds) == 0 {
			return 0
		}
		// Widths of one to four hex digits, never zero.
		return uint16(1 + rng.IntN(1<<(4*(1+rng.IntN(4)))-1))
	}
	var addrs []Value
	for start := 0; start < 8; start++ {
		for n := 0; start+n <= 8; n++ {
			for _, zeroOdds := range []int{0, 3, 2} {
				for rep := 0; rep < 8; rep++ {
					var b [16]byte
					for i := 0; i < 8; i++ {
						g := uint16(0)
						if i < start || i >= start+n {
							g = group(zeroOdds)
						}
						b[2*i], b[2*i+1] = byte(g>>8), byte(g)
					}
					addrs = append(addrs, AddrFrom16(b))
				}
			}
		}
	}
	for i := 0; i < 2000; i++ {
		var b [16]byte
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		addrs = append(addrs, AddrFrom16(b))
	}
	for _, a := range addrs {
		if a.AddrIsV4() {
			continue
		}
		want := refFormatV6(a)
		if got := Format(a); got != want {
			t.Fatalf("Format(%x) = %q, want %q", a.Addr16(), got, want)
		}
		if got := string(AppendAddr([]byte("x"), a)); got != "x"+want {
			t.Fatalf("AppendAddr(%x) = %q, want %q", a.Addr16(), got, "x"+want)
		}
	}
	a := MustParseAddr("2001:db8:0:0:1:0:0:1")
	var s string
	if n := testing.AllocsPerRun(100, func() { s = Format(a) }); n != 1 || s != "2001:db8::1:0:0:1" {
		t.Fatalf("Format = %q in %v allocations, want 1", s, n)
	}
}

func BenchmarkAddrEqual(b *testing.B) {
	x := MustParseAddr("10.20.30.40")
	y := MustParseAddr("10.20.30.40")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Equal(x, y) {
			b.Fatal("ne")
		}
	}
}

func BenchmarkTupleKey(b *testing.B) {
	v := TupleVal(MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.2"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Key(v)
	}
}
