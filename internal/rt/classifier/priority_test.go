package classifier

import (
	"errors"
	"testing"

	"hilti/internal/rt/values"
)

// Priority and overlap semantics: the paper fixes first-match-wins by
// insertion order, NOT longest-prefix or most-specific. These tests pin
// that down on the linear matcher, which is the reference the compiled
// rule plane is checked against (ruleplane/classifier_test.go).

func TestInsertionOrderBeatsSpecificity(t *testing.T) {
	c := New(1)
	if err := c.AddValues(values.Int(1), values.MustParseNet("10.0.0.0/8")); err != nil {
		t.Fatal(err)
	}
	if err := c.AddValues(values.Int(2), values.MustParseNet("10.1.2.3/32")); err != nil {
		t.Fatal(err)
	}
	c.Compile()
	// The /32 is more specific but was added later: the /8 must win.
	v, err := c.Get(values.MustParseAddr("10.1.2.3"))
	if err != nil || v.AsInt() != 1 {
		t.Fatalf("got %v, %v; want rule 1 (/8 added first)", v, err)
	}
}

func TestWildcardFirstShadowsEverything(t *testing.T) {
	c := New(1)
	c.Add([]Field{Wildcard{}}, values.Int(0)) // all-wildcard rule, added first
	c.AddValues(values.Int(1), values.MustParseNet("10.0.0.0/8"))
	c.Compile()
	for _, a := range []string{"10.1.1.1", "192.168.0.1"} {
		v, err := c.Get(values.MustParseAddr(a))
		if err != nil || v.AsInt() != 0 {
			t.Fatalf("%s: got %v, %v; want wildcard rule", a, v, err)
		}
	}
}

func TestNestedPrefixesInterleavedPriority(t *testing.T) {
	// Nested prefixes with priorities deliberately out of specificity
	// order: the earliest-added match wins, however specific a later one is.
	rules := []struct {
		net string
		val int64
	}{
		{"10.1.0.0/16", 0}, // wins for anything in 10.1/16
		{"10.0.0.0/8", 1},
		{"10.1.2.0/24", 2}, // shadowed by the /16 above
		{"0.0.0.0/0", 3},
	}
	probes := []struct {
		addr string
		want int64
	}{
		{"10.1.2.3", 0},
		{"10.1.9.9", 0},
		{"10.2.0.1", 1},
		{"172.16.0.1", 3},
	}
	c := New(1)
	for _, r := range rules {
		if err := c.AddValues(values.Int(r.val), values.MustParseNet(r.net)); err != nil {
			t.Fatal(err)
		}
	}
	c.Compile()
	for _, p := range probes {
		v, err := c.Get(values.MustParseAddr(p.addr))
		if err != nil || v.AsInt() != p.want {
			t.Errorf("%s: got %v, %v; want %d", p.addr, v, err, p.want)
		}
	}
}

func TestNonAddressFirstField(t *testing.T) {
	c := New(2)
	c.Add([]Field{ExactField{Val: values.Int(6)}, Wildcard{}}, values.Int(100))
	c.Add([]Field{Wildcard{}, ExactField{Val: values.Int(53)}}, values.Int(200))
	c.Compile()
	v, err := c.Get(values.Int(6), values.Int(53))
	if err != nil || v.AsInt() != 100 {
		t.Fatalf("got %v, %v; want first rule", v, err)
	}
	v, err = c.Get(values.Int(17), values.Int(53))
	if err != nil || v.AsInt() != 200 {
		t.Fatalf("got %v, %v; want second rule", v, err)
	}
	if _, err = c.Get(values.Int(17), values.Int(80)); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("want ErrNoMatch, got %v", err)
	}
}

func TestIPv6LongPrefix(t *testing.T) {
	// A /96 prefix reaches past bit 64 (the address's low word).
	c := New(1)
	c.AddValues(values.Int(1), values.MustParseNet("2001:db8::/96"))
	c.AddValues(values.Int(2), values.MustParseNet("2001:db8::/32"))
	c.Compile()
	v, err := c.Get(values.MustParseAddr("2001:db8::42"))
	if err != nil || v.AsInt() != 1 {
		t.Fatalf("got %v, %v; want /96 rule (added first)", v, err)
	}
	v, err = c.Get(values.MustParseAddr("2001:db8:1::1"))
	if err != nil || v.AsInt() != 2 {
		t.Fatalf("got %v, %v; want /32 rule", v, err)
	}
}

func TestPortRangeBoundaries(t *testing.T) {
	f := PortRangeField{Lo: 1024, Hi: 2048, Proto: values.ProtoTCP}
	for p, want := range map[uint16]bool{1023: false, 1024: true, 2048: true, 2049: false} {
		if got := f.Matches(values.PortVal(p, values.ProtoTCP)); got != want {
			t.Errorf("port %d: match = %v, want %v", p, got, want)
		}
	}
	if f.Matches(values.PortVal(1500, values.ProtoUDP)) {
		t.Error("wrong protocol must not match")
	}
}

func TestEmptyClassifier(t *testing.T) {
	c := New(1)
	c.Compile()
	if _, err := c.Get(values.MustParseAddr("1.2.3.4")); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("want ErrNoMatch on empty table, got %v", err)
	}
	if c.Matches(values.MustParseAddr("1.2.3.4")) {
		t.Fatal("Matches on empty table")
	}
}

func TestGetKeyArityChecked(t *testing.T) {
	c := New(2)
	c.Add([]Field{Wildcard{}, Wildcard{}}, values.Int(1))
	c.Compile()
	if _, err := c.Get(values.MustParseAddr("1.2.3.4")); err == nil || errors.Is(err, ErrNoMatch) {
		t.Fatalf("short key accepted: %v", err)
	}
}
