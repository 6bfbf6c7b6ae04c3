package classifier

import (
	"errors"
	"math/rand"
	"testing"

	"hilti/internal/rt/values"
)

// paperRules builds the classifier of the paper's Figure 5 firewall.
func paperRules(t *testing.T) *Classifier {
	t.Helper()
	c := New(2)
	add := func(src, dst string, allow bool) {
		var sf, df Field
		if src == "*" {
			sf = Wildcard{}
		} else {
			sf = NetField{Net: values.MustParseNet(src)}
		}
		if dst == "*" {
			df = Wildcard{}
		} else {
			df = NetField{Net: values.MustParseNet(dst)}
		}
		if err := c.Add([]Field{sf, df}, values.Bool(allow)); err != nil {
			t.Fatal(err)
		}
	}
	add("10.3.2.1/32", "10.1.0.0/16", true)
	add("10.12.0.0/16", "10.1.0.0/16", false)
	add("10.1.6.0/24", "*", true)
	add("10.1.7.0/24", "*", true)
	c.Compile()
	return c
}

func TestPaperFirewallRules(t *testing.T) {
	c := paperRules(t)
	cases := []struct {
		src, dst string
		want     bool
		miss     bool
	}{
		{"10.3.2.1", "10.1.5.5", true, false},
		{"10.12.9.9", "10.1.5.5", false, false},
		{"10.1.6.77", "192.168.0.1", true, false},
		{"10.1.7.1", "8.8.8.8", true, false},
		{"172.16.0.1", "10.1.0.1", false, true},
	}
	for _, tc := range cases {
		v, err := c.Get(values.MustParseAddr(tc.src), values.MustParseAddr(tc.dst))
		if tc.miss {
			if !errors.Is(err, ErrNoMatch) {
				t.Errorf("%s->%s: want no-match, got %v %v", tc.src, tc.dst, v, err)
			}
			continue
		}
		if err != nil || v.AsBool() != tc.want {
			t.Errorf("%s->%s = %v, %v; want %v", tc.src, tc.dst, v, err, tc.want)
		}
	}
}

func TestFirstMatchWinsByInsertionOrder(t *testing.T) {
	c := New(1)
	c.Add([]Field{NetField{Net: values.MustParseNet("10.0.0.0/8")}}, values.Int(1))
	c.Add([]Field{NetField{Net: values.MustParseNet("10.1.0.0/16")}}, values.Int(2))
	c.Compile()
	v, err := c.Get(values.MustParseAddr("10.1.2.3"))
	if err != nil || v.AsInt() != 1 {
		t.Fatalf("want first rule (1), got %v %v", v, err)
	}
}

func TestAddAfterCompileRejected(t *testing.T) {
	c := New(1)
	c.Compile()
	if err := c.Add([]Field{Wildcard{}}, values.Nil); !errors.Is(err, ErrCompiled) {
		t.Fatalf("got %v", err)
	}
}

func TestGetBeforeCompileRejected(t *testing.T) {
	c := New(1)
	c.Add([]Field{Wildcard{}}, values.Nil)
	if _, err := c.Get(values.Int(1)); !errors.Is(err, ErrNotCompiled) {
		t.Fatalf("got %v", err)
	}
}

func TestFieldArityChecked(t *testing.T) {
	c := New(2)
	if err := c.Add([]Field{Wildcard{}}, values.Nil); err == nil {
		t.Fatal("wrong arity accepted")
	}
	c.Add([]Field{Wildcard{}, Wildcard{}}, values.Nil)
	c.Compile()
	if _, err := c.Get(values.Int(1)); err == nil {
		t.Fatal("wrong key arity accepted")
	}
}

func TestExactAndPortRangeFields(t *testing.T) {
	c := New(2)
	c.Add([]Field{
		ExactField{Val: values.MustParseAddr("1.2.3.4")},
		PortRangeField{Lo: 1024, Hi: 2048, Proto: values.ProtoTCP},
	}, values.String("hit"))
	c.Compile()
	v, err := c.Get(values.MustParseAddr("1.2.3.4"), values.PortVal(1500, values.ProtoTCP))
	if err != nil || v.AsString() != "hit" {
		t.Fatalf("got %v %v", v, err)
	}
	if _, err := c.Get(values.MustParseAddr("1.2.3.4"), values.PortVal(1500, values.ProtoUDP)); err == nil {
		t.Fatal("wrong proto matched")
	}
	if _, err := c.Get(values.MustParseAddr("1.2.3.4"), values.PortVal(80, values.ProtoTCP)); err == nil {
		t.Fatal("port outside range matched")
	}
}

func TestFieldForDispatch(t *testing.T) {
	if _, ok := FieldFor(values.MustParseNet("10.0.0.0/8")).(NetField); !ok {
		t.Fatal("net should map to NetField")
	}
	if _, ok := FieldFor(values.Nil).(Wildcard); !ok {
		t.Fatal("void should map to Wildcard")
	}
	if _, ok := FieldFor(values.Int(5)).(ExactField); !ok {
		t.Fatal("int should map to ExactField")
	}
}

// BenchmarkClassifierList times the paper's linked-list prototype; the
// compiled counterpart is `hilti-bench -exp rules` (ruleplane.FromClassifier).
func BenchmarkClassifierList(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	c := New(2)
	for i := 0; i < 256; i++ {
		src := values.NetVal(values.AddrFromV4Uint(uint32(rng.Intn(1<<16))<<16), 16)
		dst := values.NetVal(values.AddrFromV4Uint(uint32(rng.Intn(1<<16))<<16), 16)
		c.Add([]Field{NetField{Net: src}, NetField{Net: dst}}, values.Int(int64(i)))
	}
	c.Compile()
	key1 := values.MustParseAddr("77.1.2.3")
	key2 := values.MustParseAddr("88.1.2.3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(key1, key2)
	}
}
