package values

import (
	"runtime"
	"strings"
	"testing"
)

var stringSink Value

func TestStringAllocatesNothing(t *testing.T) {
	s := strings.Repeat("GET /index.html ", 8) // built on the heap
	if n := testing.AllocsPerRun(100, func() { stringSink = String(s) }); n != 0 {
		t.Errorf("String(s) allocates %v times", n)
	}
	if got := stringSink.AsString(); got != s {
		t.Errorf("AsString = %q, want %q", got, s)
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"Mozilla/5.0",
		"h\xe9llo \xff\xfe", // invalid UTF-8
		strings.Repeat("abcdefgh", 1<<17),
	}
	for _, s := range cases {
		v := String(s)
		if v.K != KindString {
			t.Fatalf("String(%d bytes) has kind %v", len(s), v.K)
		}
		if got := v.AsString(); got != s {
			t.Errorf("round trip of %d bytes: got %d bytes, equal=%v", len(s), len(got), got == s)
		}
	}
}

func TestStringEqualAcrossBackings(t *testing.T) {
	for _, s := range []string{"", "x", "connection/uid-Cx9", strings.Repeat("z", 4096)} {
		a, b := String(s), String(strings.Clone(s))
		if !Equal(a, b) || Compare(a, b) != 0 {
			t.Errorf("%q: Equal=%v Compare=%d across distinct backings", s, Equal(a, b), Compare(a, b))
		}
		ka, _ := AppendKey(nil, a)
		kb, _ := AppendKey(nil, b)
		if string(ka) != string(kb) || Hash(a) != Hash(b) {
			t.Errorf("%q: keys or hashes differ across distinct backings", s)
		}
		if Format(a) != Format(b) || DeepCopy(a).AsString() != s {
			t.Errorf("%q: Format or DeepCopy differ", s)
		}
	}
	if Equal(String("ab"), String("abc")) || Compare(String("ab"), String("abc")) >= 0 {
		t.Error("a prefix compares equal to or above the longer string")
	}
}

func TestAsStringOnOtherKinds(t *testing.T) {
	data := String("not yours").O // a string's data pointer under another kind
	for k := KindVoid; k <= KindDigest; k++ {
		if k == KindString {
			continue
		}
		for _, v := range []Value{{K: k}, {K: k, A: 9}, {K: k, A: 9, O: data}} {
			if got := v.AsString(); got != "" {
				t.Errorf("%v value %+v: AsString = %q, want \"\"", k, v, got)
			}
		}
	}
	for _, v := range []Value{Int(12345), Any("a Go string")} {
		if got := v.AsString(); got != "" {
			t.Errorf("%v: AsString = %q, want \"\"", v.K, got)
		}
	}
}

func TestStringOutlivesItsSource(t *testing.T) {
	want := strings.Repeat("keep me ", 64)
	src := []byte(want)
	s := string(src) // the only other reference to these bytes
	v := String(s)
	s, src = "", nil
	runtime.GC()
	// Churn the heap so freed memory of that size class would be reused.
	junk := make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		junk = append(junk, []byte(strings.Repeat("X", len(want))))
	}
	runtime.GC()
	if got := v.AsString(); got != want {
		t.Errorf("after GC: got %q", got)
	}
	runtime.KeepAlive(junk)
}
