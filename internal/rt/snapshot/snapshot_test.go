package snapshot

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"hilti/internal/rt/container"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

// roundTrip encodes v and decodes it back with the given options.
func roundTrip(t *testing.T, v values.Value, opts ...Option) values.Value {
	t.Helper()
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Value(v)
	if err := e.Err(); err != nil {
		t.Fatalf("encode %v: %v", v.K, err)
	}
	d := NewDecoder(buf.Bytes(), opts...)
	got := d.Value()
	if err := d.Err(); err != nil {
		t.Fatalf("decode %v: %v", v.K, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("decode %v: %d trailing bytes", v.K, d.Remaining())
	}
	return got
}

func TestScalarRoundTrips(t *testing.T) {
	cases := []values.Value{
		values.Nil,
		values.Unset,
		values.Bool(true),
		values.Bool(false),
		values.Int(-42),
		values.Uint(math.MaxUint64),
		values.Double(3.14159),
		values.Double(math.Inf(-1)),
		values.String(""),
		values.String("héllo wörld"),
		values.TimeVal(1_700_000_000_000_000_000),
		values.IntervalVal(-5e9),
		values.PortVal(443, values.ProtoTCP),
		values.PortVal(53, values.ProtoUDP),
		values.MustParseAddr("192.168.1.7"),
		values.MustParseAddr("2001:db8::1"),
		values.MustParseNet("10.0.0.0/8"),
		values.MustParseNet("2001:db8::/32"),
		values.BitsetVal(nil, 0xdeadbeef),
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !values.Equal(v, got) {
			t.Errorf("round trip %v: got %s want %s", v.K, values.Format(got), values.Format(v))
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	v := values.BytesFrom([]byte("GET / HTTP/1.1\r\n"))
	got := roundTrip(t, v)
	if !values.Equal(v, got) {
		t.Fatalf("bytes round trip: got %s", values.Format(got))
	}
}

// TestDigestRoundTrip: a digest updated, encoded, decoded and updated again
// ends with the digest of the uninterrupted input; corrupt state is a decode
// error.
func TestDigestRoundTrip(t *testing.T) {
	whole, cut := values.NewDigest(), values.NewDigest()
	whole.AsDigest().Write([]byte("hello, world"))
	cut.AsDigest().Write([]byte("hello, "))
	got := roundTrip(t, cut)
	got.AsDigest().Write([]byte("world"))
	if a, b := got.AsDigest().Sum(nil), whole.AsDigest().Sum(nil); !bytes.Equal(a, b) {
		t.Fatalf("resumed digest %x, uninterrupted %x", a, b)
	}

	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Value(cut)
	enc := buf.Bytes()
	enc[5] ^= 0xff // past the kind tag and length: the state's magic
	d := NewDecoder(enc)
	if d.Value(); d.Err() == nil {
		t.Fatal("corrupt digest state decoded")
	}
}

func TestEnumRoundTrip(t *testing.T) {
	et := values.NewEnumType("Proto", "TCP", "UDP")
	v := values.EnumVal(et, 1)

	// Without a resolver the value survives with a bare type of the same name.
	got := roundTrip(t, v)
	if got.AsInt() != 1 {
		t.Fatalf("enum value lost: %d", got.AsInt())
	}
	gt, _ := got.O.(*values.EnumType)
	if gt == nil || gt.Name != "Proto" {
		t.Fatalf("enum type name lost: %+v", gt)
	}

	// With a resolver the canonical type is re-attached.
	got = roundTrip(t, v, WithEnums(func(name string) *values.EnumType {
		if name == "Proto" {
			return et
		}
		return nil
	}))
	if got.O != any(et) {
		t.Fatal("enum resolver not used")
	}
	if values.Format(got) != "Proto::UDP" {
		t.Fatalf("enum label lost: %s", values.Format(got))
	}
}

// TestStringRoundTrip: a string value points into the bytes it was made
// from, so a decoded one must own its bytes, not alias the input buffer.
func TestStringRoundTrip(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 1<<16) // 1 MiB
	for _, s := range []string{"", "Host", "h\xe9llo \xff\xfe", big} {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.Value(values.TupleVal(values.String(s), values.String(strings.Clone(s))))
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		in := buf.Bytes()
		d := NewDecoder(in)
		got := d.Value()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		for i := range in {
			in[i] = '!'
		}
		tup := got.AsTuple()
		if tup == nil || len(tup.Elems) != 2 {
			t.Fatalf("%d bytes: tuple lost", len(s))
		}
		for _, v := range tup.Elems {
			if v.K != values.KindString || v.AsString() != s {
				t.Errorf("%d bytes: decoded %v of %d bytes, equal=%v", len(s), v.K, len(v.AsString()), v.AsString() == s)
			}
		}
		if !values.Equal(tup.Elems[0], values.String(s)) || values.Hash(tup.Elems[1]) != values.Hash(values.String(s)) {
			t.Errorf("%d bytes: decoded string not equal to the original", len(s))
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	v := values.TupleVal(
		values.String("orig"),
		values.Int(7),
		values.TupleVal(values.Bool(true), values.PortVal(80, values.ProtoTCP)),
	)
	got := roundTrip(t, v)
	if !values.Equal(v, got) {
		t.Fatalf("tuple round trip: got %s", values.Format(got))
	}
	// Canonical keyed encodings must agree, since containers key on them.
	want := values.Key(v)
	if values.Key(got) != want {
		t.Fatal("tuple canonical keys diverge after round trip")
	}
}

func TestStructRoundTrip(t *testing.T) {
	def := values.NewStructDef("conn_info",
		values.StructField{Name: "host", Default: values.Unset},
		values.StructField{Name: "n", Default: values.Int(0)},
	)
	s := values.NewStruct(def)
	s.SetName("host", values.String("example.com"))
	v := values.StructVal(s)

	// Anonymous reconstruction preserves name-indexed access.
	got := roundTrip(t, v).AsStruct()
	if got == nil {
		t.Fatal("not a struct")
	}
	if h, ok := got.GetName("host"); !ok || h.AsString() != "example.com" {
		t.Fatalf("host field lost: %v %v", h, ok)
	}
	if n, ok := got.GetName("n"); !ok || n.AsInt() != 0 {
		t.Fatalf("n field lost: %v %v", n, ok)
	}

	// A resolver swaps in the canonical definition.
	got = roundTrip(t, v, WithStructs(func(name string, fields []string) *values.StructDef {
		if name == "conn_info" && len(fields) == 2 {
			return def
		}
		return nil
	})).AsStruct()
	if got.Def != def {
		t.Fatal("struct resolver not used")
	}
}

// TestStructTupleRoundTripEverySize: a struct (anonymous and through a
// resolver) and a tuple decode field for field at every size, stored
// inline or not, into values independent of the original.
func TestStructTupleRoundTripEverySize(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 9, 16, 17} {
		fs := make([]values.StructField, n)
		for i := range fs {
			fs[i] = values.StructField{Name: fmt.Sprintf("f%d", i), Default: values.Unset}
		}
		def := values.NewStructDef("r", fs...)
		s := values.NewStruct(def)
		tu := values.NewTuple(n)
		for i := range n {
			s.Set(i, values.Int(int64(i)))
			tu.Elems[i] = values.String(fmt.Sprint(i))
		}
		resolve := WithStructs(func(string, []string) *values.StructDef { return def })
		for _, c := range []struct {
			kind       string
			orig, copy []values.Value
		}{
			{"anonymous struct", s.Fields, roundTrip(t, values.StructVal(s)).AsStruct().Fields},
			{"resolved struct", s.Fields, roundTrip(t, values.StructVal(s), resolve).AsStruct().Fields},
			{"tuple", tu.Elems, roundTrip(t, values.Ref(values.KindTuple, tu)).AsTuple().Elems},
		} {
			if len(c.copy) != n || cap(c.copy) != n {
				t.Fatalf("%d-field %s: len %d cap %d", n, c.kind, len(c.copy), cap(c.copy))
			}
			for i := range c.copy {
				if !values.Equal(c.copy[i], c.orig[i]) {
					t.Fatalf("%d-field %s: field %d = %s, want %s", n, c.kind, i, values.Format(c.copy[i]), values.Format(c.orig[i]))
				}
				c.copy[i] = values.Int(-1)
			}
			for i, v := range c.orig {
				if values.Equal(v, values.Int(-1)) {
					t.Fatalf("%d-field %s: mutating the decoded value changed the original's field %d", n, c.kind, i)
				}
			}
		}
	}
}

func TestUnsetFieldRoundTrip(t *testing.T) {
	def := values.NewStructDef("opt", values.StructField{Name: "x", Default: values.Unset})
	v := values.StructVal(values.NewStruct(def))
	got := roundTrip(t, v).AsStruct()
	if _, ok := got.GetName("x"); ok {
		t.Fatal("unset field came back set")
	}
}

func TestVectorListRoundTrip(t *testing.T) {
	vec := container.NewVector(values.Int(-1))
	vec.PushBack(values.String("a"))
	vec.PushBack(values.String("b"))
	got := roundTrip(t, values.Ref(values.KindVector, vec))
	gv, _ := got.O.(*container.Vector)
	if gv == nil || gv.Len() != 2 {
		t.Fatalf("vector lost: %v", gv)
	}
	// The default a write past the end extends with must survive.
	gv.Set(5, values.Int(7))
	if x, _ := gv.Get(4); x.AsInt() != -1 {
		t.Fatalf("vector default lost: %v", x)
	}

	l := container.NewList()
	l.PushBack(values.Int(1))
	l.PushBack(values.Int(2))
	l.PushFront(values.Int(0))
	got = roundTrip(t, values.Ref(values.KindList, l))
	gl, _ := got.O.(*container.List)
	if gl == nil || gl.Len() != 3 {
		t.Fatalf("list lost: %v", gl)
	}
	want := []int64{0, 1, 2}
	i := 0
	gl.Each(func(v values.Value) bool {
		if v.AsInt() != want[i] {
			t.Fatalf("list elem %d: got %d want %d", i, v.AsInt(), want[i])
		}
		i++
		return true
	})
}

func TestMapSetRoundTrip(t *testing.T) {
	m := container.NewMap()
	m.SetDefault(values.Int(0))
	m.Insert(values.String("x"), values.Int(1))
	m.Insert(values.TupleVal(values.Int(1), values.Int(2)), values.String("t"))

	got := roundTrip(t, values.Ref(values.KindMap, m))
	gm, _ := got.O.(*container.Map)
	if gm == nil || gm.Len() != 2 {
		t.Fatalf("map lost: %v", gm)
	}
	if v, ok := gm.Get(values.String("x")); !ok || v.AsInt() != 1 {
		t.Fatalf("map entry lost: %v %v", v, ok)
	}
	if v, ok := gm.Get(values.String("missing")); !ok || v.AsInt() != 0 {
		t.Fatalf("map default lost: %v %v", v, ok)
	}

	s := container.NewSet()
	s.Insert(values.MustParseAddr("10.0.0.1"))
	s.Insert(values.PortVal(22, values.ProtoTCP))
	got = roundTrip(t, values.Ref(values.KindSet, s))
	gs, _ := got.O.(*container.Set)
	if gs == nil || gs.Len() != 2 {
		t.Fatalf("set lost: %v", gs)
	}
	if !gs.Exists(values.MustParseAddr("10.0.0.1")) {
		t.Fatal("set element lost")
	}
}

// TestMapExpiryRoundTrip is the container half of the timer-checkpoint
// contract: entries restored with their checkpointed last-use timestamps
// must evict at exactly the virtual times the original timers would have
// fired at.
func TestMapExpiryRoundTrip(t *testing.T) {
	mgr := timer.NewMgr()
	mgr.Advance(1000)
	m := container.NewMap()
	m.SetTimeout(mgr, container.ExpireCreate, 500)
	m.Insert(values.String("old"), values.Int(1)) // expires at 1500
	mgr.Advance(1200)
	m.Insert(values.String("new"), values.Int(2)) // expires at 1700

	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.I64(int64(mgr.Now()))
	e.Value(values.Ref(values.KindMap, m))
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}

	mgr2 := timer.NewMgr()
	d := NewDecoder(buf.Bytes(), WithTimerMgr(mgr2))
	mgr2.SetNow(timer.Time(d.I64()))
	got := d.Value()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	gm := got.O.(*container.Map)
	if gm.Len() != 2 {
		t.Fatalf("restored %d entries", gm.Len())
	}
	if mgr2.Now() != 1200 {
		t.Fatalf("clock not restored: %d", mgr2.Now())
	}

	mgr2.Advance(1499)
	if gm.Len() != 2 {
		t.Fatal("entry expired early after restore")
	}
	mgr2.Advance(1500)
	if gm.Exists(values.String("old")) || gm.Len() != 1 {
		t.Fatal("'old' did not expire at its checkpointed deadline")
	}
	mgr2.Advance(1699)
	if gm.Len() != 1 {
		t.Fatal("'new' expired early")
	}
	mgr2.Advance(1700)
	if gm.Len() != 0 {
		t.Fatal("'new' did not expire at its checkpointed deadline")
	}
}

func TestDecodeWithoutTimerMgrDropsExpiry(t *testing.T) {
	mgr := timer.NewMgr()
	m := container.NewMap()
	m.SetTimeout(mgr, container.ExpireCreate, 500)
	m.Insert(values.String("k"), values.Int(1))

	got := roundTrip(t, values.Ref(values.KindMap, m))
	gm := got.O.(*container.Map)
	if gm.Len() != 1 {
		t.Fatal("entry lost")
	}
	strategy, _ := gm.Timeout()
	if strategy != container.ExpireNone {
		t.Fatal("expiry should be dropped without a timer manager")
	}
}

func TestDepthLimit(t *testing.T) {
	v := values.TupleVal(values.Int(1))
	for i := 0; i < MaxDepth+4; i++ {
		v = values.TupleVal(v)
	}
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Value(v)
	if e.Err() == nil {
		t.Fatal("expected depth-limit error on encode")
	}
}

func TestUnserializableKind(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Value(values.Any(struct{}{}))
	if e.Err() == nil {
		t.Fatal("expected error for KindAny")
	}
}

func TestHeaderValidation(t *testing.T) {
	if d := NewDecoder(nil); d.Err() == nil {
		t.Fatal("empty input must fail")
	}
	if d := NewDecoder([]byte("XXXX\x00\x01garbage")); d.Err() == nil {
		t.Fatal("bad magic must fail")
	}
	if d := NewDecoder([]byte{'H', 'S', 'N', 'P', 0xff, 0xff}); d.Err() == nil {
		t.Fatal("bad version must fail")
	}
}

func TestTruncationErrors(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Value(values.String("hello"))
	full := buf.Bytes()
	for n := headerSize; n < len(full); n++ {
		d := NewDecoder(full[:n])
		d.Value()
		if d.Err() == nil {
			t.Fatalf("truncation at %d bytes not detected", n)
		}
	}
}

func TestCorruptCountGuard(t *testing.T) {
	// A map claiming 4 billion entries with 2 bytes of backing must fail
	// fast without allocating per claimed entry.
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.U8(byte(values.KindMap))
	e.U8(0)        // strategy
	e.I64(0)       // timeout
	e.Bool(false)  // no default
	e.U32(1 << 31) // absurd count
	e.U16(0)       // 2 bytes of "entries"
	d := NewDecoder(buf.Bytes())
	d.Value()
	if d.Err() == nil {
		t.Fatal("implausible count not rejected")
	}
}

func TestPrimitiveRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.U8(0xab)
	e.U16(0xcdef)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-12345)
	e.Bool(true)
	e.Bytes([]byte{1, 2, 3})
	e.String("str")
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(buf.Bytes())
	if d.U8() != 0xab || d.U16() != 0xcdef || d.U32() != 0xdeadbeef ||
		d.U64() != 0x0123456789abcdef || d.I64() != -12345 || !d.Bool() {
		t.Fatal("primitive mismatch")
	}
	if !bytes.Equal(d.Bytes(), []byte{1, 2, 3}) || d.String() != "str" {
		t.Fatal("length-prefixed mismatch")
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatal("trailing bytes")
	}
}

// TestRegionsMatchBytes: content encoded in place between Begin and End —
// nested, through an appender or straight to a writer — is the stream that
// encoding it apart and copying it in with Bytes gives; EndCount prefixes a
// count instead; and a writer sees nothing of a region before it ends.
func TestRegionsMatchBytes(t *testing.T) {
	inner := NewAppender(nil)
	inner.String("inner")
	inner.U64(7)
	outer := NewAppender(nil)
	outer.U8(1)
	outer.Bytes(inner.Buffer())
	outer.Bool(true)
	want := NewAppender([]byte("kept"))
	want.U16(9)
	want.Bytes(outer.Buffer())
	want.U32(2)
	want.U8(5)
	want.U8(6)

	w := bytes.NewBufferString("kept")
	app := NewAppender([]byte("kept"))
	for _, e := range []*Encoder{app, NewRawEncoder(w)} {
		e.U16(9)
		seen := w.Len()
		o := e.Begin()
		e.U8(1)
		i := e.Begin()
		e.String("inner")
		e.U64(7)
		e.End(i)
		e.Bool(true)
		if w.Len() != seen {
			t.Fatal("the writer was handed part of an open region")
		}
		e.End(o)
		n := e.Begin()
		e.U8(5)
		e.U8(6)
		e.EndCount(n, 2)
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(app.Buffer(), want.Buffer()) || !bytes.Equal(w.Bytes(), want.Buffer()) {
		t.Fatalf("regions:\nappended %x\nstreamed %x\n    want %x", app.Buffer(), w.Bytes(), want.Buffer())
	}
}
