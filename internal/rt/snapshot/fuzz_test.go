package snapshot

import (
	"bytes"
	"testing"

	"hilti/internal/rt/container"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

// FuzzSnapshotDecode asserts the decoder's core robustness contract:
// arbitrary input yields an error or a value, never a panic, and a corrupt
// length claim can never drive allocation beyond what the input itself
// could back.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with valid encodings of each value shape so the fuzzer starts
	// from structurally interesting corpora.
	seed := func(v values.Value) {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.Value(v)
		if e.Err() == nil {
			f.Add(buf.Bytes())
		}
	}
	seed(values.Int(42))
	seed(values.Double(2.5))
	seed(values.String("seed"))
	seed(values.BytesFrom([]byte{0, 1, 2}))
	seed(values.MustParseAddr("10.1.2.3"))
	seed(values.MustParseNet("10.0.0.0/8"))
	seed(values.PortVal(80, values.ProtoTCP))
	seed(values.TupleVal(values.Int(1), values.String("x")))
	def := values.NewStructDef("s",
		values.StructField{Name: "a", Default: values.Unset},
		values.StructField{Name: "b", Default: values.Int(9)})
	seed(values.StructVal(values.NewStruct(def)))
	vec := container.NewVector(values.Nil)
	vec.PushBack(values.Int(7))
	seed(values.Ref(values.KindVector, vec))
	l := container.NewList()
	l.PushBack(values.String("e"))
	seed(values.Ref(values.KindList, l))
	m := container.NewMap()
	m.Insert(values.String("k"), values.Int(1))
	seed(values.Ref(values.KindMap, m))
	mgr := timer.NewMgr()
	me := container.NewMap()
	me.SetTimeout(mgr, container.ExpireAccess, 1000)
	me.Insert(values.Int(5), values.Bool(true))
	seed(values.Ref(values.KindMap, me))
	s := container.NewSet()
	s.Insert(values.PortVal(53, values.ProtoUDP))
	seed(values.Ref(values.KindSet, s))
	dg := values.NewDigest()
	dg.AsDigest().Write([]byte("body so far"))
	seed(dg)
	f.Add([]byte{'H', 'S', 'N', 'P', 0, 1})
	f.Add([]byte("HSNPxxxxxxxxxxxxxxxx"))

	f.Fuzz(func(t *testing.T, data []byte) {
		mgr := timer.NewMgr()
		d := NewDecoder(data, WithTimerMgr(mgr))
		// Decode a stream of values until the input errors or drains; any
		// panic fails the fuzz run.
		for d.Err() == nil && d.Remaining() > 0 {
			d.Value()
		}
		// Primitive soup over the same input must be equally safe.
		d2 := NewDecoder(data)
		d2.U8()
		d2.U16()
		d2.U32()
		d2.Bytes()
		_ = d2.String()
		d2.Len(4)
		d2.I64()
		d2.Bool()
	})
}
