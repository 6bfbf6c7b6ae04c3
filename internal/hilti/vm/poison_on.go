//go:build hiltipoison

package vm

import (
	"hilti/internal/rt/container"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// poisoned: under the hiltipoison build tag a recycling scope's release
// overwrites every object it took, so a value something kept after all
// reads as garbage and the output that used it changes (DESIGN "A
// message's parse is borrowed, then recycled"). Objects are reset when
// they are taken again instead.
const poisoned = true

// poisonData is the content every released rope and view reads as.
var poisonData = []byte("\xde\xad<recycled HILTI value>\xde\xad")

// poisonValue is what every field and element of a released struct or
// vector holds.
var poisonValue = func() values.Value {
	b := hbytes.New()
	b.Reset(poisonData)
	return values.BytesVal(b)
}()

func releaseStruct(s *values.Struct) {
	for i := range s.Fields {
		s.Fields[i] = poisonValue
	}
}

func releaseVector(v *container.Vector) {
	elems := v.Elems()
	for i := range elems {
		elems[i] = poisonValue
	}
}

// releaseRope also overwrites the bytes a `new bytes` rope holds, which it
// allocated itself (it is only ever appended to by copy), so a slice of
// them kept elsewhere reads as garbage too.
func releaseRope(b *hbytes.Bytes) {
	d := b.Bytes()
	for i := range d {
		d[i] = 0xde
	}
	b.Reset(poisonData)
}

// releaseView repoints a view; the bytes it viewed belong to someone else.
func releaseView(b *hbytes.Bytes) { b.Reset(poisonData) }
