//go:build !hiltipoison

package vm

import (
	"hilti/internal/rt/container"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/values"
)

// poisoned is set by the hiltipoison build tag (poison_on.go).
const poisoned = false

// A released object is reset for its next use, holding nothing of this one.

func releaseStruct(s *values.Struct)    { s.Reset() }
func releaseVector(v *container.Vector) { v.Reset(values.Nil, 0) }
func releaseRope(b *hbytes.Bytes)       { b.ResetEmpty() }
func releaseView(b *hbytes.Bytes)       { b.ResetEmpty() }
