// Digest values: HILTI's incremental hash, which hash.new starts,
// hash.update feeds and hash.final reads without ending. The payload is a
// SHA-1 state; it crosses a checkpoint as its MarshalBinary form, so a body
// digested across a snapshot ends with the digest of the whole body.

package values

import (
	"crypto/sha1"
	"encoding"
	"errors"
	"hash"
)

// NewDigest returns a digest value over no bytes yet.
func NewDigest() Value { return Value{K: KindDigest, O: sha1.New()} }

// AsDigest extracts a digest payload (nil if not a digest).
func (v Value) AsDigest() hash.Hash {
	if v.K != KindDigest {
		return nil
	}
	h, _ := v.O.(hash.Hash)
	return h
}

// DigestState returns a digest's state in the form DigestFromState reads.
func DigestState(v Value) ([]byte, error) {
	h := v.AsDigest()
	if h == nil {
		return nil, errors.New("values: not a digest")
	}
	return h.(encoding.BinaryMarshaler).MarshalBinary()
}

// DigestFromState rebuilds a digest value from DigestState's form; a state
// that does not unmarshal is an error.
func DigestFromState(state []byte) (Value, error) {
	h := sha1.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		return Nil, err
	}
	return Value{K: KindDigest, O: h}, nil
}
