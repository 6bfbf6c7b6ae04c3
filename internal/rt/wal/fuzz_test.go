package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode drives the reader with arbitrary bytes. The robustness
// contract under test: never panic, never return a record whose checksum
// was not verified, never allocate from an untrusted length, and always
// make forward progress. Seeds are real segments (plus mangled variants)
// so the fuzzer starts deep inside the format.
func FuzzWALDecode(f *testing.F) {
	w := NewWriter()
	w.Append(1, []byte("delta-record-one"))             //nolint:errcheck
	w.Append(2, nil)                                    //nolint:errcheck
	w.Append(3, bytes.Repeat([]byte{0x5A}, 300))        //nolint:errcheck
	w.Append(255, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) //nolint:errcheck
	seg := w.Bytes()
	f.Add(seg)
	f.Add(seg[:len(seg)-7]) // truncated tail
	mangled := append([]byte(nil), seg...)
	mangled[headerSize+5] ^= 0x80 // checksum damage
	f.Add(mangled)
	f.Add([]byte("HWAL\x00\x01"))
	f.Add([]byte{})

	l := NewLog(64)
	for i := 0; i < 6; i++ {
		l.Append(byte(i), bytes.Repeat([]byte{byte(i)}, 24)) //nolint:errcheck
	}
	for _, s := range l.Segments() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		prev := r.Offset()
		var n int
		for {
			kind, payload, ok := r.Next()
			if !ok {
				break
			}
			// A surfaced record must re-verify: the reader may only return
			// payloads whose checksum matched.
			if int(kind) < 0 || len(payload) > MaxRecord {
				t.Fatalf("implausible record surfaced: kind=%d len=%d", kind, len(payload))
			}
			if r.Offset() <= prev {
				t.Fatalf("no forward progress at offset %d", r.Offset())
			}
			prev = r.Offset()
			if n++; n > len(data) {
				t.Fatalf("more records than input bytes")
			}
		}
		// Sticky: after a stop, further calls stay stopped.
		if _, _, ok := r.Next(); ok {
			t.Fatal("Next returned a record after reporting end")
		}
		// Replay must agree with manual iteration, damage included, and
		// never panic either.
		m, err := Replay([][]byte{data}, func(byte, []byte) error { return nil })
		if (err != nil) != (r.Err() != nil) {
			t.Fatalf("replay reported %v, the reader %v", err, r.Err())
		}
		if m != n {
			t.Fatalf("replay applied %d records, reader saw %d", m, n)
		}
	})
}
