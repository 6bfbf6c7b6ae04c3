package hbytes

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRopeModel runs a random sequence of rope operations — Append and
// AppendOwned of small and large data, SubBytes, appends to an unfrozen
// view, Trim, Freeze/Unfreeze, Bytes and Iter.Chunk, and AppendRange of a
// range of the rope onto itself or onto a second rope — against a flat
// []byte model. After every operation the rope must equal the model, and
// everything handed out earlier must still read as it did: views (SubBytes
// results, which share chunk bytes), the slices Bytes and Chunk returned,
// what a caller got by appending to such a slice, and the whole buffer an
// AppendOwned slice was cut from. No view may ever observe a later write.
// Each program runs from an empty rope and again from NewWithTail's rope,
// whose tail chunk is inline until an append outgrows it.
func FuzzRopeModel(f *testing.F) {
	f.Add([]byte{0, 5, 0, 7, 3, 2, 9, 0, 3, 8, 1, 4, 0, 1, 4, 2, 5, 3, 8, 0, 9, 6, 0, 2})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 8, 0, 0, 200, 0, 60, 3, 1, 9, 2, 4, 0, 0, 2, 8, 0})
	f.Add([]byte{1, 9, 0, 3, 3, 4, 4, 0, 4, 1, 6, 0, 4, 2, 7, 0, 0, 4, 5, 9, 0, 3, 8, 0})
	f.Add([]byte{0, 30, 0, 20, 10, 2, 3, 40, 10, 0, 0, 9, 10, 1, 5, 30, 10, 6, 0, 50, 10, 4, 2, 9, 1, 6, 10, 5, 0, 45, 2})
	f.Add([]byte{0, 20, 0, 20, 0, 39, 8})                                 // appends past NewWithTail's inline tail
	f.Add([]byte{0, 20, 3, 0, 20, 0, 15, 0, 30, 5, 10, 6, 0, 5, 7, 0, 5}) // a view of the inline tail, appends past it, Trim, Freeze
	f.Add([]byte{0, 10, 3, 2, 8, 0, 12, 0, 10, 5, 4, 6, 9, 3})            // a view, then appends that fill the inline tail exactly
	f.Add([]byte{2, 0, 100, 0, 5, 3, 0, 200, 1, 0, 9, 5, 250, 6})         // a first append too large for the inline tail
	f.Fuzz(func(t *testing.T, input []byte) {
		for _, start := range []func() *Bytes{New, NewWithTail} {
			prog := input
			type held struct {
				got  func() []byte // reads it now
				want []byte        // what it read when handed out
				name string
			}
			type view struct {
				b    *Bytes
				want []byte
			}
			r := start()
			var model []byte // every byte ever appended, by absolute offset
			dst := start()   // built only by AppendRange from r
			var dstModel []byte
			var base int64
			frozen := false
			var views []*view
			var helds []held
			var fill byte
			data := func(n int) []byte { // distinct bytes, so an overwrite shows
				d := make([]byte, n)
				for i := range d {
					fill++
					d[i] = fill
				}
				return d
			}
			next := func() int {
				if len(prog) == 0 {
					return 0
				}
				v := int(prog[0])
				prog = prog[1:]
				return v
			}
			pos := func() int64 { // an offset within the retained data
				return base + int64(next())%(int64(len(model))-base+1)
			}
			for step := 0; len(prog) > 0 && step < 400; step++ {
				switch op := next() % 11; op {
				case 0, 1, 2: // Append small, AppendOwned, Append large
					n := next() % 40
					if op > 0 {
						n = next() * 3
					}
					d := data(n)
					var err error
					if op == 1 {
						// The owner's buffer runs on past the data handed over:
						// the rope must not write there either.
						buf := append(d, data(8)...)
						d = buf[:n]
						helds = append(helds, held{func() []byte { return buf }, bytes.Clone(buf), "an owned buffer"})
						err = r.AppendOwned(d)
					} else {
						err = r.Append(d)
					}
					if frozen {
						if len(d) > 0 && !errors.Is(err, ErrFrozen) {
							t.Fatalf("step %d: append to a frozen rope: %v", step, err)
						}
						break
					}
					if err != nil {
						t.Fatalf("step %d: append: %v", step, err)
					}
					model = append(model, d...)
				case 3: // SubBytes of a valid range
					lo, hi := pos(), pos()
					if lo > hi {
						lo, hi = hi, lo
					}
					sub, err := r.SubBytes(r.At(lo), r.At(hi))
					if err != nil || !sub.Frozen() {
						t.Fatalf("step %d: SubBytes(%d, %d): %v", step, lo, hi, err)
					}
					views = append(views, &view{sub, bytes.Clone(model[lo:hi])})
				case 4: // append to an unfrozen view
					if len(views) == 0 {
						break
					}
					v := views[next()%len(views)]
					v.b.Unfreeze()
					d := data(next() % 20)
					if err := v.b.Append(d); err != nil {
						t.Fatalf("step %d: append to a view: %v", step, err)
					}
					v.want = append(v.want, d...)
				case 5:
					off := pos()
					r.Trim(r.At(off))
					base = max(base, off)
				case 6:
					r.Freeze()
					frozen = true
				case 7:
					r.Unfreeze()
					frozen = false
				case 8, 9: // Bytes, or Chunk at an offset; then a caller appends to it
					var s []byte
					if op == 8 {
						s = r.Bytes()
					} else {
						off := pos()
						s = r.At(off).Chunk()
						if off < int64(len(model)) && len(s) == 0 {
							t.Fatalf("step %d: empty Chunk at %d of %d", step, off, len(model))
						}
						if !bytes.Equal(s, model[off:off+int64(len(s))]) {
							t.Fatalf("step %d: Chunk at %d = %v, model %v", step, off, s, model[off:])
						}
					}
					ext := append(s, 0xEE, 0xEF)
					helds = append(helds,
						held{func() []byte { return s }, bytes.Clone(s), "a returned slice"},
						held{func() []byte { return ext }, bytes.Clone(ext), "a caller's append to a returned slice"})
				case 10: // AppendRange of r's bytes onto dst or r itself, maybe past r's end
					how := next()
					lo, hi := pos(), pos()
					if lo > hi {
						lo, hi = hi, lo
					}
					if how&4 != 0 {
						hi += int64(next()%3 + 1)
					}
					onto, ontoModel := dst, &dstModel
					if how&1 != 0 {
						onto, ontoModel = r, &model
					}
					before := onto.Len()
					err := onto.AppendRange(r, lo, hi)
					switch {
					case onto == r && frozen:
						if !errors.Is(err, ErrFrozen) {
							t.Fatalf("step %d: AppendRange onto a frozen rope: %v", step, err)
						}
					case hi > int64(len(model)):
						want := ErrWouldBlock
						if frozen {
							want = ErrOutOfRange
						}
						if !errors.Is(err, want) {
							t.Fatalf("step %d: AppendRange(%d, %d) past the end of %d: %v, want %v", step, lo, hi, len(model), err, want)
						}
					case err != nil:
						t.Fatalf("step %d: AppendRange(%d, %d): %v", step, lo, hi, err)
					default:
						*ontoModel = append(*ontoModel, model[lo:hi]...)
					}
					if err != nil && onto.Len() != before {
						t.Fatalf("step %d: a failed AppendRange changed its destination", step)
					}
					if how&2 != 0 { // a view of dst's tail, which later appends must not reach
						sub, _ := dst.SubBytes(dst.Begin(), dst.End())
						views = append(views, &view{sub, bytes.Clone(dstModel)})
					}
				}
				if got := dst.Bytes(); !bytes.Equal(got, dstModel) {
					t.Fatalf("step %d: AppendRange destination %v, model %v", step, got, dstModel)
				}
				if got := r.Bytes(); !bytes.Equal(got, model[base:]) || r.Len() != int64(len(model))-base {
					t.Fatalf("step %d: rope %v (len %d), model %v", step, got, r.Len(), model[base:])
				}
				// EqualFold walks the rope's chunks against one flat chunk: equal
				// with every ASCII letter's case flipped, unequal with the last
				// byte changed to one that does not fold to it.
				flipped := bytes.Clone(model[base:])
				for i, c := range flipped {
					if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' {
						flipped[i] = c ^ 0x20
					}
				}
				if !r.EqualFold(NewFrom(flipped)) {
					t.Fatalf("step %d: rope not EqualFold to its case-flipped model", step)
				}
				if n := len(flipped); n > 0 {
					if c := flipped[n-1]; 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' {
						flipped[n-1] = c ^ 0x01
					} else {
						flipped[n-1] = c ^ 0x20
					}
					if r.EqualFold(NewFrom(flipped)) {
						t.Fatalf("step %d: rope EqualFold to a model differing in its last byte", step)
					}
				}
				for i, v := range views {
					if got := v.b.Bytes(); !bytes.Equal(got, v.want) {
						t.Fatalf("step %d: view %d reads %v, was %v", step, i, got, v.want)
					}
				}
				for i, h := range helds {
					if got := h.got(); !bytes.Equal(got, h.want) {
						t.Fatalf("step %d: %s (%d) reads %v, was %v", step, h.name, i, got, h.want)
					}
				}
			}
			if _, err := r.SubBytes(r.At(base), r.At(int64(len(model))+1)); err == nil {
				t.Fatal("SubBytes past the end succeeded")
			}
		}
	})
}
