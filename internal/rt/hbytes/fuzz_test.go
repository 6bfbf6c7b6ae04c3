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
//
// Lent appends (AppendLent) borrow one reused frame buffer, as a host lends
// a packet. While the rope lends it refuses appends; views of the lent
// chunk, views of those, and pieces (a view of one chunk from an iterator,
// lent to one call) are taken; trims cross the lent chunk. Settle then gets
// the rope and every lent view but the pieces, and the frame is overwritten:
// the rope and every view it settled must still equal the model.
func FuzzRopeModel(f *testing.F) {
	f.Add([]byte{0, 5, 0, 7, 3, 2, 9, 0, 3, 8, 1, 4, 0, 1, 4, 2, 5, 3, 8, 0, 9, 6, 0, 2})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 8, 0, 0, 200, 0, 60, 3, 1, 9, 2, 4, 0, 0, 2, 8, 0})
	f.Add([]byte{1, 9, 0, 3, 3, 4, 4, 0, 4, 1, 6, 0, 4, 2, 7, 0, 0, 4, 5, 9, 0, 3, 8, 0})
	f.Add([]byte{0, 30, 0, 20, 10, 2, 3, 40, 10, 0, 0, 9, 10, 1, 5, 30, 10, 6, 0, 50, 10, 4, 2, 9, 1, 6, 10, 5, 0, 45, 2})
	f.Add([]byte{0, 20, 0, 20, 0, 39, 8})                                                                // appends past NewWithTail's inline tail
	f.Add([]byte{0, 20, 3, 0, 20, 0, 15, 0, 30, 5, 10, 6, 0, 5, 7, 0, 5})                                // a view of the inline tail, appends past it, Trim, Freeze
	f.Add([]byte{0, 10, 3, 2, 8, 0, 12, 0, 10, 5, 4, 6, 9, 3})                                           // a view, then appends that fill the inline tail exactly
	f.Add([]byte{2, 0, 100, 0, 5, 3, 0, 200, 1, 0, 9, 5, 250, 6})                                        // a first append too large for the inline tail
	f.Add([]byte{11, 30, 3, 5, 20, 13, 0, 1, 5, 14, 10, 5, 25, 12, 0, 5, 11, 40, 3, 28, 60, 5, 200, 12}) // loans: views, a sub of one, a piece, trims, Settle
	f.Add([]byte{11, 10, 0, 5, 10, 0, 4, 1, 3, 13, 0, 0, 9, 12, 4, 0, 3})                                // appends refused while lending; a settled view appended to
	f.Fuzz(func(t *testing.T, input []byte) {
		for _, start := range []func() *Bytes{New, NewWithTail} {
			prog := input
			type held struct {
				got  func() []byte // reads it now
				want []byte        // what it read when handed out
				name string
			}
			type view struct {
				b     *Bytes
				want  []byte
				piece bool // lent to one call: dropped at Settle
			}
			r := start()
			var model []byte // every byte ever appended, by absolute offset
			dst := start()   // built only by AppendRange from r
			var dstModel []byte
			var base int64
			frozen := false
			var views []*view
			var helds []held
			var frame []byte     // the lent buffer, reused for every loan
			lending := false     // a loan is open
			var loan []*Bytes    // what Settle gets: r and its lent views
			heldsBeforeLoan := 0 // helds taken during a loan may alias it
			var lentAt int64     // the lent chunk's first offset
			settle := func() {
				Settle(loan)
				loan, lending = loan[:0], false
				kept := views[:0]
				for _, v := range views {
					if v.piece {
						continue
					}
					if v.b.Lent() {
						t.Fatal("a view still lends after Settle")
					}
					kept = append(kept, v)
				}
				views = kept
				helds = helds[:heldsBeforeLoan]
				frame = frame[:cap(frame)]
				for i := range frame {
					frame[i] = 0xA5
				}
			}
			// addView records a view, which must be lent exactly when it lies
			// in the lent chunk. A lent piece is dropped at Settle; any other
			// lent view goes to Settle.
			addView := func(step int, sub *Bytes, want []byte, piece, lent bool) {
				if sub.Lent() != lent {
					t.Fatalf("step %d: a view of %d bytes lends: %v, want %v", step, len(want), sub.Lent(), lent)
				}
				if lent && !piece {
					loan = append(loan, sub)
				}
				views = append(views, &view{sub, want, lent && piece})
			}
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
				switch op := next() % 15; op {
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
					if lending {
						if !errors.Is(err, ErrLending) {
							t.Fatalf("step %d: append to a lending rope: %v", step, err)
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
					addView(step, sub, bytes.Clone(model[lo:hi]), false, lending && lo >= lentAt && hi > lo)
				case 4: // append to an unfrozen view
					if len(views) == 0 {
						break
					}
					v := views[next()%len(views)]
					v.b.Unfreeze()
					d := data(next() % 20)
					err := v.b.Append(d)
					if v.b.Lent() {
						if !errors.Is(err, ErrLending) {
							t.Fatalf("step %d: append to a lent view: %v", step, err)
						}
						break
					}
					if err != nil {
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
					case onto == r && lending:
						if !errors.Is(err, ErrLending) {
							t.Fatalf("step %d: AppendRange onto a lending rope: %v", step, err)
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
						views = append(views, &view{sub, bytes.Clone(dstModel), false})
					}
				case 11: // AppendLent of the frame
					d := data(next() % 60)
					if !lending { // the frame is the rope's until Settle
						frame = append(frame[:0], d...)
						d = frame
					}
					err := r.AppendLent(d)
					switch {
					case frozen:
						if len(d) > 0 && !errors.Is(err, ErrFrozen) {
							t.Fatalf("step %d: lent append to a frozen rope: %v", step, err)
						}
					case lending:
						if !errors.Is(err, ErrLending) {
							t.Fatalf("step %d: lent append to a lending rope: %v", step, err)
						}
					case err != nil:
						t.Fatalf("step %d: AppendLent: %v", step, err)
					case len(d) > 0:
						lentAt = int64(len(model))
						model = append(model, d...)
						lending, heldsBeforeLoan = true, len(helds)
						loan = append(loan, r)
					}
				case 12: // Settle, then the owner writes its frame again
					if lending {
						settle()
					}
				case 13: // a sub of a view
					if len(views) == 0 {
						break
					}
					v := views[next()%len(views)]
					n := int64(len(v.want))
					lo, hi := int64(next())%(n+1), int64(next())%(n+1)
					if lo > hi {
						lo, hi = hi, lo
					}
					sub, err := v.b.SubBytes(v.b.At(lo), v.b.At(hi))
					if err != nil {
						t.Fatalf("step %d: SubBytes(%d, %d) of a view: %v", step, lo, hi, err)
					}
					addView(step, sub, bytes.Clone(v.want[lo:hi]), false, v.b.Lent() && hi > lo)
				case 14: // a piece: the rest of one chunk from an offset
					off := pos()
					n := int64(len(r.At(off).Chunk()))
					piece, err := r.SubBytes(r.At(off), r.At(off+n))
					if err != nil {
						t.Fatalf("step %d: piece at %d: %v", step, off, err)
					}
					addView(step, piece, bytes.Clone(model[off:off+n]), true, lending && off >= lentAt && n > 0)
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
