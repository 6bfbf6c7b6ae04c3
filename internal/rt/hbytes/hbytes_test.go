package hbytes

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAppendAndBytes(t *testing.T) {
	b := New()
	if err := b.Append([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "hello world" {
		t.Fatalf("got %q", got)
	}
	if b.Len() != 11 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestAppendCopies(t *testing.T) {
	src := []byte("abc")
	b := New()
	b.Append(src)
	src[0] = 'X'
	if got := b.String(); got != "abc" {
		t.Fatalf("append did not copy: %q", got)
	}
}

func TestFreeze(t *testing.T) {
	b := NewFromString("x")
	b.Freeze()
	if err := b.Append([]byte("y")); !errors.Is(err, ErrFrozen) {
		t.Fatalf("want ErrFrozen, got %v", err)
	}
	b.Unfreeze()
	if err := b.Append([]byte("y")); err != nil {
		t.Fatalf("append after unfreeze: %v", err)
	}
}

func TestByteAtWouldBlock(t *testing.T) {
	b := NewFromString("ab")
	if _, err := b.ByteAt(5); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("want ErrWouldBlock, got %v", err)
	}
	b.Freeze()
	if _, err := b.ByteAt(5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange after freeze, got %v", err)
	}
	c, err := b.ByteAt(1)
	if err != nil || c != 'b' {
		t.Fatalf("ByteAt(1) = %c, %v", c, err)
	}
}

func TestIterSurvivesAppend(t *testing.T) {
	b := NewFromString("ab")
	it := b.Begin().Plus(2)
	if _, err := it.Deref(); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("want would-block at end, got %v", err)
	}
	b.Append([]byte("cd"))
	c, err := it.Deref()
	if err != nil || c != 'c' {
		t.Fatalf("after append Deref = %c, %v", c, err)
	}
}

func TestEndIteratorMoves(t *testing.T) {
	b := NewFromString("ab")
	end := b.End()
	if d := b.Begin().Diff(end); d != 2 {
		t.Fatalf("diff = %d", d)
	}
	b.Append([]byte("cd"))
	if d := b.Begin().Diff(end); d != 4 {
		t.Fatalf("end iterator did not move: diff = %d", d)
	}
}

func TestTrim(t *testing.T) {
	b := New()
	b.Append([]byte("aaaa"))
	b.Append([]byte("bbbb"))
	b.Append([]byte("cccc"))
	it := b.Begin().Plus(6)
	b.Trim(it)
	if got := b.String(); got != "bbcccc" {
		t.Fatalf("after trim: %q", got)
	}
	// Absolute offsets unchanged: offset 6 is still 'b'.
	c, err := b.ByteAt(6)
	if err != nil || c != 'b' {
		t.Fatalf("ByteAt(6) after trim = %c, %v", c, err)
	}
	if _, err := b.ByteAt(2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("trimmed byte should be out of range, got %v", err)
	}
}

func TestSub(t *testing.T) {
	b := New()
	b.Append([]byte("GET "))
	b.Append([]byte("/index.html"))
	b.Append([]byte(" HTTP/1.1"))
	got, err := b.Sub(b.At(4), b.At(15))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "/index.html" {
		t.Fatalf("sub = %q", got)
	}
	if _, err := b.Sub(b.At(4), b.At(100)); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("want would-block, got %v", err)
	}
	if _, err := b.Sub(b.At(10), b.At(4)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want out-of-range, got %v", err)
	}
}

func TestFindAcrossChunks(t *testing.T) {
	b := New()
	b.Append([]byte("abc\r"))
	b.Append([]byte("\ndef"))
	it, found, err := b.Find([]byte("\r\n"), b.Begin())
	if err != nil || !found {
		t.Fatalf("find: %v %v", found, err)
	}
	if it.Offset() != 3 {
		t.Fatalf("offset = %d", it.Offset())
	}
	// Absent needle on unfrozen rope: would-block.
	if _, _, err := b.Find([]byte("zzz"), b.Begin()); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("want would-block, got %v", err)
	}
	b.Freeze()
	_, found, err = b.Find([]byte("zzz"), b.Begin())
	if err != nil || found {
		t.Fatalf("frozen find: %v %v", found, err)
	}
}

func TestIterCmpAndDiff(t *testing.T) {
	b := NewFromString("0123456789")
	a, c := b.At(2), b.At(7)
	if a.Cmp(c) != -1 || c.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp broken")
	}
	if a.Diff(c) != 5 {
		t.Fatalf("Diff = %d", a.Diff(c))
	}
}

func TestEqualCompareCopy(t *testing.T) {
	a := New()
	a.Append([]byte("ab"))
	a.Append([]byte("cd"))
	b := NewFromString("abcd")
	if !a.Equal(b) {
		t.Fatal("chunked != flat")
	}
	if a.Compare(NewFromString("abce")) >= 0 {
		t.Fatal("compare ordering")
	}
	cp := a.Copy()
	a.Append([]byte("!"))
	if cp.Len() != 4 {
		t.Fatal("copy not independent")
	}
}

// Property: chunked construction is equivalent to flat construction for
// Bytes/Len/ByteAt/Sub, regardless of how the data is split into chunks.
func TestQuickChunkingEquivalence(t *testing.T) {
	f := func(data []byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New()
		rest := data
		for len(rest) > 0 {
			n := 1 + rng.Intn(len(rest))
			b.Append(rest[:n])
			rest = rest[n:]
		}
		b.Freeze()
		if !bytes.Equal(b.Bytes(), data) {
			return false
		}
		if b.Len() != int64(len(data)) {
			return false
		}
		for i := range data {
			c, err := b.ByteAt(int64(i))
			if err != nil || c != data[i] {
				return false
			}
		}
		if len(data) >= 2 {
			lo := rng.Intn(len(data))
			hi := lo + rng.Intn(len(data)-lo)
			sub, err := b.Sub(b.At(int64(lo)), b.At(int64(hi)))
			if err != nil || !bytes.Equal(sub, data[lo:hi]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Find agrees with bytes.Index on the flattened content.
func TestQuickFindEquivalence(t *testing.T) {
	f := func(data []byte, needle []byte) bool {
		if len(needle) == 0 {
			return true
		}
		b := New()
		for i := 0; i < len(data); i += 3 {
			j := i + 3
			if j > len(data) {
				j = len(data)
			}
			b.Append(data[i:j])
		}
		b.Freeze()
		it, found, err := b.Find(needle, b.Begin())
		if err != nil {
			return false
		}
		want := bytes.Index(data, needle)
		if want < 0 {
			return !found
		}
		return found && it.Offset() == int64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A find whose match spans one, two and three chunk boundaries (and one
// that starts after a trimmed prefix) equals bytes.Index on the flat data at
// every placement of the cuts; Chunk walks the same bytes in place.
func TestFindEveryCut(t *testing.T) {
	data := []byte("ab\rab\r\n\r\ncd--boundary--x")
	for _, needle := range []string{"\r\n\r\n", "--boundary--", "b", "zz"} {
		for i := 0; i <= len(data); i++ {
			for j := i; j <= len(data); j++ {
				for k := j; k <= len(data); k++ {
					b := New()
					for _, part := range [][]byte{data[:i], data[i:j], data[j:k], data[k:]} {
						b.Append(part)
					}
					b.Freeze()
					for _, from := range []int{0, 1, 4} {
						if from == 4 {
							b.Trim(b.At(3))
						}
						want := bytes.Index(data[from:], []byte(needle))
						it, found, err := b.Find([]byte(needle), b.At(int64(from)))
						if err != nil || found != (want >= 0) || (found && it.Offset() != int64(from+want)) {
							t.Fatalf("needle %q cuts %d/%d/%d from %d: (%d, %v, %v), flat %d",
								needle, i, j, k, from, it.Offset(), found, err, from+want)
						}
					}
					var walked []byte
					for it := b.At(3); len(it.Chunk()) > 0; it = it.Plus(int64(len(it.Chunk()))) {
						walked = append(walked, it.Chunk()...)
					}
					if !bytes.Equal(walked, data[3:]) {
						t.Fatalf("cuts %d/%d/%d: Chunk walked %q", i, j, k, walked)
					}
				}
			}
		}
	}
	b := NewFromString("abc")
	if _, _, err := b.Find([]byte("c"), b.At(4)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("find from past the end: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { b.Find([]byte("c"), b.Begin()) }); n != 0 {
		t.Fatalf("Find allocates %v times per call", n)
	}
}

func BenchmarkAppendSmallChunks(b *testing.B) {
	data := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := New()
		for j := 0; j < 16; j++ {
			r.AppendOwned(data)
		}
	}
}

func BenchmarkByteAtSequential(b *testing.B) {
	r := New()
	for j := 0; j < 64; j++ {
		r.Append(make([]byte, 256))
	}
	r.Freeze()
	n := r.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ByteAt(int64(i) % n)
	}
}

// SubBytes hands back an independent value: later appends to, or trims of,
// the source must not show through, nor must writes to the source's chunks.
func TestSubBytesIndependentOfSource(t *testing.T) {
	first := []byte("hello ")
	b := New()
	b.AppendOwned(first)
	b.Append([]byte("world"))
	sub, err := b.SubBytes(b.At(3), b.At(8)) // spans the chunk boundary
	if err != nil || sub.String() != "lo wo" || !sub.Frozen() {
		t.Fatalf("SubBytes = %q frozen=%v err=%v", sub, sub.Frozen(), err)
	}
	b.Append([]byte("!!!"))
	b.Trim(b.At(7))
	first[4] = 'X'
	if sub.String() != "lo wo" || sub.Len() != 5 {
		t.Fatalf("sub changed with its source: %q", sub)
	}
	if err := sub.Append([]byte("x")); !errors.Is(err, ErrFrozen) {
		t.Fatalf("append to a SubBytes result: %v, want ErrFrozen", err)
	}
	if empty, err := b.SubBytes(b.At(9), b.At(9)); err != nil || empty.Len() != 0 {
		t.Fatalf("empty range: len=%d err=%v", empty.Len(), err)
	}
}

// The first chunk lives inside the Bytes value; growing past it, trimming
// everything away and appending again must all keep the rope intact.
func TestGrowthPastInlineChunk(t *testing.T) {
	b := New()
	it := b.Begin()
	var want []byte
	for i := 0; i < 5; i++ {
		chunk := []byte{byte('a' + i), byte('A' + i)}
		b.Append(chunk)
		want = append(want, chunk...)
		if got := b.Bytes(); string(got) != string(want) {
			t.Fatalf("after %d chunks: %q, want %q", i+1, got, want)
		}
	}
	if c, err := it.Plus(7).Deref(); err != nil || c != 'D' {
		t.Fatalf("iterator from before the growth: %q %v", c, err)
	}
	b.Trim(b.End()) // drops every chunk
	b.Append([]byte("zz"))
	if b.String() != "zz" || b.Len() != 2 {
		t.Fatalf("append after full trim: %q", b)
	}
	if c, err := b.ByteAt(11); err != nil || c != 'z' {
		t.Fatalf("ByteAt(11) = %q %v", c, err)
	}

	var buf [4]byte
	r := NewFrom([]byte("abcdef"))
	r.Append([]byte("gh"))
	if err := r.ReadAt(buf[:], r.At(4)); err != nil || string(buf[:]) != "efgh" {
		t.Fatalf("ReadAt across chunks = %q %v", buf, err)
	}
	if err := r.ReadAt(buf[:], r.At(6)); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("ReadAt past an unfrozen end: %v", err)
	}
	r.Freeze()
	if err := r.ReadAt(buf[:], r.At(6)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadAt past a frozen end: %v", err)
	}

	// One-chunk ropes cost the Bytes value and the data copy, nothing else.
	src := []byte("datagram")
	if n := testing.AllocsPerRun(100, func() { NewFrom(src) }); n > 2 {
		t.Fatalf("NewFrom: %v allocs, want <= 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.SubBytes(r.At(1), r.At(7)) }); n > 2 {
		t.Fatalf("SubBytes: %v allocs, want <= 2", n)
	}
}

// TestAppendRange: a range spanning chunks appends in order; a range past
// the end of a non-frozen source would block, one past a frozen end is out
// of range, and a frozen destination refuses — each leaving the
// destination as it was.
func TestAppendRange(t *testing.T) {
	src := New()
	src.AppendOwned([]byte("www"))
	src.AppendOwned([]byte("example"))
	dst := NewFromString("x.")
	if err := dst.AppendRange(src, 1, 6); err != nil || dst.String() != "x.wwexa" {
		t.Fatalf("across chunks: %q, %v", dst.String(), err)
	}
	for _, c := range []struct {
		name   string
		freeze bool // src
		frozen bool // dst
		to     int64
		want   error
	}{
		{"past a non-frozen end", false, false, 11, ErrWouldBlock},
		{"past a frozen end", true, false, 11, ErrOutOfRange},
		{"onto a frozen destination", true, true, 4, ErrFrozen},
	} {
		if c.freeze {
			src.Freeze()
		}
		if c.frozen {
			dst.Freeze()
		}
		if err := dst.AppendRange(src, 2, c.to); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
		if got := dst.String(); got != "x.wwexa" {
			t.Errorf("%s: destination changed to %q", c.name, got)
		}
	}
}

// TestResetEmpty: a reset rope is empty and unfrozen whatever it held. A
// rope built only by Append keeps its own tail array as room for the next
// use; one holding borrowed data (AppendOwned) never writes into it.
func TestResetEmpty(t *testing.T) {
	b := NewWithTail()
	b.Append([]byte("www.example.com"))
	b.Freeze()
	room := b.Bytes()
	b.ResetEmpty()
	if b.Len() != 0 || b.Frozen() {
		t.Fatalf("reset rope: len %d, frozen %v", b.Len(), b.Frozen())
	}
	b.Append([]byte("abc"))
	if &b.Bytes()[0] != &room[0] || b.String() != "abc" {
		t.Fatalf("reset rope did not reuse its tail: %q", b.String())
	}

	borrowed := []byte("payload")
	o := New()
	o.AppendOwned(borrowed)
	o.ResetEmpty()
	o.Append([]byte("xyz"))
	if string(borrowed) != "payload" || o.String() != "xyz" {
		t.Fatalf("reset of a borrowing rope wrote %q into its data, holds %q", borrowed, o.String())
	}
}
