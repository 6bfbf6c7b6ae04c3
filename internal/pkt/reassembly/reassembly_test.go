package reassembly

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func collector() (*Stream, *bytes.Buffer, *int) {
	var buf bytes.Buffer
	gaps := 0
	s := &Stream{
		Deliver: func(d []byte) { buf.Write(d) },
		Gap:     func(n int) { gaps += n },
	}
	return s, &buf, &gaps
}

func TestInOrder(t *testing.T) {
	s, buf, _ := collector()
	s.Init(999)
	s.Segment(1000, []byte("hello "), false)
	s.Segment(1006, []byte("world"), true)
	if buf.String() != "hello world" {
		t.Fatalf("got %q", buf.String())
	}
	if !s.Closed() {
		t.Fatal("should be closed after FIN")
	}
}

func TestOutOfOrder(t *testing.T) {
	s, buf, _ := collector()
	s.Init(0)
	s.Segment(7, []byte("world"), false)
	if buf.Len() != 0 {
		t.Fatal("delivered out of order")
	}
	s.Segment(1, []byte("hello "), false)
	if buf.String() != "hello world" {
		t.Fatalf("got %q", buf.String())
	}
	if s.PendingBytes() != 0 {
		t.Fatal("pending after flush")
	}
}

func TestRetransmissionIgnored(t *testing.T) {
	s, buf, _ := collector()
	s.Init(0)
	s.Segment(1, []byte("abc"), false)
	s.Segment(1, []byte("abc"), false)
	s.Segment(4, []byte("def"), false)
	if buf.String() != "abcdef" {
		t.Fatalf("got %q", buf.String())
	}
}

func TestPartialOverlapTrimmed(t *testing.T) {
	s, buf, _ := collector()
	s.Init(0)
	s.Segment(1, []byte("abcd"), false)
	// Retransmit covering old+new data: only the new tail is delivered.
	s.Segment(3, []byte("cdEF"), false)
	if buf.String() != "abcdEF" {
		t.Fatalf("got %q", buf.String())
	}
}

func TestMidStreamPickup(t *testing.T) {
	s, buf, _ := collector()
	// No Init: first segment establishes origin.
	s.Segment(500000, []byte("data"), false)
	if buf.String() != "data" {
		t.Fatalf("got %q", buf.String())
	}
}

func TestFlushAbandonsHoles(t *testing.T) {
	s, buf, gaps := collector()
	s.Init(0)
	s.Segment(1, []byte("abc"), false)
	s.Segment(10, []byte("xyz"), false) // hole of 6 bytes
	s.Flush()
	if buf.String() != "abcxyz" {
		t.Fatalf("got %q", buf.String())
	}
	if *gaps != 6 {
		t.Fatalf("gaps = %d", *gaps)
	}
}

func TestSequenceWraparound(t *testing.T) {
	s, buf, _ := collector()
	isn := uint32(0xFFFFFFF0)
	s.Init(isn)
	seq := isn + 1
	s.Segment(seq, []byte("0123456789"), false)    // crosses the wrap
	s.Segment(seq+10, []byte("abcdefghij"), false) // fully past the wrap
	if buf.String() != "0123456789abcdefghij" {
		t.Fatalf("got %q", buf.String())
	}
}

// TestWrapOutOfOrderStraddle: the hole sits exactly on the 0xFFFFFFFF
// boundary — the later segment (past the wrap) arrives first.
func TestWrapOutOfOrderStraddle(t *testing.T) {
	s, buf, _ := collector()
	s.Init(0xFFFFFFDF)                                       // payload origin at seq 0xFFFFFFE0
	s.Segment(0xFFFFFFE0, []byte("aaaaaaaaaaaaaaaa"), false) // up to 0xFFFFFFF0
	s.Segment(0x00000000, []byte("cccccccccccccccc"), false) // past the wrap, early
	if buf.String() != "aaaaaaaaaaaaaaaa" {
		t.Fatalf("hole at the wrap not honored: %q", buf.String())
	}
	if s.PendingBytes() != 16 {
		t.Fatalf("pending = %d, want 16", s.PendingBytes())
	}
	s.Segment(0xFFFFFFF0, []byte("bbbbbbbbbbbbbbbb"), false) // fills the straddling hole
	want := "aaaaaaaaaaaaaaaa" + "bbbbbbbbbbbbbbbb" + "cccccccccccccccc"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

// TestWrapRetransmitOverlap: a retransmission straddling the wrap whose
// head was already delivered is trimmed, not re-delivered.
func TestWrapRetransmitOverlap(t *testing.T) {
	s, buf, _ := collector()
	s.Init(0xFFFFFFEF)                                       // payload origin at 0xFFFFFFF0
	s.Segment(0xFFFFFFF0, []byte("0123456789abcdef"), false) // crosses to seq 0
	s.Segment(0x00000000, []byte("ghijklmn"), false)
	// Retransmit from before the wrap through new data past it: offsets
	// 8..0x20, of which 8..0x18 were already delivered.
	s.Segment(0xFFFFFFF8, []byte("89abcdefghijklmnNEWBYTES"), false)
	want := "0123456789abcdefghijklmnNEWBYTES"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
	// Full retransmission of the straddling range: nothing new.
	s.Segment(0xFFFFFFF0, []byte("0123456789abcdef"), false)
	if buf.String() != want {
		t.Fatalf("complete retransmit re-delivered: %q", buf.String())
	}
}

// TestWrapGapDeclared: a hole straddling the wrap that is abandoned at
// Flush reports the right gap size and still delivers the buffered tail.
func TestWrapGapDeclared(t *testing.T) {
	s, buf, gaps := collector()
	s.Init(0xFFFFFFCF)                                                       // payload origin at 0xFFFFFFD0
	s.Segment(0xFFFFFFD0, []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), false) // 32B to 0xFFFFFFF0
	// Lose [0xFFFFFFF0, 0x10) — 32 bytes straddling the wrap.
	s.Segment(0x00000010, []byte("zzzzzzzz"), false)
	if *gaps != 0 {
		t.Fatal("gap declared before abandonment")
	}
	s.Flush()
	if *gaps != 32 {
		t.Fatalf("gap = %d, want 32 (straddling the wrap)", *gaps)
	}
	want := "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" + "zzzzzzzz"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

// TestRelUnwrapBackward exercises rel's -2GB unwrapping: with the stream
// past 4GB of delivered data, a u32 seq that resolves just *behind* the
// current position must unwrap downward and be recognized as retransmitted
// data rather than buffered as far-future.
func TestRelUnwrapBackward(t *testing.T) {
	s, buf, _ := collector()
	// White-box: stand at unwrapped offset 2^32 + 0x40.
	s.initialized = true
	s.isn = 0
	s.next = 1<<32 + 0x40
	// Retransmit at offset 0xFFFFFFF0 (u32 rel 0xFFFFFFF0, behind next):
	// fully delivered already, must be dropped.
	s.Segment(0xFFFFFFF0, []byte("old-old-old-old-"), false)
	if buf.Len() != 0 || s.PendingBytes() != 0 {
		t.Fatalf("backward retransmit mishandled: delivered %q, pending %d",
			buf.String(), s.PendingBytes())
	}
	// Partial overlap across the 4GB boundary: offsets 2^32+0x30..2^32+0x50,
	// first 0x10 already delivered.
	s.Segment(0x30, []byte("xxxxxxxxxxxxxxxxNEWDATA-NEWDATA-"), false)
	if buf.String() != "NEWDATA-NEWDATA-" {
		t.Fatalf("got %q, want the undelivered tail only", buf.String())
	}
	if s.next != 1<<32+0x50 {
		t.Fatalf("next = %#x, want %#x", s.next, uint64(1<<32+0x50))
	}
}

// TestRelUnwrapForward exercises rel's +2GB unwrapping: just below 4GB of
// stream, a segment whose u32 rel is tiny (past the 4GB boundary) must
// unwrap upward into the future, buffer, and deliver once the hole fills.
func TestRelUnwrapForward(t *testing.T) {
	s, buf, _ := collector()
	s.initialized = true
	s.isn = 0
	s.next = 0xFFFFFFF0 // 0x10 short of 4GB
	// Out-of-order segment at unwrapped offset 2^32+0x10 (u32 rel 0x10).
	s.Segment(0x10, []byte("future-future-fu"), false)
	if buf.Len() != 0 {
		t.Fatalf("future segment delivered early: %q", buf.String())
	}
	if s.PendingBytes() != 16 {
		t.Fatalf("pending = %d, want 16", s.PendingBytes())
	}
	// Fill the 0x20-byte hole [0xFFFFFFF0, 2^32+0x10) straddling 4GB.
	s.Segment(0xFFFFFFF0, []byte("fill-fill-fill-fill-fill-fill-fi"), false)
	want := "fill-fill-fill-fill-fill-fill-fi" + "future-future-fu"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
	if s.next != 1<<32+0x20 {
		t.Fatalf("next = %#x, want %#x", s.next, uint64(1<<32+0x20))
	}
}

func TestFinWithOutstandingData(t *testing.T) {
	s, buf, _ := collector()
	s.Init(0)
	s.Segment(5, []byte("tail"), true) // FIN arrives before the head
	if s.Closed() {
		t.Fatal("closed with missing data")
	}
	s.Segment(1, []byte("head"), false)
	if buf.String() != "headtail" || !s.Closed() {
		t.Fatalf("got %q closed=%v", buf.String(), s.Closed())
	}
}

// Property: any permutation of segment delivery yields the original stream.
func TestQuickPermutationInvariance(t *testing.T) {
	f := func(data []byte, seed int64) bool {
		if len(data) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		// Split into random segments.
		type seg struct {
			off int
			d   []byte
		}
		var segs []seg
		for off := 0; off < len(data); {
			n := 1 + rng.Intn(5)
			if off+n > len(data) {
				n = len(data) - off
			}
			segs = append(segs, seg{off, data[off : off+n]})
			off += n
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		var buf bytes.Buffer
		s := &Stream{Deliver: func(d []byte) { buf.Write(d) }}
		s.Init(41)
		for _, sg := range segs {
			s.Segment(uint32(42+sg.off), sg.d, false)
		}
		return bytes.Equal(buf.Bytes(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInOrderDelivery(b *testing.B) {
	payload := make([]byte, 1460)
	s := &Stream{Deliver: func([]byte) {}}
	s.Init(0)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	seq := uint32(1)
	for i := 0; i < b.N; i++ {
		s.Segment(seq, payload, false)
		seq += uint32(len(payload))
	}
}
