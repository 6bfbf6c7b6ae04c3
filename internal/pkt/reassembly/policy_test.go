package reassembly

import (
	"bytes"
	"testing"
)

// Policy-level behavior: gap accounting, the per-direction and shared
// buffering bounds, checkpoint snapshot/restore, and quarantine discard —
// the decisions an engine layered on top observes, as opposed to the
// byte-shuffling mechanics covered in reassembly_test.go.

func TestGapSkipCountExact(t *testing.T) {
	s, buf, gaps := collector()
	s.Segment(1000, []byte("hello"), false) // origin at 1000
	s.Segment(1042, []byte("world"), false) // hole [5,42): 37 bytes
	s.Flush()
	if *gaps != 37 {
		t.Fatalf("gap = %d bytes, want 37", *gaps)
	}
	if buf.String() != "helloworld" {
		t.Fatalf("delivered %q", buf.String())
	}
}

func TestMaxBufferedForcesGap(t *testing.T) {
	s, buf, gaps := collector()
	s.Segment(0, []byte("x"), false) // origin; next = 1
	big := make([]byte, maxBuffered+1)
	s.Segment(101, big, false) // hole [1,101), buffered > maxBuffered
	if *gaps != 100 {
		t.Fatalf("gap = %d, want 100 (hole abandoned by per-direction bound)", *gaps)
	}
	if buf.Len() != 1+len(big) {
		t.Fatalf("delivered %d bytes, want %d", buf.Len(), 1+len(big))
	}
	if s.PendingBytes() != 0 {
		t.Fatalf("pending = %d after forced flush", s.PendingBytes())
	}
}

func TestBudgetForcesGapAndCounts(t *testing.T) {
	b := NewBudget(8)
	s, buf, gaps := collector()
	s.Budget = b
	s.Segment(0, []byte("a"), false)
	s.Segment(100, make([]byte, 16), false) // over budget -> forced gap
	if b.Forced() != 1 {
		t.Fatalf("forced = %d, want 1", b.Forced())
	}
	if *gaps != 99 {
		t.Fatalf("gap = %d, want 99", *gaps)
	}
	if buf.Len() != 17 {
		t.Fatalf("delivered %d bytes, want 17", buf.Len())
	}
	if b.Used() != 0 {
		t.Fatalf("budget used = %d after delivery, want 0", b.Used())
	}
}

func TestBudgetSharedAcrossStreams(t *testing.T) {
	b := NewBudget(10)
	s1, _, _ := collector()
	s2, _, gaps2 := collector()
	s1.Budget, s2.Budget = b, b
	// s1 parks 8 out-of-order bytes within its own generous per-direction
	// bound; s2's 8 more tip the aggregate over and s2 pays the gap.
	s1.Segment(0, []byte("a"), false)
	s1.Segment(100, make([]byte, 8), false)
	if b.Used() != 8 || b.Forced() != 0 {
		t.Fatalf("after s1: used=%d forced=%d", b.Used(), b.Forced())
	}
	s2.Segment(0, []byte("a"), false)
	s2.Segment(100, make([]byte, 8), false)
	if b.Forced() != 1 {
		t.Fatalf("forced = %d, want 1 (s2 tripped shared budget)", b.Forced())
	}
	if *gaps2 != 99 {
		t.Fatalf("s2 gap = %d, want 99", *gaps2)
	}
	// s1's hole is still intact: its buffered bytes remain charged.
	if b.Used() != 8 {
		t.Fatalf("used = %d, want 8 (s1 still buffering)", b.Used())
	}
}

// TestBudgetShares: two holders' shares of one budget each charge it and
// refuse when it is over, but count their own bytes and refusals; a
// granting share does not refuse while its pool is over.
func TestBudgetShares(t *testing.T) {
	pool := NewBudget(10)
	a, b := pool.Share(), pool.Share()
	s1, _, _ := collector()
	s2, _, gaps2 := collector()
	s1.Budget, s2.Budget = a, b
	s1.Segment(0, []byte("a"), false)
	s1.Segment(100, make([]byte, 8), false)
	s2.Segment(0, []byte("a"), false)
	s2.Segment(100, make([]byte, 8), false) // tips the pool over: refused
	if pool.Used() != 8 || a.Used() != 8 || b.Used() != 0 {
		t.Fatalf("used: pool %d, a %d, b %d; want 8, 8, 0", pool.Used(), a.Used(), b.Used())
	}
	if pool.Forced() != 1 || a.Forced() != 0 || b.Forced() != 1 || *gaps2 != 99 {
		t.Fatalf("forced: pool %d, a %d, b %d, gap %d; want 1, 0, 1, 99", pool.Forced(), a.Forced(), b.Forced(), *gaps2)
	}
	s3, _, gaps3 := collector()
	s3.Budget = b
	pool.charge(100) // another holder's traffic
	b.Granting = true
	s3.Segment(0, []byte("a"), false)
	s3.Segment(100, make([]byte, 8), false)
	if b.Forced() != 1 || *gaps3 != 0 || b.Used() != 8 {
		t.Fatalf("a granting share refused: forced %d, gap %d, used %d", b.Forced(), *gaps3, b.Used())
	}
}

func TestOverlappingPendingSegmentsDeliverOnce(t *testing.T) {
	s, buf, _ := collector()
	s.Init(0) // payload starts at seq 1
	s.Segment(5, []byte("efgh"), false)
	s.Segment(7, []byte("ghij"), false) // overlaps previous pending by 2
	s.Segment(1, []byte("abcd"), false) // fills the head
	if buf.String() != "abcdefghij" {
		t.Fatalf("delivered %q, want abcdefghij", buf.String())
	}
}

func TestLeftOverlapWithDeliveredTrimmed(t *testing.T) {
	s, buf, _ := collector()
	s.Segment(0, []byte("abcd"), false)
	s.Segment(2, []byte("cdef"), false) // first half already delivered
	if buf.String() != "abcdef" {
		t.Fatalf("delivered %q, want abcdef", buf.String())
	}
}

func TestSnapshotRestoreWithHole(t *testing.T) {
	s, _, _ := collector()
	s.Segment(0, []byte("abc"), false)
	s.Segment(103, []byte("tail"), false) // hole [3,103)
	st := s.SnapshotState()

	// Deep-copy isolation: mutating the live stream after the snapshot
	// must not leak into the restored one.
	s.pending[0].data[0] = 'X'

	var out bytes.Buffer
	r := &Stream{Deliver: func(d []byte) { out.Write(d) }}
	r.RestoreState(st)
	if !r.Initialized() || r.PendingBytes() != 4 {
		t.Fatalf("restored: init=%v pending=%d", r.Initialized(), r.PendingBytes())
	}
	r.Segment(3, make([]byte, 100), false) // fill the hole
	if got := out.Len(); got != 104 {
		t.Fatalf("restored stream delivered %d bytes, want 104", got)
	}
	if out.Bytes()[100] != 't' {
		t.Fatalf("restored pending data corrupted: %q", out.Bytes()[100:])
	}
}

func TestRestoreChargesBudget(t *testing.T) {
	s, _, _ := collector()
	s.Segment(0, []byte("a"), false)
	s.Segment(50, []byte("pending"), false)
	st := s.SnapshotState()

	b := NewBudget(1 << 20)
	r := &Stream{Budget: b}
	r.RestoreState(st)
	if b.Used() != 7 {
		t.Fatalf("budget used = %d after restore, want 7", b.Used())
	}
}

func TestDiscardCreditsBudgetAndCloses(t *testing.T) {
	b := NewBudget(1 << 20)
	s, buf, _ := collector()
	s.Budget = b
	s.Segment(0, []byte("a"), false)
	s.Segment(50, []byte("quarantined"), false)
	if b.Used() == 0 {
		t.Fatal("nothing charged before discard")
	}
	s.Discard()
	if b.Used() != 0 {
		t.Fatalf("budget used = %d after discard, want 0", b.Used())
	}
	if !s.Closed() || s.PendingBytes() != 0 {
		t.Fatalf("closed=%v pending=%d after discard", s.Closed(), s.PendingBytes())
	}
	before := buf.Len()
	s.Segment(100, []byte("more"), false) // closed stream ignores input
	if buf.Len() != before {
		t.Fatal("closed stream delivered data")
	}
}

func TestFlushClosesAfterFinBeyondHole(t *testing.T) {
	s, buf, gaps := collector()
	s.Segment(0, []byte("head"), false)
	s.Segment(6, []byte("tail"), true) // hole [4,6), FIN at 10
	if s.Closed() {
		t.Fatal("closed with outstanding hole")
	}
	s.Flush()
	if !s.Closed() {
		t.Fatal("Flush did not close past FIN")
	}
	if *gaps != 2 || buf.String() != "headtail" {
		t.Fatalf("gaps=%d delivered=%q", *gaps, buf.String())
	}
}

func TestZeroLengthFinClosesInPlace(t *testing.T) {
	s, _, _ := collector()
	s.Segment(0, []byte("data"), false)
	s.Segment(4, nil, true) // bare FIN at the delivery point
	if !s.Closed() {
		t.Fatal("bare FIN at next offset did not close")
	}
}

func TestLateRetransmitAfterAbandonedGapDropped(t *testing.T) {
	s, buf, _ := collector()
	s.Segment(0, []byte("ab"), false)
	s.Segment(10, []byte("zz"), false) // hole [2,10)
	s.Flush()                          // abandon it
	delivered := buf.Len()
	s.Segment(2, []byte("late!!!!"), false) // entirely before next: dropped
	if buf.Len() != delivered {
		t.Fatalf("late retransmission delivered: %q", buf.String())
	}
}
