package reassembly

import (
	"bytes"
	"testing"
)

// FuzzStreamModel checks a Stream against a flat byte model of what the
// sender sent. The schedule — in-order sends, retransmissions overlapping
// delivered data, reordered and future segments, FIN early or late, Flush,
// and a snapshot/discard/restore hand-over — comes from the input, three
// bytes an operation; isn picks the sequence origin, so streams cross the
// 32-bit wrap. The model:
//
//   - every delivered slice is the sent bytes at the position the model
//     expects (deliveries and gaps advance it), never past the end;
//   - every slice Deliver gets is overwritten once recorded, and every
//     buffer handed to Segment is overwritten when the call returns, so a
//     stream that kept anything it lent out or was lent shows garbage;
//   - the budget holds exactly the stream's pending bytes, and 0 after
//     Flush or Discard;
//   - after a final Flush, everything up to the furthest byte sent is
//     delivered or declared a gap, and the stream is closed iff a FIN was
//     sent and the stream reached it.
func FuzzStreamModel(f *testing.F) {
	f.Add(uint32(0), false, uint8(0), []byte{0, 5, 0, 0, 9, 1, 0, 30, 0x82})
	f.Add(uint32(0xFFFFFFF0), false, uint8(16), []byte{0, 10, 4, 40, 8, 4, 0, 12, 0, 0, 0, 7, 0, 30, 1, 0, 99, 0x83})
	f.Add(uint32(0xFFFFFF00), true, uint8(3), []byte{0, 20, 0, 5, 20, 3, 50, 9, 5, 0, 0, 6, 0, 31, 1, 0, 0, 7, 0, 200, 0x80})
	f.Add(uint32(12345), false, uint8(0), []byte{190, 31, 0x85, 0, 31, 0, 10, 31, 4, 0, 0, 6})
	f.Fuzz(func(t *testing.T, isn uint32, midStream bool, budget uint8, sched []byte) {
		const size = 200
		sent := make([]byte, size)
		for i := range sent {
			sent[i] = byte(i*7 + 3)
		}
		b := NewBudget(int64(budget))
		var pos, maxEnd int // model position, furthest byte sent
		finSent, started := false, false
		deliver := func(d []byte) {
			if pos+len(d) > size || !bytes.Equal(d, sent[pos:pos+len(d)]) {
				t.Fatalf("delivered %d bytes at %d that were not sent there", len(d), pos)
			}
			pos += len(d)
			for i := range d {
				d[i] = 0xEE
			}
		}
		gap := func(n int) { pos += n }
		s := &Stream{Deliver: deliver, Gap: gap, Budget: b}
		if !midStream {
			s.Init(isn - 1)
		}
		cursor := 0 // where the sender's next in-order segment starts
		for ; len(sched) >= 3; sched = sched[3:] {
			op, a, n := sched[0]%8, int(sched[1]), int(sched[2]%32)
			switch op {
			case 6:
				s.Flush()
				if b.Used() != 0 || s.PendingBytes() != 0 {
					t.Fatalf("after Flush: budget used %d, pending %d", b.Used(), s.PendingBytes())
				}
				continue
			case 7:
				st := s.SnapshotState()
				s.Discard()
				if b.Used() != 0 {
					t.Fatalf("after Discard: budget used %d", b.Used())
				}
				s = &Stream{Deliver: deliver, Gap: gap, Budget: b}
				s.RestoreState(st)
				continue
			}
			off := cursor
			switch {
			case !started && midStream:
				off = 0 // the first segment sets the origin; nothing precedes it
			case op == 3:
				off = cursor - a%(cursor+1) // retransmission, maybe with new data
			case op >= 4:
				off = a % size // reordered or future
			}
			n = min(n, size-off)
			fin := off+n == size && sched[2]&0x80 != 0
			if off+n > cursor && op < 3 {
				cursor = off + n
			}
			if n > 0 {
				maxEnd = max(maxEnd, off+n)
			}
			finSent = finSent || fin
			started = true
			lent := append([]byte(nil), sent[off:off+n]...)
			s.Segment(isn+uint32(off), lent, fin)
			for i := range lent {
				lent[i] = 0xDD
			}
			if b.Used() != int64(s.PendingBytes()) {
				t.Fatalf("budget used %d, stream pending %d", b.Used(), s.PendingBytes())
			}
		}
		s.Flush()
		if b.Used() != 0 || s.PendingBytes() != 0 {
			t.Fatalf("after final Flush: budget used %d, pending %d", b.Used(), s.PendingBytes())
		}
		if pos != maxEnd {
			t.Fatalf("stream ends at %d, furthest byte sent %d", pos, maxEnd)
		}
		if want := finSent && pos == size; s.Closed() != want {
			t.Fatalf("closed = %v, want %v (FIN sent %v, stream at %d of %d)", s.Closed(), want, finSent, pos, size)
		}
		s.Discard()
		if b.Used() != 0 {
			t.Fatalf("after Discard: budget used %d", b.Used())
		}
	})
}
