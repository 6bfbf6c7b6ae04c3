package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func mustAppend(t *testing.T, w *Writer, kind byte, payload []byte) {
	t.Helper()
	if err := w.Append(kind, payload); err != nil {
		t.Fatalf("append: %v", err)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter()
	recs := []struct {
		kind    byte
		payload []byte
	}{
		{1, []byte("hello")},
		{2, nil},
		{7, bytes.Repeat([]byte{0xAB}, 1000)},
		{1, []byte{0}},
	}
	for _, rec := range recs {
		mustAppend(t, w, rec.kind, rec.payload)
	}
	if w.Records() != len(recs) {
		t.Fatalf("writer records = %d, want %d", w.Records(), len(recs))
	}

	r := NewReader(w.Bytes())
	for i, want := range recs {
		kind, payload, ok := r.Next()
		if !ok {
			t.Fatalf("record %d: Next returned false (err %v)", i, r.Err())
		}
		if kind != want.kind || !bytes.Equal(payload, want.payload) {
			t.Fatalf("record %d: got kind %d payload %q", i, kind, payload)
		}
	}
	if _, _, ok := r.Next(); ok {
		t.Fatal("Next after last record returned true")
	}
	if r.Err() != nil {
		t.Fatalf("clean EOF reported error: %v", r.Err())
	}
}

func TestReaderEmptySegment(t *testing.T) {
	r := NewReader(NewWriter().Bytes())
	if _, _, ok := r.Next(); ok {
		t.Fatal("empty segment yielded a record")
	}
	if r.Err() != nil {
		t.Fatalf("empty segment reported error: %v", r.Err())
	}
}

func TestReaderTruncatedTail(t *testing.T) {
	w := NewWriter()
	mustAppend(t, w, 1, []byte("first"))
	mustAppend(t, w, 2, []byte("second-record-payload"))
	full := w.Bytes()

	// Cut at every byte offset: the reader must never panic, must return
	// every record that is fully intact before the cut, and must flag the
	// damaged tail (when there is one) via Err.
	firstEnd := headerSize + recHeaderSize + len("first")
	for cut := 0; cut <= len(full); cut++ {
		r := NewReader(full[:cut])
		var got int
		for {
			if _, _, ok := r.Next(); !ok {
				break
			}
			got++
		}
		want := 0
		if cut >= firstEnd {
			want = 1
		}
		if cut == len(full) {
			want = 2
		}
		if got != want {
			t.Fatalf("cut=%d: %d records, want %d", cut, got, want)
		}
		wantErr := cut < headerSize || (cut > firstEnd && cut < len(full)) ||
			(cut > headerSize && cut < firstEnd)
		if (r.Err() != nil) != wantErr {
			t.Fatalf("cut=%d: err=%v, wantErr=%v", cut, r.Err(), wantErr)
		}
	}
}

func TestReaderCorruption(t *testing.T) {
	w := NewWriter()
	mustAppend(t, w, 1, []byte("aaaa"))
	mustAppend(t, w, 1, []byte("bbbb"))
	base := w.Bytes()

	// Flip each byte in turn; the reader must detect damage (or, for some
	// header-of-second-record flips, stop early) without ever panicking or
	// returning a record that fails its checksum.
	for i := headerSize; i < len(base); i++ {
		seg := append([]byte(nil), base...)
		seg[i] ^= 0xFF
		r := NewReader(seg)
		n := 0
		for {
			if _, _, ok := r.Next(); !ok {
				break
			}
			n++
		}
		if r.Err() == nil && n != 2 {
			t.Fatalf("flip at %d: clean stop after %d records", i, n)
		}
		if r.Err() == nil && n == 2 {
			t.Fatalf("flip at %d: corruption went undetected", i)
		}
	}
}

func TestReaderBadHeader(t *testing.T) {
	for _, seg := range [][]byte{nil, {0}, []byte("HWA"), []byte("XWAL\x00\x01"), []byte("HWAL\x00\x09")} {
		r := NewReader(seg)
		if _, _, ok := r.Next(); ok {
			t.Fatalf("segment %q yielded a record", seg)
		}
		if r.Err() == nil {
			t.Fatalf("segment %q not rejected", seg)
		}
	}
}

func TestReaderImplausibleLength(t *testing.T) {
	w := NewWriter()
	mustAppend(t, w, 1, []byte("x"))
	seg := append([]byte(nil), w.Bytes()...)
	// Claim a payload larger than MaxRecord.
	seg[headerSize] = 0xFF
	seg[headerSize+1] = 0xFF
	seg[headerSize+2] = 0xFF
	seg[headerSize+3] = 0xFF
	r := NewReader(seg)
	if _, _, ok := r.Next(); ok {
		t.Fatal("implausible length yielded a record")
	}
	if r.Err() == nil {
		t.Fatal("implausible length not rejected")
	}
}

func TestLogRotationAndReset(t *testing.T) {
	l := NewLog(64) // tiny threshold: rotate often
	var payload [40]byte
	for i := 0; i < 10; i++ {
		if err := l.Append(3, payload[:]); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", len(segs))
	}
	if l.Records() != 10 {
		t.Fatalf("log records = %d, want 10", l.Records())
	}
	n, err := Replay(segs, func(byte, []byte) error { return nil })
	if err != nil || n != 10 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}

	l.Reset()
	if l.Records() != 0 || len(l.Segments()) != 0 || l.Size() != headerSize {
		t.Fatalf("reset left state: records=%d segments=%d size=%d",
			l.Records(), len(l.Segments()), l.Size())
	}
}

func TestLogSegmentsStableAcrossAppend(t *testing.T) {
	l := NewLog(1 << 20)
	if err := l.Append(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	segs := l.Segments()
	if err := l.Append(1, []byte("two")); err != nil {
		t.Fatal(err)
	}
	n, err := Replay(segs, func(byte, []byte) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("snapshot of segments changed under later append: n=%d err=%v", n, err)
	}
}

// TestReplayStrictVsTolerant: Replay is strict — damage anywhere is an
// error — and tolerance of a crash-cut tail is its caller's: the records
// before the damage have been applied, and their count is returned with
// the error. Damage in a frozen segment stops the replay there too.
func TestReplayStrictVsTolerant(t *testing.T) {
	l := NewLog(64)
	for i := 0; i < 8; i++ {
		if err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, got %d", len(segs))
	}

	// Truncate the final segment mid-record: the replay reports the damage
	// after applying every intact record.
	last := segs[len(segs)-1]
	cut := append([]byte(nil), last[:len(last)-5]...)
	cutSegs := append(append([][]byte(nil), segs[:len(segs)-1]...), cut)
	var seen []byte
	n, err := Replay(cutSegs, func(_ byte, p []byte) error {
		seen = append(seen, p[0])
		return nil
	})
	if err == nil {
		t.Fatal("replay accepted a truncated tail")
	}
	if n != 7 || len(seen) != 7 || seen[6] != 6 {
		t.Fatalf("truncated tail: applied %d records (%v), want the 7 intact ones", n, seen)
	}

	// Corrupt a non-final segment: rejected before the later segments.
	bad := append([][]byte(nil), segs...)
	seg0 := append([]byte(nil), bad[0]...)
	seg0[len(seg0)/2] ^= 0x55
	bad[0] = seg0
	n, err = Replay(bad, func(byte, []byte) error { return nil })
	if err == nil || n >= len(segs)-1 {
		t.Fatalf("corrupt frozen segment: applied %d records, err %v", n, err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	l := NewLog(0)
	for i := 0; i < 3; i++ {
		if err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := Replay(l.Segments(), func(_ byte, p []byte) error {
		if p[0] == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || n != 1 {
		t.Fatalf("callback error: n=%d err=%v", n, err)
	}
}

func TestWriterMaxRecord(t *testing.T) {
	w := NewWriter()
	if err := w.Append(1, make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if err := w.Append(1, []byte("after")); err == nil {
		t.Fatal("sticky error did not latch")
	}
}

// TestLogBeginCommit: records written in place through Begin/Commit are
// the records Append writes, byte for byte, across a rotation; an open
// record is in nobody's view of the log — not Segments', Size's or
// Records', not a replay's, whether it is later committed, abandoned, or
// cut short by a crash — and abandoning one leaves the log as it was.
func TestLogBeginCommit(t *testing.T) {
	inPlace, copied := NewLog(256), NewLog(256)
	for i := 0; i < 40; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 10+i)
		if err := copied.Append(byte(i%3), payload); err != nil {
			t.Fatal(err)
		}
		before, size, recs := inPlace.Segments(), inPlace.Size(), inPlace.Records()
		if i%4 == 3 { // a record whose payload could not be produced
			_ = append(inPlace.Begin(9), "half a rec"...)
		}
		rec := append(inPlace.Begin(byte(i%3)), payload[:len(payload)/2]...)
		// A crash here: the open record is beyond what the log holds.
		if got := inPlace.Segments(); !equalSegs(got, before) || inPlace.Size() != size || inPlace.Records() != recs {
			t.Fatalf("record %d: an open record shows: %d segments, %d B, %d records", i, len(got), inPlace.Size(), inPlace.Records())
		}
		if n, err := Replay(inPlace.Segments(), func(byte, []byte) error { return nil }); err != nil || n != i {
			t.Fatalf("record %d open: replay saw %d records, err %v", i, n, err)
		}
		if err := inPlace.Commit(append(rec, payload[len(payload)/2:]...)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := inPlace.Segments(), copied.Segments(); len(want) < 3 || !equalSegs(got, want) {
		t.Fatalf("Begin/Commit wrote %d segments, Append %d, or they differ", len(got), len(want))
	}
	if err := inPlace.Commit(make([]byte, inPlace.Size()+recHeaderSize+MaxRecord+1)); err == nil {
		t.Fatal("oversized record committed")
	}
}

func equalSegs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestLogSegmentsWhileRecordOpen: the owner fills an open record without
// the lock its Commit and Reset take, while a reader (the pipeline's
// supervisor) snapshots Segments under that lock — also across a Reset,
// after which the owner writes over bytes the reader may just have copied.
// Run with -race.
func TestLogSegmentsWhileRecordOpen(t *testing.T) {
	l := NewLog(1 << 10)
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			rec := append(l.Begin(1), bytes.Repeat([]byte{byte(i)}, 100)...)
			mu.Lock()
			err := l.Commit(rec)
			if i%50 == 49 {
				l.Reset()
			}
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		mu.Lock()
		segs := l.Segments()
		mu.Unlock()
		if _, err := Replay(segs, func(byte, []byte) error { return nil }); err != nil {
			t.Fatalf("reader saw a damaged log: %v", err)
		}
	}
}
