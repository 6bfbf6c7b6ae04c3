package hbytes

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"
)

// TestBytesIsEightyBytes: a view is an 80-byte object, a size class. The
// lent mark lives in the flags' padding; a pointer would move every view to
// the 96-byte class.
func TestBytesIsEightyBytes(t *testing.T) {
	if n := unsafe.Sizeof(Bytes{}); n != 80 {
		t.Fatalf("Bytes is %d bytes, want 80", n)
	}
}

// TestSettle: a lending rope and its views keep, after Settle, exactly what
// they held of the lent frame, in one allocation, although the frame is then
// overwritten; a view of a view too. A rope that keeps nothing allocates
// nothing, and appends are refused only while the rope lends.
func TestSettle(t *testing.T) {
	frame := []byte("GET /index.html HTTP/1.1\r\n")
	r := New()
	if err := r.AppendLent(frame); err != nil || !r.Lent() {
		t.Fatalf("AppendLent: %v, lent %v", err, r.Lent())
	}
	if err := r.Append([]byte("x")); err != ErrLending {
		t.Fatalf("Append to a lending rope: %v, want ErrLending", err)
	}
	uri, _ := r.SubBytes(r.At(4), r.At(15))
	ext, _ := uri.SubBytes(uri.At(7), uri.End())
	r.Trim(r.At(16))
	if !uri.Lent() || !ext.Lent() {
		t.Fatal("views of the lent chunk are not lent")
	}
	loan := []*Bytes{r, uri, ext, uri} // twice: Settle skips what no longer lends
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Settle(loan)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 1 && !raceEnabled {
		t.Fatalf("Settle: %d allocations, want 1", n)
	}
	for i := range frame {
		frame[i] = 0xA5
	}
	for _, c := range []struct {
		b    *Bytes
		want string
	}{{r, "HTTP/1.1\r\n"}, {uri, "/index.html"}, {ext, "html"}} {
		if got := c.b.String(); got != c.want || c.b.Lent() {
			t.Errorf("after Settle: %q (lent %v), want %q", got, c.b.Lent(), c.want)
		}
	}
	if err := r.Append([]byte("Host")); err != nil || !bytes.HasSuffix(r.Bytes(), []byte("\r\nHost")) {
		t.Fatalf("Append after Settle: %v, %q", err, r.Bytes())
	}

	// A parse that consumed the whole segment keeps nothing: no allocation.
	r.Trim(r.End())
	loan = loan[:1]
	if n := testing.AllocsPerRun(100, func() {
		_ = r.AppendLent(frame)
		r.Trim(r.End())
		Settle(loan)
	}); n != 0 && !raceEnabled {
		t.Fatalf("a Settle that keeps nothing: %v allocations, want 0", n)
	}
	if r.Lent() || r.Len() != 0 {
		t.Fatalf("after Settle: lent %v, %d bytes", r.Lent(), r.Len())
	}
}
