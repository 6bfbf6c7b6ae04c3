// Lent input: a host hands a parse its input without a copy. A TCP segment
// belongs to the reassembler's caller, which writes the frame again after
// the packet, so a parse may read it only during the Resume it is handed
// to. Exec.Lend appends it to the parse's rope as a lent chunk
// (hbytes.AppendLent); every view the VM takes of lent bytes is recorded on
// the Exec; Exec.Settle, on every exit of the call, copies what the rope
// and those views still hold into memory of their own (hbytes.Settle). A
// streamed field's piece (bytes.piece) is lent to its hook only, so it is
// not copied: Settle releases it for the next piece (DESIGN "A segment is
// lent to the parse").

package vm

import "hilti/internal/rt/hbytes"

// lending is an Exec's open loan: the values Settle copies, and the pieces
// it releases.
type lending struct {
	lent   []*hbytes.Bytes // the lending rope and the lent views
	pieces []*hbytes.Bytes // lent pieces, released at Settle
	free   []*hbytes.Bytes // released pieces, for the next bytes.piece
}

// Lend appends data to rope as a loan that the next Settle ends. The caller
// must call Settle before it writes data again.
func (ex *Exec) Lend(rope *hbytes.Bytes, data []byte) error {
	if err := rope.AppendLent(data); err != nil {
		return err
	}
	ex.noteLent(rope)
	return nil
}

// Settle ends the loan: the ropes lent to and every view taken of lent bytes
// keep what they still hold in one allocation sized to it, and the lent
// pieces are released — under the hiltipoison tag re-pointed at poison.
func (ex *Exec) Settle() {
	l := &ex.lend
	hbytes.Settle(l.lent)
	clear(l.lent)
	l.lent = l.lent[:0]
	for _, p := range l.pieces {
		releaseView(p)
	}
	l.free = append(l.free, l.pieces...)
	clear(l.pieces)
	l.pieces = l.pieces[:0]
}

// noteLent records b for Settle when it holds lent bytes.
func (ex *Exec) noteLent(b *hbytes.Bytes) {
	if b.Lent() {
		ex.lend.lent = append(ex.lend.lent, b)
	}
}

// piece is bytes.piece's view of b over [from, to). A lent one goes back to
// the free pieces at Settle; any other is the caller's, as bytes.sub's is.
func (ex *Exec) piece(b *hbytes.Bytes, from, to hbytes.Iter) (*hbytes.Bytes, error) {
	l := &ex.lend
	var nb *hbytes.Bytes
	if n := len(l.free); n > 0 {
		nb, l.free = l.free[n-1], l.free[:n-1]
	} else {
		nb = new(hbytes.Bytes)
	}
	if err := b.SubBytesInto(nb, from, to); err != nil {
		l.free = append(l.free, nb)
		return nil, err
	}
	if nb.Lent() {
		l.pieces = append(l.pieces, nb)
	}
	return nb, nil
}
