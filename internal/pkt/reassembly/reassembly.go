// Package reassembly implements TCP stream reassembly: reordering
// out-of-sequence segments, trimming retransmitted overlap, and reporting
// unrecoverable gaps. It is the substrate that feeds application-layer
// parsers contiguous payload — the piece of "standard functionality" the
// paper's §2 notes every deep-inspection system reimplements.
package reassembly

import (
	"sort"
	"sync/atomic"
)

// maxBuffered bounds out-of-order buffering per direction; beyond it the
// oldest missing range is declared a gap so processing keeps bounded
// memory under adversarial reordering (cf. Dharmapurikar & Paxson [15]).
const maxBuffered = 4 << 20

// Budget is a cross-flow byte budget layered on top of the per-direction
// maxBuffered bound: many flows buffering moderately can still exhaust
// memory in aggregate, so streams sharing a Budget charge it for every
// out-of-order byte held. In-order data is delivered in place and never
// charged. When the total exceeds Max, a stream inserting out-of-order data
// abandons its oldest hole early (a forced gap) instead of buffering more.
// Counters are atomic so engines on different pipeline workers can share
// one Budget.
type Budget struct {
	max    atomic.Int64
	used   atomic.Int64
	forced atomic.Uint64

	// pool, for a share (see Share), is the budget the share draws on.
	pool *Budget
	// Granting makes a share report its pool as never over: a refusal then
	// depends on nothing outside the streams that hold the share. Set it
	// only while no stream holding the share is inserting.
	Granting bool
}

// NewBudget creates a budget of max bytes (<=0 disables enforcement while
// still accounting usage).
func NewBudget(max int64) *Budget {
	b := &Budget{}
	b.max.Store(max)
	return b
}

// Share returns one holder's view of b: it charges b for every byte its
// streams buffer and is over whenever b is, but counts its own bytes and
// its own refusals (Used, Forced), so a holder can tell a refusal caused
// by the other holders' traffic from one its own state explains.
func (b *Budget) Share() *Budget { return &Budget{pool: b} }

func (b *Budget) charge(n int) {
	b.used.Add(int64(n))
	if b.pool != nil {
		b.pool.charge(n)
	}
}

func (b *Budget) release(n int) { b.charge(-n) }

func (b *Budget) refuse() {
	b.forced.Add(1)
	if b.pool != nil {
		b.pool.refuse()
	}
}

// Over reports whether aggregate buffering exceeds the budget.
func (b *Budget) Over() bool {
	if b.pool != nil {
		return !b.Granting && b.pool.Over()
	}
	max := b.max.Load()
	return max > 0 && b.used.Load() > max
}

// Max returns the current budget bound (<=0 = accounting only).
func (b *Budget) Max() int64 { return b.max.Load() }

// SetMax rebounds the budget — the overload ladder's tier-2 lever:
// shrinking it makes over-budget streams abandon their oldest holes on
// their next insert, and restoring it is immediately effective. Safe
// concurrently with charging streams.
func (b *Budget) SetMax(max int64) { b.max.Store(max) }

// Used returns the bytes currently buffered across all sharing streams.
func (b *Budget) Used() int64 { return b.used.Load() }

// Forced returns how many out-of-order inserts abandoned a hole early
// because the shared budget, not the per-direction bound, was exhausted. An
// in-order segment arriving while the budget is over is not counted: it is
// delivered, not buffered.
func (b *Budget) Forced() uint64 { return b.forced.Load() }

// Stream reassembles one direction of a TCP connection.
//
// Deliver is invoked with in-order payload as it becomes contiguous; Gap is
// invoked with the number of bytes skipped when a hole is abandoned. Both
// callbacks may be nil. The slice Deliver gets is borrowed for the duration
// of the call: in-order data is handed over in place, straight from the
// caller's Segment buffer, so a consumer copies whatever it keeps.
type Stream struct {
	Deliver func(data []byte)
	Gap     func(skipped int)
	// Budget, when set, shares a cross-flow byte budget with other streams;
	// see Budget. Set it before the first Segment call.
	Budget *Budget

	initialized bool
	isn         uint32 // initial sequence number (seq of SYN)
	next        uint64 // next expected relative offset (unwrapped)
	finRel      uint64 // relative offset of FIN, when seen
	finSeen     bool
	closed      bool

	pending  []segment // out-of-order, sorted by rel
	buffered int
}

type segment struct {
	rel  uint64
	data []byte
}

// Init primes the stream from a SYN's sequence number: payload starts at
// ISN+1.
func (s *Stream) Init(isn uint32) {
	s.initialized = true
	s.isn = isn + 1
	s.next = 0
}

// Initialized reports whether the stream has seen its SYN (or been primed
// by a mid-stream first segment).
func (s *Stream) Initialized() bool { return s.initialized }

// Closed reports whether the FIN point has been delivered.
func (s *Stream) Closed() bool { return s.closed }

// rel unwraps a sequence number into a relative stream offset. Offsets
// within ±2GB of the current position resolve to the nearest unwrapping.
func (s *Stream) rel(seq uint32) uint64 {
	base := s.next &^ 0xFFFFFFFF
	r := base | uint64(seq-s.isn)
	// Choose the unwrapping closest to s.next.
	if r+1<<31 < s.next {
		r += 1 << 32
	} else if r > s.next+1<<31 && r >= 1<<32 {
		r -= 1 << 32
	}
	return r
}

// Segment processes one TCP segment. Mid-stream pickup (no SYN seen) is
// supported: the first segment's seq becomes the stream origin.
func (s *Stream) Segment(seq uint32, data []byte, fin bool) {
	if s.closed {
		return
	}
	if !s.initialized {
		s.initialized = true
		s.isn = seq
		s.next = 0
	}
	rel := s.rel(seq)
	if fin {
		finRel := rel + uint64(len(data))
		if !s.finSeen || finRel < s.finRel {
			s.finSeen = true
			s.finRel = finRel
		}
	}
	if len(data) > 0 {
		s.insert(rel, data)
	}
	s.flush()
}

// insert adds a segment, trimming already-delivered overlap. Data that
// starts at next is delivered in place (flush then delivers the pending
// data it made contiguous); only out-of-order data is copied and buffered.
func (s *Stream) insert(rel uint64, data []byte) {
	if rel+uint64(len(data)) <= s.next {
		return // complete retransmission
	}
	if rel < s.next {
		data = data[s.next-rel:]
		rel = s.next
	}
	if rel == s.next {
		s.next += uint64(len(data))
		if s.Deliver != nil {
			s.Deliver(data)
		}
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	i := sort.Search(len(s.pending), func(i int) bool { return s.pending[i].rel >= rel })
	s.pending = append(s.pending, segment{})
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = segment{rel: rel, data: cp}
	s.buffered += len(cp)
	if s.Budget != nil {
		s.Budget.charge(len(cp))
	}
	over := s.buffered > maxBuffered
	globalOver := s.Budget != nil && s.Budget.Over()
	if over || globalOver {
		if globalOver && !over {
			s.Budget.refuse()
		}
		s.abandonHole()
	}
}

// flush delivers contiguous pending data starting at next.
func (s *Stream) flush() {
	for len(s.pending) > 0 {
		seg := s.pending[0]
		if seg.rel > s.next {
			break
		}
		d := seg.data
		if seg.rel < s.next { // partial overlap with delivered data
			skip := s.next - seg.rel
			if skip >= uint64(len(d)) {
				d = nil
			} else {
				d = d[skip:]
			}
		}
		s.pending = s.pending[1:]
		s.buffered -= len(seg.data)
		if s.Budget != nil {
			s.Budget.release(len(seg.data))
		}
		if len(d) > 0 {
			s.next += uint64(len(d))
			if s.Deliver != nil {
				s.Deliver(d)
			}
		}
	}
	if s.finSeen && s.next >= s.finRel && len(s.pending) == 0 {
		s.closed = true
	}
}

// abandonHole skips the gap in front of the oldest buffered segment.
func (s *Stream) abandonHole() {
	if len(s.pending) == 0 {
		return
	}
	skip := s.pending[0].rel - s.next
	if skip > 0 {
		s.next = s.pending[0].rel
		if s.Gap != nil {
			s.Gap(int(skip))
		}
	}
	s.flush()
}

// Flush abandons any outstanding holes and delivers whatever is buffered;
// used at connection teardown / end of trace.
func (s *Stream) Flush() {
	for len(s.pending) > 0 {
		s.abandonHole()
	}
	if s.finSeen && s.next >= s.finRel {
		s.closed = true
	}
}

// PendingBytes returns the number of buffered out-of-order bytes.
func (s *Stream) PendingBytes() int { return s.buffered }

// StreamState is the serializable reassembly state of one direction:
// everything except the Deliver/Gap callbacks and the shared Budget,
// which the restoring engine re-wires itself.
type StreamState struct {
	Initialized bool
	ISN         uint32
	Next        uint64
	FinRel      uint64
	FinSeen     bool
	Closed      bool
	Pending     []SegmentState
}

// SegmentState is one buffered out-of-order segment.
type SegmentState struct {
	Rel  uint64
	Data []byte
}

// SnapshotState captures the stream's state for checkpointing. Buffered
// data is deep-copied so the snapshot stays valid while the stream keeps
// processing.
func (s *Stream) SnapshotState() StreamState {
	st := StreamState{
		Initialized: s.initialized,
		ISN:         s.isn,
		Next:        s.next,
		FinRel:      s.finRel,
		FinSeen:     s.finSeen,
		Closed:      s.closed,
	}
	if len(s.pending) > 0 {
		st.Pending = make([]SegmentState, len(s.pending))
		for i, seg := range s.pending {
			data := make([]byte, len(seg.data))
			copy(data, seg.data)
			st.Pending[i] = SegmentState{Rel: seg.rel, Data: data}
		}
	}
	return st
}

// RestoreState rebuilds the stream from a checkpoint, charging the shared
// Budget (set it before calling) for the re-buffered bytes. Callbacks are
// untouched.
func (s *Stream) RestoreState(st StreamState) {
	s.initialized = st.Initialized
	s.isn = st.ISN
	s.next = st.Next
	s.finRel = st.FinRel
	s.finSeen = st.FinSeen
	s.closed = st.Closed
	s.pending = nil
	s.buffered = 0
	for _, seg := range st.Pending {
		data := make([]byte, len(seg.Data))
		copy(data, seg.Data)
		s.pending = append(s.pending, segment{rel: seg.Rel, data: data})
		s.buffered += len(data)
	}
	if s.Budget != nil && s.buffered > 0 {
		s.Budget.charge(s.buffered)
	}
}

// Discard drops all buffered data without delivering it and credits the
// shared budget; used when a faulted flow is quarantined and its state
// must go away without running callbacks that might re-trip the fault.
func (s *Stream) Discard() {
	if s.Budget != nil {
		s.Budget.release(s.buffered)
	}
	s.pending = nil
	s.buffered = 0
	s.closed = true
}
