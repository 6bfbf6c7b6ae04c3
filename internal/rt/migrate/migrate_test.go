package migrate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hilti/internal/rt/wal"
)

// --- table ---------------------------------------------------------------------

func TestTableBasics(t *testing.T) {
	tb, err := NewTable(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Buckets() != 64 {
		t.Fatalf("buckets = %d", tb.Buckets())
	}
	counts := tb.Counts(3)
	for i, c := range counts {
		if c < 21 || c > 22 {
			t.Fatalf("instance %d owns %d buckets, want 21..22", i, c)
		}
	}
	// Every vid maps to a valid bucket and ownership is stable.
	for vid := uint64(0); vid < 10000; vid += 97 {
		b := tb.BucketOf(vid)
		if b < 0 || b >= 64 {
			t.Fatalf("vid %d -> bucket %d", vid, b)
		}
		if tb.Owner(vid) != tb.OwnerOf(b) {
			t.Fatalf("owner mismatch for vid %d", vid)
		}
	}
	e0 := tb.Epoch()
	tb.Flip(5, 2)
	if tb.Epoch() != e0+1 || tb.OwnerOf(5) != 2 {
		t.Fatalf("flip: epoch %d owner %d", tb.Epoch(), tb.OwnerOf(5))
	}
}

func TestTableRejectsBadShapes(t *testing.T) {
	for _, tc := range []struct{ b, n int }{{0, 1}, {3, 1}, {8, 0}, {4, 5}} {
		if _, err := NewTable(tc.b, tc.n); err == nil {
			t.Fatalf("NewTable(%d, %d) accepted", tc.b, tc.n)
		}
	}
	if tb, err := NewTable(1, 1); err != nil || tb.BucketOf(123456789) != 0 {
		t.Fatalf("single-bucket table broken: %v", err)
	}
}

func TestTableRebalance(t *testing.T) {
	tb, _ := NewTable(64, 1)
	flips := tb.Rebalance(4) // scale out 1 -> 4
	for _, f := range flips {
		tb.Flip(f[0], f[1])
	}
	for i, c := range tb.Counts(4) {
		if c != 16 {
			t.Fatalf("after scale-out instance %d owns %d", i, c)
		}
	}
	// Scale in 4 -> 2: buckets owned by retired instances 2,3 must move.
	flips = tb.Rebalance(2)
	for _, f := range flips {
		tb.Flip(f[0], f[1])
	}
	counts := tb.Counts(2)
	if counts[0]+counts[1] != 64 {
		t.Fatalf("retired instances still own buckets: %v", counts)
	}
}

// --- frames --------------------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	activateFrame, err := encodeActivate(activate{id: 7, slice: []byte("state blob")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		frame []byte
		kind  byte
	}{
		{encodeID(frameBegin, 7), frameBegin},
		{activateFrame, frameActivate},
		{encodeID(frameAbort, 7), frameAbort},
		{encodeAck(ack{id: 7, status: ackOK, applied: 3}), frameAck},
	} {
		kind, payload, err := parseFrame(tc.frame)
		if err != nil {
			t.Fatalf("frame %d: %v", tc.kind, err)
		}
		if kind != tc.kind {
			t.Fatalf("kind %d, want %d", kind, tc.kind)
		}
		switch kind {
		case frameBegin, frameAbort:
			if id, err := decodeID(payload); err != nil || id != 7 {
				t.Fatalf("id decode: %d %v", id, err)
			}
		case frameActivate:
			m, err := decodeActivate(payload)
			if err != nil || string(m.slice) != "state blob" || m.id != 7 {
				t.Fatalf("activate decode: %+v %v", m, err)
			}
		case frameAck:
			m, err := decodeAck(payload)
			if err != nil || m.applied != 3 {
				t.Fatalf("ack decode: %+v %v", m, err)
			}
		}
	}
}

func TestFrameRejectsDamage(t *testing.T) {
	frame, err := encodeActivate(activate{id: 1, slice: bytes.Repeat([]byte("x"), 100)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x01
		if _, _, err := parseFrame(bad); err == nil {
			// A flipped length byte may still parse if the claimed frame is
			// a prefix whose CRC happens to match — astronomically unlikely;
			// any success here is a real bug.
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	for n := 0; n < len(frame); n++ {
		if _, _, err := parseFrame(frame[:n]); err == nil {
			t.Fatalf("frame truncated to %d bytes accepted", n)
		}
	}
}

// malformedFrames are damaged framings of an intact Begin: each must be
// rejected by parseFrame and NAKed by the endpoint.
func malformedFrames() []namedFrame {
	const hdr = 6 // the segment header, "HWAL" and a u16 version; the record follows
	begin := encodeID(frameBegin, 1)
	badMagic := bytes.Clone(begin)
	badMagic[0] ^= 0xFF
	oversized := bytes.Clone(begin)
	binary.BigEndian.PutUint32(oversized[hdr:], wal.MaxRecord+1) // the record's length
	return []namedFrame{
		{"trailing-bytes", append(bytes.Clone(begin), 0, 1, 2)},
		{"second-record", append(bytes.Clone(begin), begin[hdr:]...)},
		{"bad-magic", badMagic},
		{"oversized", oversized},
		{"no-record", begin[:hdr]},
	}
}

type namedFrame struct {
	name  string
	frame []byte
}

func TestEndpointNaksMalformedFrames(t *testing.T) {
	for _, m := range malformedFrames() {
		name, frame := m.name, m.frame
		if _, _, err := parseFrame(frame); err == nil {
			t.Errorf("%s: parseFrame accepted it", name)
		}
		ep := NewEndpoint(&memSink{})
		kind, payload, err := parseFrame(ep.Handle(frame))
		if err != nil || kind != frameAck {
			t.Fatalf("%s: response unparseable: %v", name, err)
		}
		if a, err := decodeAck(payload); err != nil || a.status != ackNak {
			t.Errorf("%s: ack %+v %v, want a NAK", name, a, err)
		}
		if id, _ := ep.Session(); id != 0 {
			t.Errorf("%s: opened session %d", name, id)
		}
	}
}

// --- protocol ------------------------------------------------------------------

// memTransport delivers frames directly to an endpoint, with optional
// stall/down scheduling by send index.
type memTransport struct {
	ep    *Endpoint
	sends int
	stall map[int]bool
	down  bool
}

func (m *memTransport) Send(frame []byte) ([]byte, error) {
	idx := m.sends
	m.sends++
	if m.down {
		return nil, ErrPeerDown
	}
	if m.stall[idx] {
		return nil, ErrStall
	}
	return m.ep.Handle(frame), nil
}

// memSink records installs/discards.
type memSink struct {
	installed []byte
	installs  int
	discards  int
	failInst  bool
}

func (s *memSink) Install(id uint64, slice []byte) (int, error) {
	if s.failInst {
		return 0, errors.New("install failed")
	}
	s.installs++
	s.installed = bytes.Clone(slice)
	return len(slice), nil
}

func (s *memSink) Discard(id uint64) { s.discards++; s.installed = nil }

// memSource is a source instance's slice, and whether the source forgot it
// after the target's ack.
type memSource struct {
	slice  []byte
	forgot bool
}

// handoff drives one session step by step, the way bro.Cluster does:
// Begin, Activate with the slice, Commit. On any failure it aborts and the
// source keeps its slice.
func handoff(src *memSource, tr Transport, opt Options) Result {
	co := NewCoordinator(tr, opt)
	if err := co.Begin(); err != nil {
		co.Abort()
		return co.Result()
	}
	if err := co.Activate(src.slice); err != nil {
		co.Abort()
		return co.Result()
	}
	co.Commit(func() error { src.forgot = true; return nil }) //nolint:errcheck // Commit never fails the session
	return co.Result()
}

// slice is an n-byte stand-in for an encoded slice; memSink reports its
// length as the installed flow count.
func slice(n int) []byte { return bytes.Repeat([]byte{'s'}, n) }

func TestHandoffCleanCommit(t *testing.T) {
	sink := &memSink{}
	tr := &memTransport{ep: NewEndpoint(sink)}
	src := &memSource{slice: slice(5)}
	res := handoff(src, tr, Options{ID: 1})
	if !res.Committed || res.Step != StepCommit || res.Flows != 5 {
		t.Fatalf("result %+v", res)
	}
	if !src.forgot {
		t.Fatal("source did not forget after commit")
	}
	if !bytes.Equal(sink.installed, src.slice) {
		t.Fatalf("sink got %q", sink.installed)
	}
}

// recTransport records the kind of every request frame it delivers and
// can corrupt chosen sends in transit.
type recTransport struct {
	ep      *Endpoint
	kinds   []byte
	corrupt map[int]bool
}

func (r *recTransport) Send(frame []byte) ([]byte, error) {
	if kind, _, err := parseFrame(frame); err == nil {
		r.kinds = append(r.kinds, kind)
	}
	if r.corrupt[len(r.kinds)-1] {
		frame = bytes.Clone(frame)
		frame[len(frame)-1] ^= 0x80
	}
	return r.ep.Handle(frame), nil
}

// TestHandoffSendsBeginThenActivate: a clean handoff is two request
// frames, the slice riding in the Activate; a corrupted Activate is NAKed
// and sent again, and the sink installs once.
func TestHandoffSendsBeginThenActivate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt map[int]bool
		want    []byte
	}{
		{"clean", nil, []byte{frameBegin, frameActivate}},
		{"corrupt-activate", map[int]bool{1: true}, []byte{frameBegin, frameActivate, frameActivate}},
	} {
		sink := &memSink{}
		tr := &recTransport{ep: NewEndpoint(sink), corrupt: tc.corrupt}
		src := &memSource{slice: slice(3)}
		res := handoff(src, tr, Options{ID: 1})
		if !res.Committed || res.Attempts != len(tc.want) {
			t.Fatalf("%s: result %+v", tc.name, res)
		}
		if !bytes.Equal(tr.kinds, tc.want) {
			t.Errorf("%s: request frames %v, want %v", tc.name, tr.kinds, tc.want)
		}
		if sink.installs != 1 || !bytes.Equal(sink.installed, src.slice) {
			t.Errorf("%s: %d installs of %q", tc.name, sink.installs, sink.installed)
		}
	}
}

func TestHandoffStallRetries(t *testing.T) {
	sink := &memSink{}
	// Stall the first two sends; retries must carry the session through.
	tr := &memTransport{ep: NewEndpoint(sink), stall: map[int]bool{0: true, 1: true}}
	src := &memSource{slice: slice(2)}
	res := handoff(src, tr, Options{ID: 2})
	if !res.Committed {
		t.Fatalf("stalls not retried: %+v", res)
	}
	if res.Attempts != 4 { // 2 frames + 2 stalls
		t.Fatalf("attempts = %d", res.Attempts)
	}
}

func TestHandoffAbortsOnDeadPeer(t *testing.T) {
	sink := &memSink{}
	tr := &memTransport{ep: NewEndpoint(sink), down: true}
	src := &memSource{slice: slice(2)}
	res := handoff(src, tr, Options{ID: 3})
	if res.Committed || src.forgot {
		t.Fatalf("committed against a dead peer: %+v", res)
	}
	if sink.installed != nil {
		t.Fatal("dead peer installed the slice")
	}
}

func TestHandoffAbortsWhenRefused(t *testing.T) {
	sink := &memSink{}
	ep := NewEndpoint(sink)
	tr := &memTransport{ep: ep}
	if res := handoff(&memSource{slice: slice(1)}, tr, Options{ID: 4}); !res.Committed {
		t.Fatalf("first handoff: %+v", res)
	}
	// Session 4 is installed and awaits its flip: a second Begin is refused.
	src := &memSource{slice: slice(1)}
	res := handoff(src, tr, Options{ID: 5})
	if res.Committed || res.Step != StepBegin || !errors.Is(res.Err, ErrRefused) || src.forgot {
		t.Fatalf("result %+v", res)
	}
}

func TestHandoffInstallFailureAborts(t *testing.T) {
	sink := &memSink{failInst: true}
	ep := NewEndpoint(sink)
	tr := &memTransport{ep: ep}
	src := &memSource{slice: slice(3)}
	res := handoff(src, tr, Options{ID: 5})
	if res.Committed || src.forgot {
		t.Fatalf("committed through failed install: %+v", res)
	}
	ep.AbortSession(5)
	if id, _ := ep.Session(); id != 0 {
		t.Fatal("session survived abort")
	}
}

// faultAt injects one fault kind at one step/attempt.
func faultAt(at Step, attempt int, kind FaultKind) Injector {
	return func(step Step, a int) FaultKind {
		if step == at && a == attempt {
			return kind
		}
		return FaultNone
	}
}

// TestHandoffFaultMatrix exercises every (step, fault-kind) cut point and
// asserts the session resolves to exactly one owner.
func TestHandoffFaultMatrix(t *testing.T) {
	for step := StepBegin; step < NumSteps; step++ {
		for _, kind := range []FaultKind{FaultKill, FaultStall, FaultCorrupt} {
			t.Run(fmt.Sprintf("%s_%s", step, kind), func(t *testing.T) {
				sink := &memSink{}
				ep := NewEndpoint(sink)
				tr := &memTransport{ep: ep}
				src := &memSource{slice: slice(4)}
				res := handoff(src, tr, Options{ID: 99, Injector: faultAt(step, 0, kind)})
				// Single transient faults (stall/corrupt) must be absorbed
				// by retry; kills abort (except at commit, which resolves
				// forward because the target already acked).
				wantCommit := kind != FaultKill || step == StepCommit
				if res.Committed != wantCommit {
					t.Fatalf("committed=%v want %v (%+v)", res.Committed, wantCommit, res)
				}
				if res.Committed {
					if !src.forgot || !bytes.Equal(sink.installed, src.slice) {
						t.Fatalf("committed but state inconsistent: forgot=%v installed=%q",
							src.forgot, sink.installed)
					}
				} else {
					// Aborted: the cluster's timeout path clears the target.
					ep.AbortSession(99)
					if src.forgot {
						t.Fatal("aborted but source forgot")
					}
					if sink.installed != nil {
						t.Fatal("aborted but target kept an install")
					}
					if id, _ := ep.Session(); id != 0 {
						t.Fatal("aborted but session open")
					}
				}
			})
		}
	}
}

// TestHandoffExhaustedRetriesAbort drives persistent stalls through the
// whole retry budget.
func TestHandoffExhaustedRetriesAbort(t *testing.T) {
	always := func(step Step, attempt int) FaultKind {
		if step == StepActivate {
			return FaultStall
		}
		return FaultNone
	}
	sink := &memSink{}
	ep := NewEndpoint(sink)
	tr := &memTransport{ep: ep}
	src := &memSource{slice: slice(2)}
	res := handoff(src, tr, Options{ID: 6, Injector: always})
	if res.Committed || !errors.Is(res.Err, ErrRetries) {
		t.Fatalf("result %+v", res)
	}
	ep.AbortSession(6)
	if sink.installed != nil {
		t.Fatal("retry exhaustion leaked an install")
	}
}

// TestHandoffRandomChaos runs seeded random fault schedules; every
// session must end committed-with-consistent-state or aborted-with-
// source-retained — never in between.
func TestHandoffRandomChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	for trial := 0; trial < 500; trial++ {
		sched := map[[2]int]FaultKind{}
		for n := rng.Intn(4); n > 0; n-- {
			step := rng.Intn(int(NumSteps))
			attempt := rng.Intn(3)
			kind := FaultKind(1 + rng.Intn(3))
			sched[[2]int{step, attempt}] = kind
		}
		inj := func(step Step, attempt int) FaultKind {
			return sched[[2]int{int(step), attempt}]
		}
		sink := &memSink{}
		ep := NewEndpoint(sink)
		tr := &memTransport{ep: ep}
		src := &memSource{slice: slice(1 + rng.Intn(5))}
		res := handoff(src, tr, Options{ID: uint64(trial + 1), Injector: inj})
		if res.Committed {
			if !src.forgot || !bytes.Equal(sink.installed, src.slice) || sink.installs != 1 {
				t.Fatalf("trial %d: committed, forgot=%v installs=%d of %q",
					trial, src.forgot, sink.installs, sink.installed)
			}
		} else {
			ep.AbortSession(uint64(trial + 1))
			if src.forgot || sink.installed != nil {
				t.Fatalf("trial %d: aborted, forgot=%v installed=%q",
					trial, src.forgot, sink.installed)
			}
		}
	}
}

func TestLedgerIdentity(t *testing.T) {
	l := NewLedger()
	l.Commit(0, 1, 10)
	l.Commit(1, 0, 4)
	l.Abort(0)
	// Instance 0: opened 20, closed 6, migrated out 10, in 4 -> live 8.
	if err := l.CheckOwnership(0, 20, 6, 8); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckOwnership(0, 20, 6, 9); err == nil {
		t.Fatal("broken ledger accepted")
	}
	e := l.Instance(0)
	if e.Out != 10 || e.In != 4 || e.Commits != 1 || e.Aborts != 1 {
		t.Fatalf("entry %+v", e)
	}
}

func TestReleaseSessionFreesEndpoint(t *testing.T) {
	sink := &memSink{}
	ep := NewEndpoint(sink)
	tr := &memTransport{ep: ep}
	res := handoff(&memSource{slice: slice(2)}, tr, Options{ID: 7})
	if !res.Committed {
		t.Fatalf("result %+v", res)
	}
	// Installed-but-unreleased sessions refuse new Begins (an uncommitted
	// install could be double-owned). After the routing flip the cluster
	// releases, and the endpoint accepts the next handoff.
	co := NewCoordinator(tr, Options{ID: 8})
	if err := co.Begin(); err == nil {
		t.Fatal("Begin accepted while an installed session is unresolved")
	}
	ep.ReleaseSession(999) // wrong id: no-op
	if id, installed := ep.Session(); id != 7 || !installed {
		t.Fatalf("session = (%d, %v) after wrong-id release", id, installed)
	}
	ep.ReleaseSession(7)
	if id, _ := ep.Session(); id != 0 {
		t.Fatalf("session %d still open after release", id)
	}
	if sink.discards != 0 {
		t.Fatal("release must not discard installed flows")
	}
	res = handoff(&memSource{slice: slice(1)}, tr, Options{ID: 8})
	if !res.Committed {
		t.Fatalf("post-release handoff: %+v", res)
	}
}
