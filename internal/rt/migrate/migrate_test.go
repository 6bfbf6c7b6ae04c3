package migrate

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
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
	frames := [][]byte{
		EncodeBegin(Begin{ID: 7, Epoch: 9, Bucket: 13}),
		EncodeState(State{ID: 7, Seq: 1, Blob: []byte("state blob")}),
		EncodeActivate(Activate{ID: 7, Frames: 1, Sum: 42}),
		EncodeAbort(Abort{ID: 7}),
		EncodeAck(Ack{ID: 7, Status: AckOK, Applied: 3}),
	}
	stream := bytes.Join(frames, nil)
	kinds := []byte{FrameBegin, FrameState, FrameActivate, FrameAbort, FrameAck}
	for i, want := range kinds {
		kind, payload, rest, err := ParseFrame(stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != want {
			t.Fatalf("frame %d: kind %d, want %d", i, kind, want)
		}
		switch kind {
		case FrameState:
			m, err := DecodeState(payload)
			if err != nil || string(m.Blob) != "state blob" || m.Seq != 1 {
				t.Fatalf("state decode: %+v %v", m, err)
			}
		case FrameAck:
			m, err := DecodeAck(payload)
			if err != nil || m.Applied != 3 {
				t.Fatalf("ack decode: %+v %v", m, err)
			}
		}
		stream = rest
	}
	if len(stream) != 0 {
		t.Fatalf("%d trailing bytes", len(stream))
	}
}

func TestFrameRejectsDamage(t *testing.T) {
	frame := EncodeState(State{ID: 1, Seq: 1, Blob: bytes.Repeat([]byte("x"), 100)})
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x01
		if _, _, _, err := ParseFrame(bad); err == nil {
			// A flipped length byte may still parse if the claimed frame is
			// a prefix whose CRC happens to match — astronomically unlikely;
			// any success here is a real bug.
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	if _, _, _, err := ParseFrame(frame[:5]); !errors.Is(err, ErrFrameShort) {
		t.Fatalf("truncated: %v", err)
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
	prepared  int
	installed [][]byte
	discards  int
	refuse    bool
	failInst  bool
}

func (s *memSink) Prepare(id uint64, bucket int) error {
	if s.refuse {
		return errors.New("refused")
	}
	s.prepared++
	return nil
}

func (s *memSink) Install(id uint64, blobs [][]byte) (int, error) {
	if s.failInst {
		return 0, errors.New("install failed")
	}
	s.installed = blobs
	return len(blobs), nil
}

func (s *memSink) Discard(id uint64) { s.discards++; s.installed = nil }

// memSource is a source instance's slice: its blobs, and whether the
// source forgot them after the target's ack.
type memSource struct {
	blobs  [][]byte
	forgot bool
}

// handoff drives one session step by step, the way bro.Cluster does:
// Begin, Ship every blob, Activate, Commit. On any failure it aborts and
// the source keeps its slice.
func handoff(src *memSource, tr Transport, opt Options) Result {
	co := NewCoordinator(tr, opt)
	if err := co.Begin(); err != nil {
		co.Abort()
		return co.Result()
	}
	for _, b := range src.blobs {
		if err := co.Ship(b); err != nil {
			co.Abort()
			return co.Result()
		}
	}
	if err := co.Activate(); err != nil {
		co.Abort()
		return co.Result()
	}
	co.Commit(func() error { src.forgot = true; return nil }) //nolint:errcheck // Commit never fails the session
	return co.Result()
}

func blobs(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("blob-%d", i))
	}
	return out
}

func TestHandoffCleanCommit(t *testing.T) {
	sink := &memSink{}
	tr := &memTransport{ep: NewEndpoint(sink)}
	src := &memSource{blobs: blobs(5)}
	res := handoff(src, tr, Options{ID: 1, Bucket: 3})
	if !res.Committed || res.Step != StepCommit || res.Blobs != 5 || res.Flows != 5 {
		t.Fatalf("result %+v", res)
	}
	if !src.forgot {
		t.Fatal("source did not forget after commit")
	}
	if len(sink.installed) != 5 || string(sink.installed[4]) != "blob-4" {
		t.Fatalf("sink got %d blobs", len(sink.installed))
	}
}

func TestHandoffStallRetries(t *testing.T) {
	sink := &memSink{}
	// Stall the first two sends; retries must carry the session through.
	tr := &memTransport{ep: NewEndpoint(sink), stall: map[int]bool{0: true, 1: true}}
	src := &memSource{blobs: blobs(2)}
	res := handoff(src, tr, Options{ID: 2, Bucket: 0})
	if !res.Committed {
		t.Fatalf("stalls not retried: %+v", res)
	}
	if res.Attempts < 5 { // 3 frames + 2 stalls... at least
		t.Fatalf("attempts = %d", res.Attempts)
	}
}

func TestHandoffAbortsOnDeadPeer(t *testing.T) {
	sink := &memSink{}
	tr := &memTransport{ep: NewEndpoint(sink), down: true}
	src := &memSource{blobs: blobs(2)}
	res := handoff(src, tr, Options{ID: 3})
	if res.Committed || src.forgot {
		t.Fatalf("committed against a dead peer: %+v", res)
	}
	if len(sink.installed) != 0 {
		t.Fatal("dead peer installed blobs")
	}
}

func TestHandoffAbortsWhenRefused(t *testing.T) {
	sink := &memSink{refuse: true}
	tr := &memTransport{ep: NewEndpoint(sink)}
	src := &memSource{blobs: blobs(1)}
	res := handoff(src, tr, Options{ID: 4})
	if res.Committed || res.Step != StepBegin || !errors.Is(res.Err, ErrRefused) {
		t.Fatalf("result %+v", res)
	}
}

func TestHandoffInstallFailureAborts(t *testing.T) {
	sink := &memSink{failInst: true}
	ep := NewEndpoint(sink)
	tr := &memTransport{ep: ep}
	src := &memSource{blobs: blobs(3)}
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
type faultAt struct {
	step    Step
	attempt int
	kind    FaultKind
}

func (f faultAt) Fault(step Step, attempt int) FaultKind {
	if step == f.step && attempt == f.attempt {
		return f.kind
	}
	return FaultNone
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
				src := &memSource{blobs: blobs(4)}
				res := handoff(src, tr, Options{
					ID:       99,
					Injector: faultAt{step: step, attempt: 0, kind: kind},
				})
				// Single transient faults (stall/corrupt) must be absorbed
				// by retry; kills abort (except at commit, which resolves
				// forward because the target already acked).
				wantCommit := kind != FaultKill || step == StepCommit
				if res.Committed != wantCommit {
					t.Fatalf("committed=%v want %v (%+v)", res.Committed, wantCommit, res)
				}
				if res.Committed {
					if !src.forgot || len(sink.installed) != 4 {
						t.Fatalf("committed but state inconsistent: forgot=%v installed=%d",
							src.forgot, len(sink.installed))
					}
				} else {
					// Aborted: the cluster's timeout path clears the target.
					ep.AbortSession(99)
					if src.forgot {
						t.Fatal("aborted but source forgot")
					}
					if len(sink.installed) != 0 {
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
	always := InjectorFunc(func(step Step, attempt int) FaultKind {
		if step == StepTransfer {
			return FaultStall
		}
		return FaultNone
	})
	sink := &memSink{}
	ep := NewEndpoint(sink)
	tr := &memTransport{ep: ep}
	src := &memSource{blobs: blobs(2)}
	res := handoff(src, tr, Options{ID: 6, MaxAttempts: 3, Injector: always})
	if res.Committed || !errors.Is(res.Err, ErrRetries) {
		t.Fatalf("result %+v", res)
	}
	ep.AbortSession(6)
	if len(sink.installed) != 0 {
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
		inj := InjectorFunc(func(step Step, attempt int) FaultKind {
			return sched[[2]int{int(step), attempt}]
		})
		sink := &memSink{}
		ep := NewEndpoint(sink)
		tr := &memTransport{ep: ep}
		src := &memSource{blobs: blobs(1 + rng.Intn(5))}
		res := handoff(src, tr, Options{ID: uint64(trial + 1), Injector: inj})
		if res.Committed {
			if !src.forgot || len(sink.installed) != len(src.blobs) {
				t.Fatalf("trial %d: committed, forgot=%v installed=%d/%d",
					trial, src.forgot, len(sink.installed), len(src.blobs))
			}
		} else {
			ep.AbortSession(uint64(trial + 1))
			if src.forgot || len(sink.installed) != 0 {
				t.Fatalf("trial %d: aborted, forgot=%v installed=%d",
					trial, src.forgot, len(sink.installed))
			}
		}
	}
}

func TestLedgerIdentity(t *testing.T) {
	l := NewLedger()
	l.Commit(0, 1, 10)
	l.Commit(1, 0, 4)
	l.Abort(0, 1)
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
	res := handoff(&memSource{blobs: blobs(2)}, tr, Options{ID: 7, Bucket: 0})
	if !res.Committed {
		t.Fatalf("result %+v", res)
	}
	// Installed-but-unreleased sessions refuse new Begins (an uncommitted
	// install could be double-owned). After the routing flip the cluster
	// releases, and the endpoint accepts the next handoff.
	co := NewCoordinator(tr, Options{ID: 8, Bucket: 1})
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
	res = handoff(&memSource{blobs: blobs(1)}, tr, Options{ID: 8, Bucket: 1})
	if !res.Committed {
		t.Fatalf("post-release handoff: %+v", res)
	}
}
