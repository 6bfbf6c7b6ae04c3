package migrate

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// Step identifies where in a handoff session a fault lands. The chaos
// harness exercises every (Step, FaultKind) pair.
type Step int

// Protocol steps, in session order.
const (
	StepBegin    Step = iota // open the session on the target
	StepTransfer             // ship the slice's one State frame
	StepActivate             // checksum-verified install on the target
	StepCommit               // target acked: source forgets, caller flips routing
	NumSteps
)

func (s Step) String() string {
	switch s {
	case StepBegin:
		return "begin"
	case StepTransfer:
		return "transfer"
	case StepActivate:
		return "activate"
	case StepCommit:
		return "commit"
	}
	return fmt.Sprintf("step(%d)", int(s))
}

// FaultKind is what the injector does to a protocol step.
type FaultKind int

// Injected fault kinds.
const (
	FaultNone    FaultKind = iota
	FaultKill              // the handoff session dies at this step
	FaultStall             // the frame vanishes in transit (timeout)
	FaultCorrupt           // the frame arrives with a flipped byte
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultKill:
		return "kill"
	case FaultStall:
		return "stall"
	case FaultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Injector decides the fault for a given step and send attempt (attempt
// counts from 0 per frame). It is the MigrateFaultPort analog of the
// engine's injection ports: deterministic, consulted at every cut point.
type Injector interface {
	Fault(step Step, attempt int) FaultKind
}

// InjectorFunc adapts a function to Injector.
type InjectorFunc func(step Step, attempt int) FaultKind

// Fault implements Injector.
func (f InjectorFunc) Fault(step Step, attempt int) FaultKind { return f(step, attempt) }

// Transport delivers one request frame to the peer endpoint and returns
// its response frame. ErrStall models a delivery timeout, ErrPeerDown a
// dead peer; both leave the peer's state unknown to the coordinator.
type Transport interface {
	Send(frame []byte) ([]byte, error)
}

// Transport and protocol errors.
var (
	ErrStall    = errors.New("migrate: transport stalled")
	ErrPeerDown = errors.New("migrate: peer down")
	ErrKilled   = errors.New("migrate: handoff killed by fault injection")
	ErrRetries  = errors.New("migrate: retry budget exhausted")
	ErrRefused  = errors.New("migrate: target refused session")
)

// Sink is the target instance's apply surface. Install is all-or-nothing:
// on error nothing of the session remains live. Discard undoes a
// successful Install (safe because routing has not flipped, so the
// installed flows never received a packet) or drops a buffered session.
type Sink interface {
	Prepare(id uint64, bucket int) error
	Install(id uint64, blobs [][]byte) (flows int, err error)
	Discard(id uint64)
}

// Endpoint is the target side of a handoff session. It buffers State
// frames, verifies sequence and checksum, and installs via the Sink only
// on a fully verified Activate. At most one session is open at a time;
// a Begin with a new id supersedes an uninstalled one (the coordinator
// that opened it has aborted or died). Handle is not goroutine-safe: like
// the routing table it belongs to the cluster's control goroutine.
type Endpoint struct {
	sink Sink
	sess *epSession
}

type epSession struct {
	id        uint64
	bucket    uint32
	blobs     [][]byte
	sum       uint32
	lastSeq   uint32
	installed bool
	flows     int
}

// NewEndpoint wraps a sink.
func NewEndpoint(sink Sink) *Endpoint { return &Endpoint{sink: sink} }

// Handle processes one request frame and always returns an Ack frame.
// Damaged frames get AckNak (retransmit); frames that cannot belong to a
// live session get AckRefused (abort).
func (ep *Endpoint) Handle(frame []byte) []byte {
	kind, payload, _, err := ParseFrame(frame)
	if err != nil {
		return EncodeAck(Ack{Status: AckNak})
	}
	switch kind {
	case FrameBegin:
		m, err := DecodeBegin(payload)
		if err != nil {
			return EncodeAck(Ack{Status: AckNak})
		}
		return ep.handleBegin(m)
	case FrameState:
		m, err := DecodeState(payload)
		if err != nil {
			return EncodeAck(Ack{Status: AckNak})
		}
		return ep.handleState(m)
	case FrameActivate:
		m, err := DecodeActivate(payload)
		if err != nil {
			return EncodeAck(Ack{Status: AckNak})
		}
		return ep.handleActivate(m)
	case FrameAbort:
		m, err := DecodeAbort(payload)
		if err != nil {
			return EncodeAck(Ack{Status: AckNak})
		}
		ep.AbortSession(m.ID)
		return EncodeAck(Ack{ID: m.ID, Status: AckOK})
	}
	return EncodeAck(Ack{Status: AckNak})
}

func (ep *Endpoint) handleBegin(m Begin) []byte {
	if s := ep.sess; s != nil {
		if s.id == m.ID {
			// Retransmitted Begin (our ack was lost): idempotent.
			return EncodeAck(Ack{ID: m.ID, Status: AckOK})
		}
		if s.installed {
			// An installed session awaits its routing flip; starting a
			// second handoff now could double-own flows. Refuse.
			return EncodeAck(Ack{ID: m.ID, Status: AckRefused})
		}
		// The coordinator of the old session is gone; drop its buffer.
		ep.sess = nil
	}
	if err := ep.sink.Prepare(m.ID, int(m.Bucket)); err != nil {
		return EncodeAck(Ack{ID: m.ID, Status: AckRefused})
	}
	ep.sess = &epSession{id: m.ID, bucket: m.Bucket}
	return EncodeAck(Ack{ID: m.ID, Status: AckOK})
}

func (ep *Endpoint) handleState(m State) []byte {
	s := ep.sess
	if s == nil || s.id != m.ID || s.installed {
		return EncodeAck(Ack{ID: m.ID, Status: AckRefused})
	}
	switch {
	case m.Seq == s.lastSeq+1:
		blob := append([]byte(nil), m.Blob...)
		s.blobs = append(s.blobs, blob)
		s.sum = crc32.Update(s.sum, castagnoli, blob)
		s.lastSeq = m.Seq
	case m.Seq <= s.lastSeq:
		// Duplicate after a lost ack: already buffered.
	default:
		return EncodeAck(Ack{ID: m.ID, Status: AckNak, Applied: s.lastSeq})
	}
	return EncodeAck(Ack{ID: m.ID, Status: AckOK, Applied: s.lastSeq})
}

func (ep *Endpoint) handleActivate(m Activate) []byte {
	s := ep.sess
	if s == nil || s.id != m.ID {
		return EncodeAck(Ack{ID: m.ID, Status: AckRefused})
	}
	if s.installed {
		// Retransmitted Activate (our ack was lost): idempotent.
		return EncodeAck(Ack{ID: m.ID, Status: AckOK, Applied: uint32(s.flows)})
	}
	if m.Frames != s.lastSeq || m.Sum != s.sum {
		return EncodeAck(Ack{ID: m.ID, Status: AckRefused})
	}
	n, err := ep.sink.Install(s.id, s.blobs)
	if err != nil {
		return EncodeAck(Ack{ID: m.ID, Status: AckRefused})
	}
	s.installed = true
	s.flows = n
	s.blobs = nil
	return EncodeAck(Ack{ID: m.ID, Status: AckOK, Applied: uint32(n)})
}

// ReleaseSession resolves session id after the routing flip: the
// installed flows are owned now, and the endpoint is free for the next
// handoff. Without it a committed session would keep refusing Begins
// forever (the refusal exists to protect *uncommitted* installs). It is
// idempotent and a no-op for other ids.
func (ep *Endpoint) ReleaseSession(id uint64) {
	if ep.sess != nil && ep.sess.id == id {
		ep.sess = nil
	}
}

// AbortSession rolls back session id: a buffered session is dropped, an
// installed one discarded through the sink. It is idempotent and also the
// target's handoff-timeout path — a target that loses its coordinator
// calls it directly, which is always safe because routing flips only
// after the coordinator saw the install ack and committed.
func (ep *Endpoint) AbortSession(id uint64) {
	s := ep.sess
	if s == nil || s.id != id {
		return
	}
	if s.installed {
		ep.sink.Discard(id)
	}
	ep.sess = nil
}

// Session reports the open session id and whether it is installed
// (0, false when idle). Exposed for invariant checks in tests.
func (ep *Endpoint) Session() (id uint64, installed bool) {
	if ep.sess == nil {
		return 0, false
	}
	return ep.sess.id, ep.sess.installed
}

// Options configures one handoff session.
type Options struct {
	ID          uint64
	Bucket      int
	Epoch       uint64
	MaxAttempts int // sends per frame before the session aborts (default 4)
	Injector    Injector
}

// Result summarizes a completed Coordinator session.
type Result struct {
	Committed bool
	Step      Step // step reached: StepCommit on success, else the failed step
	Blobs     int  // state blobs shipped
	Flows     int  // flows the target reported installed
	Attempts  int  // total frame sends, including retries
	Err       error
}

// Coordinator drives the source side of one handoff session. The caller
// sequences it: Begin, Ship for each state blob, Activate, Commit —
// quiescing and snapshotting between calls as its pipeline requires (the
// cluster ships one slice, extracted at its quiesce, between Begin and
// Activate). Any failed call aborts the
// session; afterwards only Abort/Result are useful.
type Coordinator struct {
	tr   Transport
	opt  Options
	res  Result
	seq  uint32
	sum  uint32
	done bool
}

// NewCoordinator starts a session (no frames are sent until Begin).
func NewCoordinator(tr Transport, opt Options) *Coordinator {
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 4
	}
	return &Coordinator{tr: tr, opt: opt}
}

// send delivers one frame with bounded retries, consulting the injector
// at each attempt. It returns the endpoint's Ack or the terminal error.
func (co *Coordinator) send(step Step, frame []byte) (Ack, error) {
	var last error = ErrRetries
	for attempt := 0; attempt < co.opt.MaxAttempts; attempt++ {
		wire := frame
		if inj := co.opt.Injector; inj != nil {
			switch inj.Fault(step, attempt) {
			case FaultKill:
				// The migration worker dies mid-session. No more frames;
				// the cluster resolves via Endpoint.AbortSession (the
				// target's handoff timeout). The source retained its
				// state, so nothing is lost.
				return Ack{}, ErrKilled
			case FaultStall:
				// Frame lost in transit; retry after "timeout".
				co.res.Attempts++
				last = ErrStall
				continue
			case FaultCorrupt:
				wire = append([]byte(nil), frame...)
				wire[len(wire)-1] ^= 0x80 // damage survives length checks, trips the CRC
			}
		}
		co.res.Attempts++
		resp, err := co.tr.Send(wire)
		if err != nil {
			if errors.Is(err, ErrStall) {
				last = err
				continue
			}
			return Ack{}, err
		}
		kind, payload, _, err := ParseFrame(resp)
		if err != nil || kind != FrameAck {
			last = fmt.Errorf("migrate: bad response frame: %w", err)
			continue
		}
		ack, err := DecodeAck(payload)
		if err != nil {
			last = err
			continue
		}
		switch ack.Status {
		case AckOK:
			return ack, nil
		case AckNak:
			last = fmt.Errorf("migrate: %s frame NAKed (attempt %d)", step, attempt)
			continue
		default:
			return ack, fmt.Errorf("%w at %s", ErrRefused, step)
		}
	}
	return Ack{}, fmt.Errorf("%w at %s: %v", ErrRetries, step, last)
}

func (co *Coordinator) fail(step Step, err error) error {
	co.res.Committed = false
	co.res.Step = step
	co.res.Err = err
	co.done = true
	return err
}

// Begin opens the session on the target.
func (co *Coordinator) Begin() error {
	if co.done {
		return co.res.Err
	}
	frame := EncodeBegin(Begin{ID: co.opt.ID, Epoch: co.opt.Epoch, Bucket: uint32(co.opt.Bucket)})
	if _, err := co.send(StepBegin, frame); err != nil {
		return co.fail(StepBegin, err)
	}
	co.res.Step = StepBegin
	return nil
}

// Ship streams one state blob to the target.
func (co *Coordinator) Ship(blob []byte) error {
	if co.done {
		return co.res.Err
	}
	co.seq++
	co.sum = crc32.Update(co.sum, castagnoli, blob)
	frame := EncodeState(State{ID: co.opt.ID, Seq: co.seq, Blob: blob})
	if _, err := co.send(StepTransfer, frame); err != nil {
		return co.fail(StepTransfer, err)
	}
	co.res.Blobs++
	co.res.Step = StepTransfer
	return nil
}

// Activate asks the target to verify and install the shipped session.
// After a nil return the target owns a live copy and the caller must
// either Commit (flip routing, forget on the source) or Abort.
func (co *Coordinator) Activate() error {
	if co.done {
		return co.res.Err
	}
	frame := EncodeActivate(Activate{ID: co.opt.ID, Frames: co.seq, Sum: co.sum})
	ack, err := co.send(StepActivate, frame)
	if err != nil {
		return co.fail(StepActivate, err)
	}
	co.res.Flows = int(ack.Applied)
	co.res.Step = StepActivate
	return nil
}

// Commit finishes the session: forget runs the source-side release of the
// migrated slice. A kill injected at StepCommit models the source dying
// after the target's ack — the session still resolves forward (the target
// owns the slice; the dead source's retained copy is moot), so Commit
// reports success and the caller flips routing regardless.
func (co *Coordinator) Commit(forget func() error) error {
	if co.done {
		return co.res.Err
	}
	if inj := co.opt.Injector; inj != nil && inj.Fault(StepCommit, 0) == FaultKill {
		co.res.Err = ErrKilled // noted, not fatal: resolve forward
	}
	if err := forget(); err != nil {
		// The target already owns the slice; surface the source-side
		// cleanup failure but do not un-commit.
		co.res.Err = err
	}
	co.res.Committed = true
	co.res.Step = StepCommit
	co.done = true
	return nil
}

// Abort sends a best-effort Abort frame for the session. The cluster
// must still call Endpoint.AbortSession (or let the target's handoff
// timeout fire) — the frame itself may be lost.
func (co *Coordinator) Abort() {
	if co.res.Committed {
		return
	}
	co.done = true
	if co.res.Err == nil {
		co.res.Err = errors.New("migrate: aborted by coordinator")
	}
	frame := EncodeAbort(Abort{ID: co.opt.ID})
	co.res.Attempts++
	co.tr.Send(frame) //nolint:errcheck // best effort by design
}

// Result returns the session summary.
func (co *Coordinator) Result() Result { return co.res }

// Ledger is the exact flow-ownership ledger: per instance, flows opened
// locally plus migrated in must equal flows closed locally plus migrated
// out plus currently live. Commit/Abort are recorded by the cluster
// control goroutine; reads may come from test goroutines, hence the lock.
type Ledger struct {
	mu   sync.Mutex
	inst map[int]*LedgerEntry
}

// LedgerEntry is one instance's migration accounting.
type LedgerEntry struct {
	In      uint64 // flows migrated in (committed sessions only)
	Out     uint64 // flows migrated out
	Commits uint64
	Aborts  uint64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{inst: map[int]*LedgerEntry{}} }

func (l *Ledger) entry(i int) *LedgerEntry {
	e := l.inst[i]
	if e == nil {
		e = &LedgerEntry{}
		l.inst[i] = e
	}
	return e
}

// Commit records a committed migration of flows from -> to.
func (l *Ledger) Commit(from, to, flows int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fe, te := l.entry(from), l.entry(to)
	fe.Out += uint64(flows)
	fe.Commits++
	te.In += uint64(flows)
}

// Abort records an aborted migration attempt from -> to.
func (l *Ledger) Abort(from, to int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entry(from).Aborts++
	_ = to
}

// Instance returns instance i's entry.
func (l *Ledger) Instance(i int) LedgerEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return *l.entry(i)
}

// CheckOwnership verifies the ownership identity for instance i against
// its engine-side counters: opened + in == closed + out + live.
func (l *Ledger) CheckOwnership(i int, opened, closed, live uint64) error {
	e := l.Instance(i)
	lhs := opened + e.In
	rhs := closed + e.Out + live
	if lhs != rhs {
		return fmt.Errorf("migrate: ownership ledger broken on instance %d: opened %d + in %d = %d, want closed %d + out %d + live %d = %d",
			i, opened, e.In, lhs, closed, e.Out, live, rhs)
	}
	return nil
}
