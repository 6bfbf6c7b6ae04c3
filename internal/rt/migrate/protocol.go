package migrate

import (
	"errors"
	"fmt"
	"sync"
)

// Step identifies where in a handoff session a fault lands. The chaos
// harness exercises every (Step, FaultKind) pair.
type Step int

// Protocol steps, in session order.
const (
	StepBegin    Step = iota // open the session on the target
	StepActivate             // ship the slice; the target installs it
	StepCommit               // target acked: source forgets, caller flips routing
	NumSteps
)

func (s Step) String() string {
	switch s {
	case StepBegin:
		return "begin"
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
type Injector func(step Step, attempt int) FaultKind

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

// maxAttempts is how many times a frame is sent before the session aborts.
const maxAttempts = 4

// Sink is the target instance's apply surface. Install is all-or-nothing:
// on error nothing of the session remains live; slice is only valid
// during the call. Discard undoes a successful Install (safe because
// routing has not flipped, so the installed flows never received a
// packet).
type Sink interface {
	Install(id uint64, slice []byte) (flows int, err error)
	Discard(id uint64)
}

// Endpoint is the target side of a handoff session. It installs via the
// Sink on an intact Activate for its open session. At most one session is
// open at a time; a Begin with a new id supersedes an uninstalled one (the
// coordinator that opened it has aborted or died). Handle is not
// goroutine-safe: like the routing table it belongs to the cluster's
// control goroutine.
type Endpoint struct {
	sink Sink
	sess *epSession
}

type epSession struct {
	id        uint64
	installed bool
	flows     int
}

// NewEndpoint wraps a sink.
func NewEndpoint(sink Sink) *Endpoint { return &Endpoint{sink: sink} }

// Handle processes one request frame and always returns an Ack frame.
// Damaged frames get a NAK (retransmit); frames that cannot belong to a
// live session are refused (abort).
func (ep *Endpoint) Handle(frame []byte) []byte {
	kind, payload, err := parseFrame(frame)
	if err == nil {
		switch kind {
		case frameBegin:
			var id uint64
			if id, err = decodeID(payload); err == nil {
				return ep.handleBegin(id)
			}
		case frameActivate:
			var m activate
			if m, err = decodeActivate(payload); err == nil {
				return ep.handleActivate(m)
			}
		case frameAbort:
			var id uint64
			if id, err = decodeID(payload); err == nil {
				ep.AbortSession(id)
				return encodeAck(ack{id: id, status: ackOK})
			}
		}
	}
	return encodeAck(ack{status: ackNak})
}

func (ep *Endpoint) handleBegin(id uint64) []byte {
	if s := ep.sess; s != nil {
		if s.id == id {
			// Retransmitted Begin (our ack was lost): idempotent.
			return encodeAck(ack{id: id, status: ackOK})
		}
		if s.installed {
			// An installed session awaits its routing flip; starting a
			// second handoff now could double-own flows. Refuse.
			return encodeAck(ack{id: id, status: ackRefused})
		}
		// The coordinator of the old session is gone; drop it.
	}
	ep.sess = &epSession{id: id}
	return encodeAck(ack{id: id, status: ackOK})
}

func (ep *Endpoint) handleActivate(m activate) []byte {
	s := ep.sess
	if s == nil || s.id != m.id {
		return encodeAck(ack{id: m.id, status: ackRefused})
	}
	if !s.installed {
		n, err := ep.sink.Install(s.id, m.slice)
		if err != nil {
			return encodeAck(ack{id: m.id, status: ackRefused})
		}
		s.installed, s.flows = true, n
	}
	// A retransmitted Activate (our ack was lost) is answered again.
	return encodeAck(ack{id: m.id, status: ackOK, applied: uint32(s.flows)})
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

// AbortSession rolls back session id: an open session is dropped, an
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
// (0, false when idle). A caller that owns the endpoint asks it before
// opening a session of its own.
func (ep *Endpoint) Session() (id uint64, installed bool) {
	if ep.sess == nil {
		return 0, false
	}
	return ep.sess.id, ep.sess.installed
}

// Options configures one handoff session.
type Options struct {
	ID       uint64 // session id, unique per handoff attempt
	Injector Injector
}

// Result summarizes a completed Coordinator session.
type Result struct {
	Committed bool
	Step      Step // step reached: StepCommit on success, else the failed step
	Flows     int  // flows the target reported installed
	Attempts  int  // total frame sends, including retries
	Err       error
}

// Coordinator drives the source side of one handoff session. The caller
// sequences it: Begin, Activate with the slice, Commit — quiescing and
// extracting the slice between Begin and Activate, as the cluster does.
// Any failed call aborts the session; afterwards only Abort/Result are
// useful.
type Coordinator struct {
	tr   Transport
	opt  Options
	res  Result
	done bool
}

// NewCoordinator starts a session (no frames are sent until Begin).
func NewCoordinator(tr Transport, opt Options) *Coordinator {
	return &Coordinator{tr: tr, opt: opt}
}

// send delivers one frame with bounded retries, consulting the injector
// at each attempt. It returns the endpoint's Ack or the terminal error.
func (co *Coordinator) send(step Step, frame []byte) (ack, error) {
	var last error = ErrRetries
	for attempt := 0; attempt < maxAttempts; attempt++ {
		wire := frame
		if inj := co.opt.Injector; inj != nil {
			switch inj(step, attempt) {
			case FaultKill:
				// The migration worker dies mid-session. No more frames;
				// the cluster resolves via Endpoint.AbortSession (the
				// target's handoff timeout). The source retained its
				// state, so nothing is lost.
				return ack{}, ErrKilled
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
			return ack{}, err
		}
		kind, payload, err := parseFrame(resp)
		if err != nil || kind != frameAck {
			last = fmt.Errorf("migrate: bad response frame: %w", err)
			continue
		}
		a, err := decodeAck(payload)
		if err != nil {
			last = err
			continue
		}
		switch a.status {
		case ackOK:
			return a, nil
		case ackNak:
			last = fmt.Errorf("migrate: %s frame NAKed (attempt %d)", step, attempt)
			continue
		default:
			return a, fmt.Errorf("%w at %s", ErrRefused, step)
		}
	}
	return ack{}, fmt.Errorf("%w at %s: %v", ErrRetries, step, last)
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
	if _, err := co.send(StepBegin, encodeID(frameBegin, co.opt.ID)); err != nil {
		return co.fail(StepBegin, err)
	}
	co.res.Step = StepBegin
	return nil
}

// Activate ships the slice and asks the target to install it. After a nil
// return the target owns a live copy and the caller must either Commit
// (flip routing, forget on the source) or Abort.
func (co *Coordinator) Activate(slice []byte) error {
	if co.done {
		return co.res.Err
	}
	frame, err := encodeActivate(activate{id: co.opt.ID, slice: slice})
	if err != nil {
		return co.fail(StepActivate, err)
	}
	a, err := co.send(StepActivate, frame)
	if err != nil {
		return co.fail(StepActivate, err)
	}
	co.res.Flows = int(a.applied)
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
	if inj := co.opt.Injector; inj != nil && inj(StepCommit, 0) == FaultKill {
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
	co.res.Attempts++
	co.tr.Send(encodeID(frameAbort, co.opt.ID)) //nolint:errcheck // best effort by design
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

// Abort records an aborted migration attempt out of instance from.
func (l *Ledger) Abort(from int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entry(from).Aborts++
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
