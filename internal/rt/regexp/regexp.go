// Package regexp implements HILTI's regular-expression type: a from-scratch
// byte-oriented engine supporting simultaneous matching of multiple
// expressions and incremental matching across input chunks (paper §3.2).
//
// Patterns compile to a Thompson NFA whose determinization is performed
// lazily, caching DFA states as they are first visited. The cache is safe
// for concurrent matching: a Regexp compiled once (a constant of a grammar
// module shared by every engine) serves all goroutines. Matching is
// anchored at the starting position and reports the *longest* match and the
// lowest-numbered pattern that produced it — the semantics protocol-token
// dispatch needs. A MatchState carries the automaton's progress between
// chunks, so parsers can suspend on exhausted input and resume matching
// mid-token when the next packet arrives.
package regexp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hilti/internal/rt/hbytes"
)

// Regexp is a compiled set of patterns sharing one automaton.
type Regexp struct {
	patterns []string
	start    *dfaState
	anyFirst [4]uint64 // union of classes leaving the start closure (prefilter)

	mu    sync.Mutex // serializes building states; matching reads next[] only
	cache map[string]*dfaState
}

// dfaState is one lazily built DFA state. Its fields are written before it
// is published through a next[] entry and never after.
type dfaState struct {
	nfaStates  []*nfaState
	accept     int                           // lowest pattern id + 1; 0 when non-accepting
	canAdvance bool                          // any outgoing byte transition exists
	next       [256]atomic.Pointer[dfaState] // nil until built
}

// dead is the shared sink for "no further match possible".
var dead = &dfaState{}

// Compile compiles one or more patterns into a joint matcher. Pattern ids
// reported by matches are 1-based indices into the argument list.
func Compile(patterns ...string) (*Regexp, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("regexp: no patterns")
	}
	b := &nfaBuilder{}
	root := b.state()
	for i, p := range patterns {
		ast, err := parsePattern(p)
		if err != nil {
			return nil, err
		}
		f := b.build(ast)
		acc := b.state()
		acc.accept = i + 1
		f.end.eps = append(f.end.eps, acc)
		root.eps = append(root.eps, f.start)
	}
	states, accept := closure([]*nfaState{root})
	start := &dfaState{nfaStates: states, accept: accept, canAdvance: canAdvance(states)}
	re := &Regexp{
		patterns: patterns,
		start:    start,
		cache:    map[string]*dfaState{stateKey(states): start},
	}
	for _, s := range states {
		for _, t := range s.trans {
			for i := range re.anyFirst {
				re.anyFirst[i] |= t.class.bits[i]
			}
		}
	}
	return re, nil
}

// MustCompile is Compile panicking on error; for literal patterns.
func MustCompile(patterns ...string) *Regexp {
	re, err := Compile(patterns...)
	if err != nil {
		panic(err)
	}
	return re
}

// Patterns returns the source patterns.
func (re *Regexp) Patterns() []string { return re.patterns }

// TypeName implements the runtime Object interface.
func (re *Regexp) TypeName() string { return "regexp" }

// FormatObj renders the pattern set.
func (re *Regexp) FormatObj() string { return "/" + strings.Join(re.patterns, "/ | /") + "/" }

// canAdvance reports whether any state in the set has a byte transition.
func canAdvance(states []*nfaState) bool {
	for _, s := range states {
		if len(s.trans) > 0 {
			return true
		}
	}
	return false
}

func stateKey(states []*nfaState) string {
	ids := make([]int, len(states))
	for i, s := range states {
		ids[i] = s.id
	}
	sort.Ints(ids)
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "%d,", id)
	}
	return sb.String()
}

// step returns the DFA state after consuming b, building it on first use.
func (re *Regexp) step(s *dfaState, b byte) *dfaState {
	re.mu.Lock()
	defer re.mu.Unlock()
	if next := s.next[b].Load(); next != nil {
		return next // built meanwhile by another goroutine
	}
	var targets []*nfaState
	for _, ns := range s.nfaStates {
		for _, t := range ns.trans {
			if t.class.has(b) {
				targets = append(targets, t.to)
			}
		}
	}
	var next *dfaState
	if len(targets) == 0 {
		next = dead
	} else {
		cl, accept := closure(targets)
		key := stateKey(cl)
		if cached, ok := re.cache[key]; ok {
			next = cached
		} else {
			next = &dfaState{nfaStates: cl, accept: accept, canAdvance: canAdvance(cl)}
			re.cache[key] = next
		}
	}
	s.next[b].Store(next)
	return next
}

// Match runs an anchored longest-match against data. It returns the
// 1-based id of the matching pattern and the match length; id 0 means no
// match. A pattern matching the empty string yields (id, 0).
func (re *Regexp) Match(data []byte) (int, int64) {
	ms := MatchState{re: re, cur: re.start}
	ms.noteAccept()
	ms.Feed(data)
	return ms.Result()
}

// MatchString is Match over a string.
func (re *Regexp) MatchString(s string) (int, int64) { return re.Match([]byte(s)) }

// Find searches data for the first (leftmost) position with a match,
// returning start, end, and pattern id; id 0 means no match anywhere.
func (re *Regexp) Find(data []byte) (int64, int64, int) {
	for i := 0; i < len(data); i++ {
		// Prefilter: skip bytes that cannot begin any pattern, unless a
		// pattern accepts the empty string (then every position matches).
		if re.start.accept == 0 && re.anyFirst[data[i]>>6]&(1<<(data[i]&63)) == 0 {
			continue
		}
		if id, n := re.Match(data[i:]); id != 0 {
			return int64(i), int64(i) + n, id
		}
	}
	if re.start.accept != 0 {
		return int64(len(data)), int64(len(data)), re.start.accept
	}
	return -1, -1, 0
}

// MatchState is resumable matching progress across input chunks.
type MatchState struct {
	re       *Regexp
	cur      *dfaState
	consumed int64
	bestID   int
	bestLen  int64
}

// NewState returns a fresh anchored matcher positioned before any input.
func (re *Regexp) NewState() *MatchState {
	ms := re.state()
	return &ms
}

func (re *Regexp) state() MatchState {
	ms := MatchState{re: re, cur: re.start}
	ms.noteAccept()
	if !re.start.canAdvance {
		ms.cur = dead
	}
	return ms
}

// TypeName implements the runtime Object interface.
func (ms *MatchState) TypeName() string { return "match_state" }

func (ms *MatchState) noteAccept() {
	if ms.cur.accept > 0 {
		ms.bestID = ms.cur.accept
		ms.bestLen = ms.consumed
	}
}

// Feed consumes data, advancing the automaton. It returns false once no
// further input can extend any match (the automaton is dead) — the result
// is then final. It returns true when more input could still matter.
func (ms *MatchState) Feed(data []byte) bool {
	if ms.cur == dead {
		return false
	}
	cur := ms.cur
	re := ms.re
	for i := 0; i < len(data); i++ {
		next := cur.next[data[i]].Load()
		if next == nil {
			next = re.step(cur, data[i])
		}
		if next == dead {
			ms.cur = dead
			ms.consumed += int64(i)
			return false
		}
		cur = next
		if cur.accept > 0 {
			ms.bestID = cur.accept
			ms.bestLen = ms.consumed + int64(i) + 1
		}
		if !cur.canAdvance {
			ms.cur = dead
			ms.consumed += int64(i) + 1
			return false
		}
	}
	ms.consumed += int64(len(data))
	ms.cur = cur
	return true
}

// Alive reports whether additional input could still extend a match.
func (ms *MatchState) Alive() bool { return ms.cur != dead }

// Consumed returns the number of bytes fed so far (up to the point the
// automaton died, if it did).
func (ms *MatchState) Consumed() int64 { return ms.consumed }

// Result returns the best match so far: the 1-based pattern id and match
// length; id 0 means no match.
func (ms *MatchState) Result() (int, int64) { return ms.bestID, ms.bestLen }

// MatchIter matches anchored at iterator it over a byte rope, consuming
// chunk by chunk. On success it returns the pattern id and the iterator
// one past the match. When more input is required to decide (the automaton
// is alive, the rope unfrozen, and deciding needs more data), it reports
// hbytes.ErrWouldBlock — the caller suspends and retries after appending.
func (re *Regexp) MatchIter(it hbytes.Iter) (int, hbytes.Iter, error) {
	ms := re.state() // stays on the stack: nothing below retains it
	return ms.FinishIter(it)
}

// FinishIter continues an incremental match from a (possibly partially fed)
// state. The iterator must point at the first *unconsumed* byte; resumed
// calls pass the position reached previously. It feeds the rope's chunks
// in place and stops at the byte that decides the match.
func (ms *MatchState) FinishIter(it hbytes.Iter) (int, hbytes.Iter, error) {
	if !it.Valid() {
		return 0, it, hbytes.ErrOutOfRange
	}
	b := it.Bytes()
	pos := it.Offset()
	start := pos - ms.consumed // absolute offset of match start
	for ms.Alive() {
		chunk := b.At(pos).Chunk()
		if len(chunk) == 0 {
			if !b.Frozen() {
				return 0, b.At(pos), hbytes.ErrWouldBlock
			}
			break // frozen and all data consumed: final
		}
		ms.Feed(chunk)
		pos = start + ms.consumed
	}
	id, n := ms.Result()
	if id == 0 {
		return 0, b.At(start), nil
	}
	return id, b.At(start + n), nil
}
