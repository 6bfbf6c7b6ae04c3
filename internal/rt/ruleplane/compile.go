package ruleplane

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Automaton is the compiled decision structure: a path-compressed
// (Patricia) binary trie over the source address whose nodes each carry a
// nested destination trie; destination nodes hold the global indexes of
// the rules anchored at that (src-prefix, dst-prefix) pair, and residual
// predicates live in hash-consed tail nodes shared across rules. One walk
// per packet yields every program's verdict.
//
// Soundness comes from a one-way contract: the tries only SKIP rules that
// provably cannot match (a rule is anchored under its own positive
// src/dst prefixes, so any packet it matches must reach its anchor node),
// and every candidate the walk does reach is re-verified against the full
// predicate set by Rule-equivalent tail matching. Priority is per program:
// global rule indexes are assigned in program order, so each leaf is a
// sequence of ascending per-program runs, and every subtree records, for
// each program, the minimum index it contains. The walk descends only
// while some program could still beat its best match inside the subtree,
// and scans a run only until its first match or that program's best; a
// program that has its answer costs nothing further (first-match-wins
// preserved exactly).
type Automaton struct {
	progs   []Program
	rules   []arule
	progEnd []int32 // global index just past each program's last rule
	src     *tnode
	gates   []int32 // program indexes with Gate set
	stats   AutoStats
	recs    []int32 // backing store finalize carves every node's rec from
}

// arule is one compiled rule: the shared tail plus enough to map a global
// match back to (program, local index, verdict).
type arule struct {
	tail    *tail
	verdict int64
	prog    int32
	local   int32
}

// tail holds a rule's full predicate set; tails are hash-consed so rules
// with identical predicate structure share one node (the BDD-style
// sharing for the non-prefix residue).
type tail struct {
	src, dst         []AddrPred
	proto            []ProtoPred
	srcPort, dstPort []PortPred
}

func (t *tail) matches(h *Header) bool {
	for _, p := range t.src {
		if !p.matches(h.SrcHi, h.SrcLo) {
			return false
		}
	}
	for _, p := range t.dst {
		if !p.matches(h.DstHi, h.DstLo) {
			return false
		}
	}
	for _, p := range t.proto {
		if !p.matches(h.Proto) {
			return false
		}
	}
	for _, p := range t.srcPort {
		if !p.matches(h.HasPorts, h.SrcPort) {
			return false
		}
	}
	for _, p := range t.dstPort {
		if !p.matches(h.HasPorts, h.DstPort) {
			return false
		}
	}
	return true
}

// tnode is a path-compressed binary trie node keyed by a masked prefix.
// Source-trie nodes use sub (the nested destination trie). While the
// automaton is built, a destination node's rec lists the global indexes of
// the rules anchored there, ascending (insertion order); finalize rewrites
// every rec as [bounds | runs]: per program, the smallest index in the
// subtree (MaxInt32: none), then the leaf as one run per program, each
// [prog, count, indexes...].
type tnode struct {
	hi, lo uint64
	plen   int
	child  [2]*tnode
	sub    *tnode
	rec    []int32
}

// AutoStats describes the compiled structure.
type AutoStats struct {
	Programs int
	Rules    int
	SrcNodes int
	DstNodes int
	Tails    int // hash-consed unique tail nodes
	TailRefs int // total rule references to tails (== Rules)
}

// Stats returns structure statistics.
func (a *Automaton) Stats() AutoStats { return a.stats }

// NumPrograms returns the number of hosted programs.
func (a *Automaton) NumPrograms() int { return len(a.progs) }

// ProgramIndex returns the index of the named program, or -1.
func (a *Automaton) ProgramIndex(name string) int {
	for i := range a.progs {
		if a.progs[i].Name == name {
			return i
		}
	}
	return -1
}

// Compile builds the shared automaton for a set of programs.
func Compile(progs []Program) (*Automaton, error) {
	if err := Validate(progs); err != nil {
		return nil, err
	}
	a := &Automaton{
		progs:   progs,
		progEnd: make([]int32, len(progs)),
		src:     &tnode{}, // forced /0 root: wildcard-src rules anchor here
	}
	cons := make(map[string]*tail)
	var keyBuf []byte
	gi, nruns := int32(0), 0
	for pi := range progs {
		p := &progs[pi]
		if p.Gate {
			a.gates = append(a.gates, int32(pi))
		}
		for ri := range p.Rules {
			r := &p.Rules[ri]
			t := consTail(cons, r, &keyBuf)
			a.rules = append(a.rules, arule{tail: t, verdict: r.Verdict, prog: int32(pi), local: int32(ri)})
			shi, slo, splen := anchorPrefix(r.Src)
			dhi, dlo, dplen := anchorPrefix(r.Dst)
			ns := trieInsert(a.src, shi, slo, splen)
			if ns.sub == nil {
				ns.sub = &tnode{} // forced /0 root for the nested dst trie
			}
			nd := trieInsert(ns.sub, dhi, dlo, dplen)
			if len(nd.rec) == 0 || a.rules[nd.rec[len(nd.rec)-1]].prog != int32(pi) {
				nruns++ // first rule of this program at nd
			}
			nd.rec = append(nd.rec, gi)
			gi++
		}
		a.progEnd[pi] = gi
	}
	a.stats = AutoStats{
		Programs: len(progs),
		Rules:    len(a.rules),
		Tails:    len(cons),
		TailRefs: len(a.rules),
	}
	countNodes(a.src, true, &a.stats)
	// Exact capacity: finalize carves every rec out of it without
	// reallocating.
	a.recs = make([]int32, 0, len(progs)*(a.stats.SrcNodes+a.stats.DstNodes)+2*nruns+len(a.rules))
	a.finalize(a.src, true)
	return a, nil
}

// anchorPrefix picks the longest positive (AddrIn) prefix among the
// field's predicates as the rule's trie anchor; rules with no positive
// prefix (wildcard, pure negation) anchor at the root. The tail re-checks
// every predicate, so the anchor only needs to be implied by a match.
func anchorPrefix(preds []AddrPred) (uint64, uint64, int) {
	var hi, lo uint64
	plen := 0
	for _, p := range preds {
		if p.Kind == AddrIn && p.PLen > plen {
			hi, lo, plen = p.Hi, p.Lo, p.PLen
		}
	}
	hi, lo = maskBits(hi, lo, plen)
	return hi, lo, plen
}

// consTail interns the rule's predicate set in the unique table.
func consTail(cons map[string]*tail, r *Rule, buf *[]byte) *tail {
	b := (*buf)[:0]
	for _, p := range r.Src {
		b = appendAddrPred(b, 'S', p)
	}
	for _, p := range r.Dst {
		b = appendAddrPred(b, 'D', p)
	}
	for _, p := range r.Proto {
		b = append(b, 'P', byte(p.Kind), p.Proto)
	}
	for _, p := range r.SrcPort {
		b = appendPortPred(b, 's', p)
	}
	for _, p := range r.DstPort {
		b = appendPortPred(b, 'd', p)
	}
	*buf = b
	if t, ok := cons[string(b)]; ok {
		return t
	}
	t := &tail{
		src:     append([]AddrPred(nil), r.Src...),
		dst:     append([]AddrPred(nil), r.Dst...),
		proto:   append([]ProtoPred(nil), r.Proto...),
		srcPort: append([]PortPred(nil), r.SrcPort...),
		dstPort: append([]PortPred(nil), r.DstPort...),
	}
	cons[string(b)] = t
	return t
}

func appendAddrPred(b []byte, tag byte, p AddrPred) []byte {
	b = append(b, tag, byte(p.Kind), byte(p.PLen))
	b = binary.BigEndian.AppendUint64(b, p.Hi)
	b = binary.BigEndian.AppendUint64(b, p.Lo)
	return b
}

func appendPortPred(b []byte, tag byte, p PortPred) []byte {
	b = append(b, tag, byte(p.Kind))
	b = binary.BigEndian.AppendUint16(b, p.Lo)
	b = binary.BigEndian.AppendUint16(b, p.Hi)
	return b
}

// trieInsert returns the node for the masked prefix (hi, lo)/plen,
// creating (and, when necessary, splitting) nodes along the way. The root
// is always the /0 node, so insertion never replaces it.
func trieInsert(n *tnode, hi, lo uint64, plen int) *tnode {
	for {
		if plen == n.plen {
			return n
		}
		b := bitAt(hi, lo, n.plen)
		c := n.child[b]
		if c == nil {
			nn := &tnode{hi: hi, lo: lo, plen: plen}
			n.child[b] = nn
			return nn
		}
		cl := commonPrefixLen(c.hi, c.lo, c.plen, hi, lo, plen)
		if cl == c.plen {
			n = c
			continue
		}
		// Split c's edge at cl.
		mhi, mlo := maskBits(hi, lo, cl)
		mid := &tnode{hi: mhi, lo: mlo, plen: cl}
		mid.child[bitAt(c.hi, c.lo, cl)] = c
		n.child[b] = mid
		if cl == plen {
			return mid
		}
		nn := &tnode{hi: hi, lo: lo, plen: plen}
		mid.child[bitAt(hi, lo, cl)] = nn
		return nn
	}
}

// commonPrefixLen returns the length of the longest common prefix of the
// two masked keys, capped at both lengths.
func commonPrefixLen(ahi, alo uint64, alen int, bhi, blo uint64, blen int) int {
	m := alen
	if blen < m {
		m = blen
	}
	if x := ahi ^ bhi; x != 0 {
		if l := bits.LeadingZeros64(x); l < m {
			return l
		}
		return m
	}
	l := 64 + bits.LeadingZeros64(alo^blo)
	if l < m {
		return l
	}
	return m
}

// finalize rewrites n's rec as [bounds | runs] (see tnode) in the
// automaton's backing store and returns n's bounds, Eval's per-program
// pruning bounds, which fold in those of n's subtries.
func (a *Automaton) finalize(n *tnode, isSrc bool) []int32 {
	if n == nil {
		return nil
	}
	np, leaf, k := len(a.progs), n.rec, len(a.recs)
	for p := 0; p < np; p++ {
		a.recs = append(a.recs, math.MaxInt32)
	}
	for len(leaf) > 0 {
		p := a.rules[leaf[0]].prog
		j := 1
		for j < len(leaf) && leaf[j] < a.progEnd[p] {
			j++
		}
		a.recs = append(append(a.recs, p, int32(j)), leaf[:j]...)
		a.recs[k+int(p)] = leaf[0]
		leaf = leaf[j:]
	}
	n.rec = a.recs[k:len(a.recs):len(a.recs)]
	bounds := n.rec[:np]
	for i, c := range [3]*tnode{n.sub, n.child[0], n.child[1]} {
		for p, m := range a.finalize(c, isSrc && i > 0) { // sub is a dst trie
			bounds[p] = min(bounds[p], m)
		}
	}
	return bounds
}

func countNodes(n *tnode, isSrc bool, st *AutoStats) {
	if n == nil {
		return
	}
	if isSrc {
		st.SrcNodes++
		countNodes(n.sub, false, st)
	} else {
		st.DstNodes++
	}
	countNodes(n.child[0], isSrc, st)
	countNodes(n.child[1], isSrc, st)
}

// Eval computes every program's verdict for h; the contract matches
// Linear.Eval exactly (same slices, same matched semantics). It performs
// no allocation: all walk state lives on the stack.
func (a *Automaton) Eval(h *Header, verdicts []int64, matched []int32) {
	var buf [MaxPrograms]int32
	best := buf[:len(a.progs)] // per program: best match so far; progEnd = none
	copy(best, a.progEnd)
	for n := a.src; n.open(best) && prefixContains(n.hi, n.lo, n.plen, h.SrcHi, h.SrcLo); n = n.next(h.SrcHi, h.SrcLo) {
		for d := n.sub; d.open(best) && prefixContains(d.hi, d.lo, d.plen, h.DstHi, h.DstLo); d = d.next(h.DstHi, h.DstLo) {
			for runs := d.rec[len(best):]; len(runs) > 0; {
				p, idx := runs[0], runs[2:2+runs[1]]
				runs = runs[2+runs[1]:]
				b := best[p]
				for _, gi := range idx {
					if gi >= b {
						break
					}
					if a.rules[gi].tail.matches(h) {
						best[p] = gi
						break
					}
				}
			}
		}
	}
	for i, b := range best {
		if b < a.progEnd[i] {
			verdicts[i], matched[i] = a.rules[b].verdict, a.rules[b].local
		} else {
			verdicts[i], matched[i] = a.progs[i].Default, -1
		}
	}
}

// open reports whether n exists and some program could still beat its
// best match inside n's subtree.
func (n *tnode) open(best []int32) bool {
	if n == nil {
		return false
	}
	bounds := n.rec[:len(best)]
	for p, b := range best {
		if bounds[p] < b {
			return true
		}
	}
	return false
}

// next steps from n toward (hi, lo); nil below a full-length prefix.
func (n *tnode) next(hi, lo uint64) *tnode {
	if n.plen >= 128 {
		return nil
	}
	return n.child[bitAt(hi, lo, n.plen)]
}

// GateDrop reports whether any gate program returned verdict 0.
func (a *Automaton) GateDrop(verdicts []int64) bool {
	for _, pi := range a.gates {
		if verdicts[pi] == 0 {
			return true
		}
	}
	return false
}
