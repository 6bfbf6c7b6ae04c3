package ruleplane

import (
	"math/rand"
	"testing"

	"hilti/internal/rt/values"
)

// The compiled automaton must preserve the classifier's pinned
// first-match-wins semantics exactly: priority is insertion order, never
// specificity. These mirror rt/classifier/priority_test.go on the
// compiled path, plus the degenerate cases the trie walk makes easy to
// get wrong (all-wildcard programs, duplicate rules, mask overlap).

func mustNet(t *testing.T, s string) values.Value {
	t.Helper()
	n, err := values.ParseNet(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func evalOne(t *testing.T, progs []Program, h Header) (int64, int32) {
	t.Helper()
	auto, err := Compile(progs)
	if err != nil {
		t.Fatal(err)
	}
	lin := NewLinear(progs)
	requireSameVerdicts(t, auto, lin, h)
	v := make([]int64, len(progs))
	m := make([]int32, len(progs))
	auto.Eval(&h, v, m)
	return v[0], m[0]
}

func TestInsertionOrderBeatsSpecificityCompiled(t *testing.T) {
	// A broad /8 inserted first shadows a more specific /24 inserted
	// later, even though the /24 anchors deeper in the trie.
	progs := []Program{{Name: "p", Default: -1, Rules: []Rule{
		{Src: []AddrPred{AddrInNet(mustNet(t, "10.0.0.0/8"))}, Verdict: 100},
		{Src: []AddrPred{AddrInNet(mustNet(t, "10.1.2.0/24"))}, Verdict: 200},
	}}}
	h := HeaderFromV4([4]byte{10, 1, 2, 3}, [4]byte{9, 9, 9, 9}, values.ProtoTCP, 1, 2)
	if v, m := evalOne(t, progs, h); v != 100 || m != 0 {
		t.Fatalf("verdict %d rule %d; broad-first rule must win", v, m)
	}
}

func TestWildcardFirstShadowsEverythingCompiled(t *testing.T) {
	progs := []Program{{Name: "p", Default: -1, Rules: []Rule{
		{Verdict: 1}, // all-wildcard, anchored at the trie root
		{Src: []AddrPred{AddrInNet(mustNet(t, "10.1.2.3/32"))}, Verdict: 2},
	}}}
	h := HeaderFromV4([4]byte{10, 1, 2, 3}, [4]byte{9, 9, 9, 9}, values.ProtoTCP, 1, 2)
	if v, m := evalOne(t, progs, h); v != 1 || m != 0 {
		t.Fatalf("verdict %d rule %d; wildcard rule 0 must shadow", v, m)
	}
}

func TestNestedPrefixesInterleavedPriorityCompiled(t *testing.T) {
	// /32 rule last, /16 in the middle, /24 first: packet in all three
	// must take the /24 (lowest index), packet only in /16 takes the /16.
	progs := []Program{{Name: "p", Default: -1, Rules: []Rule{
		{Src: []AddrPred{AddrInNet(mustNet(t, "10.1.2.0/24"))}, Verdict: 24},
		{Src: []AddrPred{AddrInNet(mustNet(t, "10.1.0.0/16"))}, Verdict: 16},
		{Src: []AddrPred{AddrInNet(mustNet(t, "10.1.2.3/32"))}, Verdict: 32},
	}}}
	h := HeaderFromV4([4]byte{10, 1, 2, 3}, [4]byte{9, 9, 9, 9}, values.ProtoTCP, 1, 2)
	if v, _ := evalOne(t, progs, h); v != 24 {
		t.Fatalf("verdict %d; /24 (index 0) must win", v)
	}
	h2 := HeaderFromV4([4]byte{10, 1, 9, 9}, [4]byte{9, 9, 9, 9}, values.ProtoTCP, 1, 2)
	if v, _ := evalOne(t, progs, h2); v != 16 {
		t.Fatalf("verdict %d; /16 must win outside the /24", v)
	}
}

func TestMaskOverlapDisjointFields(t *testing.T) {
	// Rules overlapping on src but split by dst, and vice versa: the
	// (src, dst) anchor pair must not conflate them.
	progs := []Program{{Name: "p", Default: -1, Rules: []Rule{
		{Src: []AddrPred{AddrInNet(mustNet(t, "10.1.0.0/16"))},
			Dst: []AddrPred{AddrInNet(mustNet(t, "172.20.1.0/24"))}, Verdict: 1},
		{Src: []AddrPred{AddrInNet(mustNet(t, "10.1.2.0/24"))},
			Dst: []AddrPred{AddrInNet(mustNet(t, "172.20.0.0/16"))}, Verdict: 2},
	}}}
	// In both srcs; dst only in rule 2's prefix.
	h := HeaderFromV4([4]byte{10, 1, 2, 3}, [4]byte{172, 20, 9, 9}, values.ProtoTCP, 1, 2)
	if v, _ := evalOne(t, progs, h); v != 2 {
		t.Fatalf("verdict %d; only rule 1 matches", v)
	}
	// Dst in both (172.20.1.x); rule 0 wins on priority.
	h2 := HeaderFromV4([4]byte{10, 1, 2, 3}, [4]byte{172, 20, 1, 9}, values.ProtoTCP, 1, 2)
	if v, _ := evalOne(t, progs, h2); v != 1 {
		t.Fatalf("verdict %d; rule 0 must win the tie", v)
	}
}

func TestAllWildcardProgram(t *testing.T) {
	// Degenerate: every rule wildcard. All anchor at the root; rule 0
	// always wins and the walk must stop immediately (subtree bounds).
	progs := []Program{{Name: "p", Default: -1, Rules: []Rule{
		{Verdict: 10}, {Verdict: 20}, {Verdict: 30},
	}}}
	for i := 0; i < 20; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if v, m := evalOne(t, progs, randHeader(rng)); v != 10 || m != 0 {
			t.Fatalf("verdict %d rule %d; wildcard rule 0 must always win", v, m)
		}
	}
}

func TestDuplicateRulesFirstWins(t *testing.T) {
	r := Rule{Src: []AddrPred{AddrInNet(mustNet(t, "10.1.0.0/16"))}, Verdict: 5}
	r2 := r
	r2.Verdict = 6
	progs := []Program{{Name: "p", Default: -1, Rules: []Rule{r, r2}}}
	h := HeaderFromV4([4]byte{10, 1, 2, 3}, [4]byte{9, 9, 9, 9}, values.ProtoTCP, 1, 2)
	if v, m := evalOne(t, progs, h); v != 5 || m != 0 {
		t.Fatalf("verdict %d rule %d; first duplicate must win", v, m)
	}
}

func TestPriorityIndependentAcrossPrograms(t *testing.T) {
	// Two programs with opposite rule orders: each keeps its own
	// first-match winner even though both share the automaton.
	a := Rule{Src: []AddrPred{AddrInNet(mustNet(t, "10.0.0.0/8"))}, Verdict: 1}
	b := Rule{Src: []AddrPred{AddrInNet(mustNet(t, "10.1.0.0/16"))}, Verdict: 2}
	progs := []Program{
		{Name: "ab", Default: -1, Rules: []Rule{a, b}},
		{Name: "ba", Default: -1, Rules: []Rule{b, a}},
	}
	auto, err := Compile(progs)
	if err != nil {
		t.Fatal(err)
	}
	lin := NewLinear(progs)
	h := HeaderFromV4([4]byte{10, 1, 2, 3}, [4]byte{9, 9, 9, 9}, values.ProtoTCP, 1, 2)
	requireSameVerdicts(t, auto, lin, h)
	v := make([]int64, 2)
	m := make([]int32, 2)
	auto.Eval(&h, v, m)
	if v[0] != 1 || v[1] != 2 {
		t.Fatalf("verdicts %v; each program must keep its own order", v)
	}
}

func TestIPv6LongPrefixCompiled(t *testing.T) {
	progs := []Program{{Name: "p", Default: -1, Rules: []Rule{
		{Src: []AddrPred{AddrInNet(mustNet(t, "2001:db8::/32"))}, Verdict: 1},
		{Src: []AddrPred{AddrInNet(mustNet(t, "2001:db8::1/128"))}, Verdict: 2},
	}}}
	v6, err := values.ParseAddr("2001:db8::1")
	if err != nil {
		t.Fatal(err)
	}
	other, err := values.ParseAddr("2001:db8:1::9")
	if err != nil {
		t.Fatal(err)
	}
	h := HeaderFromAddrs(v6, v6, values.ProtoTCP, 1, 2)
	if v, _ := evalOne(t, progs, h); v != 1 {
		t.Fatalf("verdict %d; /32 (index 0) shadows the /128", v)
	}
	h2 := HeaderFromAddrs(other, other, values.ProtoTCP, 1, 2)
	if v, _ := evalOne(t, progs, h2); v != 1 {
		t.Fatalf("verdict %d; addr is inside 2001:db8::/32", v)
	}
}

func TestPortRangeBoundariesCompiled(t *testing.T) {
	progs := []Program{{Name: "p", Default: -1, Rules: []Rule{
		{DstPort: []PortPred{{Kind: PortIn, Lo: 100, Hi: 200}}, Verdict: 1},
	}}}
	for _, tc := range []struct {
		port uint16
		want int64
	}{{99, -1}, {100, 1}, {150, 1}, {200, 1}, {201, -1}} {
		h := HeaderFromV4([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, values.ProtoTCP, 1, tc.port)
		if v, _ := evalOne(t, progs, h); v != tc.want {
			t.Fatalf("port %d: verdict %d want %d", tc.port, v, tc.want)
		}
	}
}

func TestNegatedPortMatchesPortlessCompiled(t *testing.T) {
	// tcpdump semantics: `not port 80` accepts an ICMP packet.
	progs := []Program{{Name: "p", Default: 0, Rules: []Rule{
		{DstPort: []PortPred{{Kind: PortNotIn, Lo: 80, Hi: 80}}, Verdict: 1},
	}}}
	icmp := HeaderFromV4([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, values.ProtoICMP, 0, 0)
	if v, _ := evalOne(t, progs, icmp); v != 1 {
		t.Fatalf("verdict %d; negated port must match portless packets", v)
	}
	tcp80 := HeaderFromV4([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, values.ProtoTCP, 1, 80)
	if v, _ := evalOne(t, progs, tcp80); v != 0 {
		t.Fatalf("verdict %d; port 80 must not match", v)
	}
}

func TestNegativeOnlyAddrAnchorsAtRoot(t *testing.T) {
	// A rule with only a negated prefix must still be reachable for every
	// packet (it anchors at the trie root).
	progs := []Program{{Name: "p", Default: 0, Rules: []Rule{
		{Src: []AddrPred{{Kind: AddrNotIn, Hi: mustNet(t, "10.1.0.0/16").A,
			Lo: mustNet(t, "10.1.0.0/16").B, PLen: mustNet(t, "10.1.0.0/16").NetPrefixLen()}}, Verdict: 1},
	}}}
	in := HeaderFromV4([4]byte{10, 1, 2, 3}, [4]byte{9, 9, 9, 9}, values.ProtoTCP, 1, 2)
	out := HeaderFromV4([4]byte{10, 2, 2, 3}, [4]byte{9, 9, 9, 9}, values.ProtoTCP, 1, 2)
	if v, _ := evalOne(t, progs, in); v != 0 {
		t.Fatalf("verdict %d for excluded packet", v)
	}
	if v, _ := evalOne(t, progs, out); v != 1 {
		t.Fatalf("verdict %d for non-excluded packet", v)
	}
}

func TestConflictingPrefixesNeverMatch(t *testing.T) {
	// Disjoint positive prefixes on the same field: the rule is
	// unsatisfiable and must simply never fire (tail verification).
	progs := []Program{{Name: "p", Default: 0, Rules: []Rule{
		{Src: []AddrPred{AddrInNet(mustNet(t, "10.1.0.0/16")), AddrInNet(mustNet(t, "10.2.0.0/16"))}, Verdict: 1},
		{Verdict: 2},
	}}}
	for i := 0; i < 20; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if v, _ := evalOne(t, progs, randHeader(rng)); v != 2 {
			t.Fatalf("verdict %d; unsatisfiable rule fired", v)
		}
	}
}

func TestEmptyProgramAlwaysDefault(t *testing.T) {
	progs := []Program{{Name: "p", Default: 42}}
	for i := 0; i < 10; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if v, m := evalOne(t, progs, randHeader(rng)); v != 42 || m != -1 {
			t.Fatalf("verdict %d rule %d for empty program", v, m)
		}
	}
}
