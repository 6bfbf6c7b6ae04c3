package ruleplane

import (
	"math/rand"
	"testing"

	"hilti/internal/rt/values"
)

// --- Shared randomized generators (also used by the reload property test) ----

// randAddr picks from a deliberately small address pool so rules and
// packets collide often (overlap is where classification bugs live).
func randAddr(rng *rand.Rand) (uint64, uint64) {
	if rng.Intn(8) == 0 {
		// IPv6.
		var b [16]byte
		b[0] = 0x20
		b[1] = 0x01
		b[7] = byte(rng.Intn(4))
		b[15] = byte(rng.Intn(8))
		v := values.AddrFrom16(b)
		return v.A, v.B
	}
	v := values.AddrFrom4([4]byte{10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(8))})
	return v.A, v.B
}

func randAddrPred(rng *rand.Rand) AddrPred {
	hi, lo := randAddr(rng)
	// Bias prefix lengths toward the interesting v4 band (96..128) with
	// some short and some v6-space lengths mixed in.
	var plen int
	switch rng.Intn(4) {
	case 0:
		plen = rng.Intn(129)
	default:
		plen = 96 + rng.Intn(33)
	}
	k := AddrIn
	if rng.Intn(4) == 0 {
		k = AddrNotIn
	}
	hi, lo = maskBits(hi, lo, plen)
	return AddrPred{Kind: k, Hi: hi, Lo: lo, PLen: plen}
}

func randPortPred(rng *rand.Rand) PortPred {
	lo := uint16(rng.Intn(1024))
	hi := lo + uint16(rng.Intn(64))
	k := PortIn
	if rng.Intn(4) == 0 {
		k = PortNotIn
	}
	return PortPred{Kind: k, Lo: lo, Hi: hi}
}

func randRule(rng *rand.Rand) Rule {
	var r Rule
	for rng.Intn(3) > 0 && len(r.Src) < 2 {
		r.Src = append(r.Src, randAddrPred(rng))
	}
	for rng.Intn(3) > 0 && len(r.Dst) < 2 {
		r.Dst = append(r.Dst, randAddrPred(rng))
	}
	if rng.Intn(3) == 0 {
		k := ProtoIs
		if rng.Intn(3) == 0 {
			k = ProtoNot
		}
		protos := []uint8{values.ProtoTCP, values.ProtoUDP, values.ProtoICMP}
		r.Proto = append(r.Proto, ProtoPred{Kind: k, Proto: protos[rng.Intn(len(protos))]})
	}
	if rng.Intn(3) == 0 {
		r.SrcPort = append(r.SrcPort, randPortPred(rng))
	}
	if rng.Intn(3) == 0 {
		r.DstPort = append(r.DstPort, randPortPred(rng))
	}
	r.Verdict = int64(rng.Intn(16))
	return r
}

func randPrograms(rng *rand.Rand, nprogs, maxRules int) []Program {
	progs := make([]Program, nprogs)
	for i := range progs {
		p := Program{Name: string(rune('a' + i)), Default: -int64(i) - 1, Gate: rng.Intn(4) == 0}
		n := rng.Intn(maxRules + 1)
		for j := 0; j < n; j++ {
			p.Rules = append(p.Rules, randRule(rng))
		}
		progs[i] = p
	}
	return progs
}

func randHeader(rng *rand.Rand) Header {
	shi, slo := randAddr(rng)
	dhi, dlo := randAddr(rng)
	protos := []uint8{values.ProtoTCP, values.ProtoUDP, values.ProtoICMP}
	proto := protos[rng.Intn(len(protos))]
	h := Header{SrcHi: shi, SrcLo: slo, DstHi: dhi, DstLo: dlo, Proto: proto}
	if proto == values.ProtoTCP || proto == values.ProtoUDP {
		h.HasPorts = true
		h.SrcPort = uint16(rng.Intn(1100))
		h.DstPort = uint16(rng.Intn(1100))
	}
	return h
}

// requireSameVerdicts evaluates h on both paths and fails on any
// difference in verdicts or winning-rule indexes.
func requireSameVerdicts(t *testing.T, auto *Automaton, lin *Linear, h Header) {
	t.Helper()
	np := lin.NumPrograms()
	av := make([]int64, np)
	lv := make([]int64, np)
	am := make([]int32, np)
	lm := make([]int32, np)
	auto.Eval(&h, av, am)
	lin.Eval(&h, lv, lm)
	for i := 0; i < np; i++ {
		if av[i] != lv[i] || am[i] != lm[i] {
			t.Fatalf("program %d diverged on %+v: compiled (verdict %d, rule %d) vs linear (verdict %d, rule %d)",
				i, h, av[i], am[i], lv[i], lm[i])
		}
	}
	if auto.GateDrop(av) != lin.GateDrop(lv) {
		t.Fatalf("gate decision diverged on %+v", h)
	}
}

// TestCompiledVsLinearRandomized hosts 2..MaxPrograms programs of up to
// 400 rules: per-program pruning bounds only differ from one global bound
// when several programs share the automaton.
func TestCompiledVsLinearRandomized(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		progs := randPrograms(rng, 2+rng.Intn(MaxPrograms-1), 400)
		auto, err := Compile(progs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lin := NewLinear(progs)
		for i := 0; i < 400; i++ {
			requireSameVerdicts(t, auto, lin, randHeader(rng))
		}
	}
}

func TestHashConsingSharesTails(t *testing.T) {
	net, _ := values.ParseNet("10.1.0.0/16")
	r := Rule{Src: []AddrPred{AddrInNet(net)}, Verdict: 1}
	p := Program{Name: "p", Rules: []Rule{r, r, r, r}, Default: 0}
	auto, err := Compile([]Program{p})
	if err != nil {
		t.Fatal(err)
	}
	st := auto.Stats()
	if st.Tails != 1 || st.TailRefs != 4 {
		t.Fatalf("want 1 consed tail with 4 refs, got %d/%d", st.Tails, st.TailRefs)
	}
	if st.Rules != 4 {
		t.Fatalf("rules = %d", st.Rules)
	}
}

func TestValidateRejects(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Fatal("empty program set accepted")
	}
	many := make([]Program, MaxPrograms+1)
	for i := range many {
		many[i].Name = "p"
	}
	if _, err := Compile(many); err == nil {
		t.Fatal("too many programs accepted")
	}
	bad := []Program{{Name: "p", Rules: []Rule{{Src: []AddrPred{{Kind: AddrIn, PLen: 200}}}}}}
	if _, err := Compile(bad); err == nil {
		t.Fatal("bad prefix length accepted")
	}
	badPort := []Program{{Name: "p", Rules: []Rule{{SrcPort: []PortPred{{Kind: PortIn, Lo: 9, Hi: 3}}}}}}
	if _, err := Compile(badPort); err == nil {
		t.Fatal("empty port range accepted")
	}
}

func TestGateDropSemantics(t *testing.T) {
	net, _ := values.ParseNet("10.1.0.0/16")
	gate := Program{Name: "gate", Gate: true, Default: 0,
		Rules: []Rule{{Src: []AddrPred{AddrInNet(net)}, Verdict: 1}}}
	obs := Program{Name: "obs", Default: 7}
	auto, err := Compile([]Program{gate, obs})
	if err != nil {
		t.Fatal(err)
	}
	v := make([]int64, 2)
	m := make([]int32, 2)
	in := HeaderFromV4([4]byte{10, 1, 2, 3}, [4]byte{10, 9, 9, 9}, values.ProtoTCP, 1, 2)
	out := HeaderFromV4([4]byte{10, 2, 2, 3}, [4]byte{10, 9, 9, 9}, values.ProtoTCP, 1, 2)
	auto.Eval(&in, v, m)
	if auto.GateDrop(v) {
		t.Fatal("matching packet dropped")
	}
	if v[1] != 7 || m[1] != -1 {
		t.Fatalf("observational program verdict %d rule %d", v[1], m[1])
	}
	auto.Eval(&out, v, m)
	if !auto.GateDrop(v) {
		t.Fatal("non-matching packet passed the gate")
	}
}

func TestHeaderConstructors(t *testing.T) {
	h4 := HeaderFromV4([4]byte{10, 1, 2, 3}, [4]byte{10, 4, 5, 6}, values.ProtoUDP, 53, 4321)
	var b16s, b16d [16]byte
	copy(b16s[:], []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 10, 1, 2, 3})
	copy(b16d[:], []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 10, 4, 5, 6})
	h16 := HeaderFrom16(b16s, b16d, values.ProtoUDP, 53, 4321)
	if h4 != h16 {
		t.Fatalf("v4 and 16-byte constructors disagree: %+v vs %+v", h4, h16)
	}
	if !h4.HasPorts {
		t.Fatal("UDP header without ports")
	}
	icmp := HeaderFromV4([4]byte{1, 2, 3, 4}, [4]byte{5, 6, 7, 8}, values.ProtoICMP, 0, 0)
	if icmp.HasPorts {
		t.Fatal("ICMP header claims ports")
	}
}
