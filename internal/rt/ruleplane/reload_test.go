package ruleplane

import (
	"math/rand"
	"sync"
	"testing"

	"hilti/internal/rt/values"
)

func basePrograms(t *testing.T) []Program {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	progs := randPrograms(rng, 2, 24)
	progs[0].Name = "gate"
	progs[0].Gate = true
	progs[1].Name = "obs"
	progs[1].Gate = false
	return progs
}

// mutatePrograms applies a random edit sequence (add / remove /
// re-prioritize / re-verdict) while keeping the program count fixed.
func mutatePrograms(rng *rand.Rand, progs []Program) []Program {
	out := make([]Program, len(progs))
	for i := range progs {
		out[i] = progs[i]
		out[i].Rules = append([]Rule(nil), progs[i].Rules...)
	}
	for edits := 1 + rng.Intn(5); edits > 0; edits-- {
		p := &out[rng.Intn(len(out))]
		switch op := rng.Intn(4); {
		case op == 0 && len(p.Rules) > 0: // remove
			i := rng.Intn(len(p.Rules))
			p.Rules = append(p.Rules[:i], p.Rules[i+1:]...)
		case op == 1: // add at random position
			i := rng.Intn(len(p.Rules) + 1)
			p.Rules = append(p.Rules[:i], append([]Rule{randRule(rng)}, p.Rules[i:]...)...)
		case op == 2 && len(p.Rules) > 1: // re-prioritize
			i, j := rng.Intn(len(p.Rules)), rng.Intn(len(p.Rules))
			p.Rules[i], p.Rules[j] = p.Rules[j], p.Rules[i]
		case op == 3 && len(p.Rules) > 0: // change a verdict
			p.Rules[rng.Intn(len(p.Rules))].Verdict = int64(rng.Intn(16))
		}
	}
	return out
}

func TestSwapImmediateCommit(t *testing.T) {
	progs := basePrograms(t)
	p, err := New(progs)
	if err != nil {
		t.Fatal(err)
	}
	if p.CommittedSeq() != 1 {
		t.Fatalf("initial seq %d", p.CommittedSeq())
	}
	rng := rand.New(rand.NewSource(1))
	next := mutatePrograms(rng, progs)
	seq, err := p.Swap(next, SwapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.CommittedSeq() != seq || p.Pending() {
		t.Fatalf("instant swap not committed: seq %d want %d pending %v", p.CommittedSeq(), seq, p.Pending())
	}
	st := p.Stats()
	if st.Swaps != 1 || st.Committed != 1 || st.Aborted != 0 {
		t.Fatalf("ledger %+v", st)
	}
}

func TestSwapShadowWindowExactLedger(t *testing.T) {
	// Single-threaded eval: the shadow window must span exactly Window
	// packets, the commit happens on the packet that exhausts it, and
	// verdicts switch generation on precisely that packet.
	progs := basePrograms(t)
	p, err := New(progs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	next := mutatePrograms(rng, progs)
	const window = 64
	seq, err := p.Swap(next, SwapOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Pending() {
		t.Fatal("no shadow window open")
	}
	oldRef := NewLinear(progs)
	newRef := NewLinear(next)
	v := make([]int64, p.NumPrograms())
	want := make([]int64, p.NumPrograms())
	wantM := make([]int32, p.NumPrograms())
	for i := 0; i < window+50; i++ {
		h := randHeader(rng)
		gotSeq, _ := p.Eval(&h, v)
		ref := oldRef
		wantSeq := uint64(1)
		if i >= window {
			ref = newRef
			wantSeq = seq
		}
		if gotSeq != wantSeq {
			t.Fatalf("packet %d: generation %d want %d", i, gotSeq, wantSeq)
		}
		ref.Eval(&h, want, wantM)
		for j := range v {
			if v[j] != want[j] {
				t.Fatalf("packet %d program %d: verdict %d want %d", i, j, v[j], want[j])
			}
		}
	}
	if p.Pending() || p.CommittedSeq() != seq {
		t.Fatalf("swap not committed after window: pending %v seq %d", p.Pending(), p.CommittedSeq())
	}
	st := p.Stats()
	if st.Swaps != 1 || st.Committed != 1 || st.Aborted != 0 || st.Divergences != 0 {
		t.Fatalf("ledger %+v", st)
	}
	if st.ShadowPackets != window {
		t.Fatalf("shadow packets %d want exactly %d", st.ShadowPackets, window)
	}
	if st.Evals != window+50 {
		t.Fatalf("evals %d", st.Evals)
	}
}

func TestSwapInjectedDivergenceAborts(t *testing.T) {
	progs := basePrograms(t)
	p, err := New(progs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	next := mutatePrograms(rng, progs)
	seq, err := p.Swap(next, SwapOptions{Window: 256, InjectDivergence: true})
	if err != nil {
		t.Fatal(err)
	}
	v := make([]int64, p.NumPrograms())
	h := randHeader(rng)
	gotSeq, _ := p.Eval(&h, v)
	if gotSeq != 1 {
		t.Fatalf("verdicts from generation %d, want committed 1", gotSeq)
	}
	if p.Pending() {
		t.Fatal("shadow still open after divergence")
	}
	if p.CommittedSeq() != 1 {
		t.Fatalf("committed seq %d; aborted swap must retain the old set", p.CommittedSeq())
	}
	rep := p.LastReport()
	if rep == nil || rep.SwapSeq != seq || rep.ProgramIndex != 0 {
		t.Fatalf("divergence report %+v", rep)
	}
	if rep.String() == "" {
		t.Fatal("empty report rendering")
	}
	st := p.Stats()
	if st.Swaps != 1 || st.Aborted != 1 || st.Committed != 0 || st.Divergences != 1 || st.ShadowPackets != 1 {
		t.Fatalf("ledger %+v", st)
	}
	// Old verdicts retained: committed generation still evaluates progs.
	oldRef := NewLinear(progs)
	want := make([]int64, len(progs))
	wantM := make([]int32, len(progs))
	for i := 0; i < 50; i++ {
		hh := randHeader(rng)
		p.Eval(&hh, v)
		oldRef.Eval(&hh, want, wantM)
		for j := range v {
			if v[j] != want[j] {
				t.Fatalf("post-abort verdict drifted: program %d got %d want %d", j, v[j], want[j])
			}
		}
	}
	// The plane accepts a fresh swap after the abort.
	if _, err := p.Swap(next, SwapOptions{}); err != nil {
		t.Fatalf("swap after abort: %v", err)
	}
}

func TestSwapInFlightRejected(t *testing.T) {
	progs := basePrograms(t)
	p, err := New(progs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	next := mutatePrograms(rng, progs)
	if _, err := p.Swap(next, SwapOptions{Window: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Swap(next, SwapOptions{}); err != ErrSwapInFlight {
		t.Fatalf("err %v, want ErrSwapInFlight", err)
	}
	// Program-count changes are rejected.
	if _, err := p.Swap(progs[:1], SwapOptions{}); err == nil {
		t.Fatal("program-count change accepted")
	}
}

// TestHotReloadPropertyRandomized is the satellite property test: random
// rule-set edit sequences applied under concurrent traffic. Every packet
// gets exactly one (generation, verdicts) answer; the verdicts must match
// a linear evaluation of the rule set committed at that packet's
// admission point; and the swap ledger is exact.
func TestHotReloadPropertyRandomized(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(100 + seed))
		progs := randPrograms(rng, 1+rng.Intn(3), 16)
		p, err := New(progs)
		if err != nil {
			t.Fatal(err)
		}
		genProgs := map[uint64][]Program{1: progs}
		np := len(progs)

		const readers = 4
		const evalsPerReader = 3000
		type obs struct {
			h   Header
			seq uint64
			v   []int64
		}
		recs := make([][]obs, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(1000*seed + int64(g)))
				for i := 0; i < evalsPerReader; i++ {
					h := randHeader(r)
					v := make([]int64, np)
					seq, _ := p.Eval(&h, v)
					recs[g] = append(recs[g], obs{h: h, seq: seq, v: v})
				}
			}()
		}

		// Control loop: apply random edits while readers hammer Eval. The
		// control goroutine also pumps packets while a window is open so
		// resolution doesn't depend on reader lifetime.
		cur := progs
		var wantSwaps, wantAborts, wantCommits, ctlEvals uint64
		ctlV := make([]int64, np)
		for i := 0; i < 12; i++ {
			next := mutatePrograms(rng, cur)
			inject := rng.Intn(3) == 0
			window := int64(rng.Intn(200))
			seq, err := p.Swap(next, SwapOptions{Window: window, InjectDivergence: inject})
			if err != nil {
				t.Fatal(err)
			}
			wantSwaps++
			genProgs[seq] = next
			for p.Pending() {
				h := randHeader(rng)
				p.Eval(&h, ctlV)
				ctlEvals++
			}
			if inject && window > 0 {
				wantAborts++
			} else {
				wantCommits++
				cur = next
			}
			if committed := p.CommittedSeq(); !(inject && window > 0) && committed != seq {
				t.Fatalf("swap %d: committed %d want %d", i, committed, seq)
			}
		}
		wg.Wait()

		st := p.Stats()
		if st.Swaps != wantSwaps || st.Aborted != wantAborts || st.Committed != wantCommits || st.Divergences != wantAborts {
			t.Fatalf("seed %d: ledger %+v want swaps=%d committed=%d aborted=%d",
				seed, st, wantSwaps, wantCommits, wantAborts)
		}
		if st.Evals != readers*evalsPerReader+ctlEvals {
			t.Fatalf("seed %d: evals %d want %d", seed, st.Evals, readers*evalsPerReader+ctlEvals)
		}

		// Every observation must match the linear oracle of the rule set
		// committed at its admission point.
		want := make([]int64, np)
		wantM := make([]int32, np)
		oracles := map[uint64]*Linear{}
		for seq, ps := range genProgs {
			oracles[seq] = NewLinear(ps)
		}
		for g := range recs {
			for i, o := range recs[g] {
				ref := oracles[o.seq]
				if ref == nil {
					t.Fatalf("seed %d: reader %d obs %d: unknown generation %d", seed, g, i, o.seq)
				}
				ref.Eval(&o.h, want, wantM)
				for j := 0; j < np; j++ {
					if o.v[j] != want[j] {
						t.Fatalf("seed %d: reader %d obs %d gen %d program %d: verdict %d want %d",
							seed, g, i, o.seq, j, o.v[j], want[j])
					}
				}
			}
		}
	}
}

func TestShadowChangedCountsImpact(t *testing.T) {
	// A swap that flips a verdict on live traffic is not a divergence —
	// it is counted as impact (ShadowChanged) and still commits.
	net, _ := values.ParseNet("10.0.0.0/8")
	old := []Program{{Name: "p", Default: 0, Rules: []Rule{{Src: []AddrPred{AddrInNet(net)}, Verdict: 1}}}}
	new_ := []Program{{Name: "p", Default: 0, Rules: []Rule{{Src: []AddrPred{AddrInNet(net)}, Verdict: 2}}}}
	p, err := New(old)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := p.Swap(new_, SwapOptions{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	v := make([]int64, 1)
	h := HeaderFromV4([4]byte{10, 1, 2, 3}, [4]byte{9, 9, 9, 9}, values.ProtoTCP, 1, 2)
	for i := 0; i < 8; i++ {
		p.Eval(&h, v)
	}
	if p.CommittedSeq() != seq {
		t.Fatalf("verdict-changing swap did not commit: seq %d want %d", p.CommittedSeq(), seq)
	}
	st := p.Stats()
	if st.ShadowChanged != 8 || st.Aborted != 0 {
		t.Fatalf("ledger %+v; all 8 shadow packets changed verdict", st)
	}
}

// TestExplain: Explain reports, per program, the same rule and verdict as
// the linear oracle of the committed generation, before and after a swap;
// it touches neither the ledger nor an open shadow window.
func TestExplain(t *testing.T) {
	progs := basePrograms(t)
	p, err := New(progs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	next := mutatePrograms(rng, progs)
	check := func(ps []Program, seq uint64) {
		t.Helper()
		lin := NewLinear(ps)
		v := make([]int64, len(ps))
		m := make([]int32, len(ps))
		for i := 0; i < 200; i++ {
			h := randHeader(rng)
			lin.Eval(&h, v, m)
			ds := p.Explain(&h)
			if len(ds) != len(ps) {
				t.Fatalf("%d decisions for %d programs", len(ds), len(ps))
			}
			for j, d := range ds {
				want := Decision{Program: ps[j].Name, Gate: ps[j].Gate, Rule: m[j], Verdict: v[j], Seq: seq}
				if d != want {
					t.Fatalf("header %+v program %d: %+v, want %+v", h, j, d, want)
				}
			}
		}
	}
	check(progs, 1)
	const window = 8
	seq, err := p.Swap(next, SwapOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	check(progs, 1) // the candidate rides shadow; the committed set answers
	if st := p.Stats(); st.Evals != 0 || st.ShadowPackets != 0 || !p.Pending() {
		t.Fatalf("Explain moved the plane: ledger %+v, pending %v", st, p.Pending())
	}
	v := make([]int64, p.NumPrograms())
	for i := 0; i < window; i++ {
		h := randHeader(rng)
		p.Eval(&h, v)
	}
	if p.Pending() || p.CommittedSeq() != seq {
		t.Fatalf("swap did not commit: pending %v seq %d", p.Pending(), p.CommittedSeq())
	}
	check(next, seq)
}
