package pipeline

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"hilti/internal/rt/admission"
	"hilti/internal/rt/timer"
)

// The packet-fate identity: whatever happens to a packet — gated, rate
// limited, sampled, shed, faulted, quarantine-dropped, processed, or lost
// to a wedged worker — it ends in exactly one fate, and the fates plus the
// packets in flight add up to the packets offered. The cells below hold
// that across a checkpoint/restore and a supervised stall recovery, both
// of which go through the shards' write-ahead logs.

const (
	fatePanic = 0xEE // payload byte that panics the handler
	fateStall = 0xDD // payload byte that wedges it
)

type fatePkt struct {
	ts    int64
	frame []byte
}

// fateTrace is a seeded hostile mix over six seconds of trace time: a calm
// second that establishes flows, a one-second new-flow flood at several
// times the controller's target rate (shedding, then sampling, with the
// global bucket refusing the peaks), and a calm tail in which the
// controller recovers. Throughout: packets to a gated address, flows whose
// third packet panics the handler (their later packets are quarantine
// drops), and more live flows than the flow table holds.
func fateTrace(seed int64) []fatePkt {
	rng := rand.New(rand.NewSource(seed))
	src, dst, gated := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, [4]byte{10, 0, 0, 9}
	var out []fatePkt
	seen := map[uint16]int{}
	newFlow := uint16(20000)
	emit := func(ts int64) {
		var f []byte
		switch r := rng.Intn(100); {
		case r < 5:
			f = frame(src, gated, uint16(4000+rng.Intn(8)), 80, []byte{1})
		case r < 15:
			port := uint16(6600 + rng.Intn(12))
			seen[port]++
			payload := byte(1)
			if seen[port] == 3 {
				payload = fatePanic
			}
			f = frame(src, dst, port, 80, []byte{payload, byte(seen[port])})
		case r < 60:
			f = frame(src, dst, uint16(5000+rng.Intn(40)), 80, []byte{2, byte(rng.Intn(256))})
		default:
			newFlow++
			f = frame(src, dst, newFlow, 80, []byte{3})
		}
		out = append(out, fatePkt{ts, f})
	}
	ts := int64(0)
	for ; ts < 1e9; ts += 5e6 { // 200 pkt/s
		emit(ts)
	}
	for ; ts < 2e9; ts += 2e5 { // 5000 pkt/s
		emit(ts)
	}
	for ; ts < 6e9; ts += 5e6 {
		emit(ts)
	}
	return out
}

// fateCfg builds the pipeline under test and the controller in front of
// it. The controller is returned separately because a restored pipeline
// must keep consulting the same one: its rate estimate and tier are not
// checkpoint state, and the cells compare ledgers decision for decision.
func fateCfg(t *testing.T, stallOn byte) (Config, *admission.Controller) {
	adm := admission.NewController(admission.Config{
		TargetRate: 1000, SamplingRatio: 3, SampleN: 4,
		GlobalRate: 4000, GlobalBurst: 50,
		RecoverDwell: timer.Seconds(1),
	})
	cfg := deltaCfg(2, fatePanic, stallOn)
	cfg.MaxFlows = 32
	cfg.FlowIdle = timer.Seconds(2)
	cfg.Admission = adm
	cfg.RulePlane = gateTo(t, [4]byte{10, 0, 0, 9})
	return cfg, adm
}

func feedAll(t *testing.T, p *Pipeline, pkts []fatePkt) {
	t.Helper()
	for _, pk := range pkts {
		if err := p.Feed(pk.ts, pk.frame); err != nil {
			t.Fatalf("feed: %v", err)
		}
	}
}

func checkBalanced(t *testing.T, what string, p *Pipeline, adm *admission.Controller, offered int) Ledger {
	t.Helper()
	l := p.Ledger()
	if !l.Balanced() || l.InFlight != 0 {
		t.Fatalf("%s: ledger unbalanced: offered %d, fates %v (sum %d), in flight %d",
			what, l.Offered, l.Fates, l.Fates.Sum(), l.InFlight)
	}
	if l.Offered != uint64(offered) {
		t.Fatalf("%s: ledger has %d packets offered, %d were fed", what, l.Offered, offered)
	}
	if al := adm.LedgerSnapshot(); !al.Balanced() || al.Offered != l.Offered-l.Fates[admission.FatePlaneDrop] {
		t.Fatalf("%s: admission view unbalanced or out of step with the fate ledger %v: %+v", what, l.Fates, al)
	}
	if fed := p.Fed(); fed != l.Offered-l.Fates[admission.FatePlaneDrop]-l.Fates[admission.FateRateLimited]-
		l.Fates[admission.FateSampled]-l.Fates[admission.FateUnscheduled] {
		t.Fatalf("%s: Fed() = %d does not match the ledger %v", what, fed, l.Fates)
	}
	return l
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPacketFateIdentity(t *testing.T) {
	pkts := fateTrace(7)
	mid := len(pkts) * 2 / 5 // inside the flood, with the ladder engaged
	var straight Ledger
	t.Run("wal/straight", func(t *testing.T) {
		cfg, adm := fateCfg(t, 0)
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, p, pkts)
		p.Close()
		straight = checkBalanced(t, "after close", p, adm, len(pkts))
		for _, f := range []admission.Fate{admission.FateProcessed, admission.FateFault,
			admission.FateQuarantineDrop, admission.FateShed, admission.FatePlaneDrop,
			admission.FateRateLimited, admission.FateSampled} {
			if straight.Fates[f] == 0 {
				t.Errorf("the trace never produced fate %v: %v", f, straight.Fates)
			}
		}
		if st := sumStats(p); st.FlowsEvicted == 0 {
			t.Error("the trace never pushed the flow table over its cap")
		}
	})

	t.Run("wal/restore", func(t *testing.T) {
		cfg, adm := fateCfg(t, 0)
		// Re-base only to close the gaps faults leave: the restored shard
		// is rebuilt record by record since the last one, each fate
		// through replay's settle.
		cfg.CheckpointEvery = 1 << 20
		p1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, p1, pkts[:mid])
		var buf bytes.Buffer
		if err := p1.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		p1.Kill()
		atCut := checkBalanced(t, "at the cut", p1, adm, mid)

		p2, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := checkBalanced(t, "restored", p2, adm, mid); got != atCut {
			t.Fatalf("restored ledger differs from the live one at the cut:\n  live     %+v\n  restored %+v", atCut, got)
		}
		feedAll(t, p2, pkts[mid:])
		p2.Close()
		if got := checkBalanced(t, "after close", p2, adm, len(pkts)); got != straight {
			t.Fatalf("ledger across a restore differs from the straight run's:\n  straight %+v\n  restored %+v", straight, got)
		}
	})

	// One worker, so both wedges hit the same slot: the first costs a
	// replacement, the second trips the replacement-rate limit and the
	// slot discards its queue for the cooldown.
	t.Run("wal/stall", func(t *testing.T) {
		cfg, adm := fateCfg(t, fateStall)
		cfg.Workers = 1
		cfg.CheckpointEvery = 8
		cfg.StallTimeout = 25 * time.Millisecond
		cfg.StallMaxReplaces = 1
		cfg.StallReplaceWindow = time.Minute
		cfg.StallQuarantine = 150 * time.Millisecond
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
		fed := 0
		feed := func(pk ...fatePkt) {
			feedAll(t, p, pk)
			fed += len(pk)
		}
		// Both wedges land in the calm first second, where neither the
		// bucket nor the ladder can take the poison packet first.
		feed(pkts[:150]...)
		feed(fatePkt{pkts[150].ts, frame(src, dst, 7001, 53, []byte{fateStall})})
		waitFor(t, "the first replacement", func() bool { return p.Restarts() == 1 })
		feed(pkts[150:160]...)
		feed(fatePkt{pkts[160].ts, frame(src, dst, 7002, 53, []byte{fateStall})})
		waitFor(t, "the stall quarantine", func() bool { return p.StallQuarantines() == 1 })
		feed(pkts[160:400]...) // drained by the discarding slot
		waitFor(t, "reinstatement", func() bool { return p.QuarantinedWorkers() == 0 })
		feed(pkts[400:]...)
		p.Close()

		l := checkBalanced(t, "after close", p, adm, fed)
		if l.Fates[admission.FateRolledBack] < 2 {
			t.Errorf("rolled back %d packets, want at least the two that wedged", l.Fates[admission.FateRolledBack])
		}
		if l.Fates[admission.FateDiscarded] == 0 {
			t.Error("nothing discarded during the stall quarantine")
		}
		if got := sumStats(p).PacketsRejected; got != l.Fates[admission.FateDiscarded] {
			t.Errorf("PacketsRejected = %d, want the discarded fate's %d", got, l.Fates[admission.FateDiscarded])
		}
	})
}
