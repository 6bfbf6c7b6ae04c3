package admission

import (
	"testing"

	"hilti/internal/pkt/flow"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/timer"
)

func key(srcPort, dstPort uint16) flow.Key {
	return flow.Key{
		SrcIP:   v4(10, 0, 0, 1),
		DstIP:   v4(172, 16, 0, 1),
		SrcPort: srcPort,
		DstPort: dstPort,
		Proto:   6,
	}
}

// drive offers packets at the given rate (pkts/s of trace time) for dur,
// starting at startNs, returning the clock after the last packet.
func drive(c *Controller, startNs int64, rate float64, dur timer.Interval) int64 {
	step := int64(float64(nsPerSec) / rate)
	now := startNs
	for now < startNs+int64(dur) {
		c.Offer(now, key(40000, 80), true)
		now += step
	}
	return now
}

func TestStateMachineEscalatesAndRecovers(t *testing.T) {
	c := NewController(Config{TargetRate: 1000})
	// 3x overload: Healthy must give way to Shedding, and the extreme
	// ratio (>= 2.5) must engage the sampling tier.
	now := drive(c, 0, 3000, timer.Seconds(5))
	if c.State() != Shedding {
		t.Fatalf("after 5s of 3x overload: state %v, want shedding", c.State())
	}
	if c.Tier() != TierSampling {
		t.Fatalf("tier %d under 3x overload, want %d", c.Tier(), TierSampling)
	}
	// Load subsides to 10%: Recovering, then Healthy after the dwell.
	now = drive(c, now, 100, timer.Seconds(2))
	if s := c.State(); s != Recovering {
		t.Fatalf("after load subsided: state %v, want recovering", s)
	}
	if c.Tier() != TierShedLow {
		t.Fatalf("recovering tier %d, want %d (budgets restored, shed-low retained)", c.Tier(), TierShedLow)
	}
	drive(c, now, 100, timer.Seconds(5))
	if s := c.State(); s != Healthy {
		t.Fatalf("after recovery dwell: state %v, want healthy", s)
	}
	if c.Tier() != TierNone {
		t.Fatalf("healthy tier %d, want 0", c.Tier())
	}
	// The transition log must end with the recovery walk. (A steep ramp
	// may cross both escalation thresholds inside one window roll, so
	// the Degraded stop on the way up is not guaranteed.)
	var states []State
	for _, tr := range c.Transitions() {
		if len(states) == 0 || states[len(states)-1] != tr.To {
			states = append(states, tr.To)
		}
	}
	tail := []State{Shedding, Recovering, Healthy}
	if len(states) < len(tail) {
		t.Fatalf("transition states %v, want suffix %v", states, tail)
	}
	for i := range tail {
		if states[len(states)-len(tail)+i] != tail[i] {
			t.Fatalf("transition states %v, want suffix %v", states, tail)
		}
	}
}

func TestHysteresisHoldsDegradedNearThreshold(t *testing.T) {
	c := NewController(Config{TargetRate: 1000})
	now := drive(c, 0, 1200, timer.Seconds(3))
	if c.State() != Degraded {
		t.Fatalf("1.2x overload: state %v, want degraded", c.State())
	}
	// 0.9x sits between RecoverRatio (0.85) and DegradedRatio (1.0):
	// the machine must hold Degraded, not flap.
	drive(c, now, 900, timer.Seconds(3))
	if c.State() != Degraded {
		t.Fatalf("0.9x after overload: state %v, want degraded (hysteresis)", c.State())
	}
}

func TestOnTierHookFires(t *testing.T) {
	c := NewController(Config{TargetRate: 1000})
	var tiers []int
	c.OnTier(func(tier int) { tiers = append(tiers, tier) })
	now := drive(c, 0, 3000, timer.Seconds(5))
	drive(c, now, 50, timer.Seconds(10))
	if len(tiers) == 0 {
		t.Fatal("OnTier hook never fired")
	}
	if tiers[len(tiers)-1] != TierNone {
		t.Fatalf("final tier hook %d, want 0 after recovery", tiers[len(tiers)-1])
	}
	saw3 := false
	for _, tr := range tiers {
		if tr == TierSampling {
			saw3 = true
		}
	}
	if !saw3 {
		t.Fatal("sampling tier never reached under 3x overload")
	}
}

func TestSamplingSparesHighClass(t *testing.T) {
	// TargetRate 1 makes any traffic an extreme overload, pinning the
	// controller at the sampling tier after the first window rolls.
	c := NewController(Config{TargetRate: 1, SampleN: 4})
	now := drive(c, 0, 1000, timer.Seconds(1)) // warm up to tier 3
	if c.Tier() != TierSampling {
		t.Fatalf("warmup tier %d, want %d", c.Tier(), TierSampling)
	}
	normalAdmit, highAdmit := 0, 0
	const n = 1000
	for i := 0; i < n; i++ {
		now += 1e6
		if d := c.Offer(now, key(40000, 80), true); !d.Drop {
			normalAdmit++
		}
		now += 1e6
		if d := c.Offer(now, key(40000, 53), true); !d.Drop {
			highAdmit++
		}
	}
	if highAdmit != n {
		t.Fatalf("high-class admits %d/%d; sampling must spare High", highAdmit, n)
	}
	if normalAdmit < n/8 || normalAdmit > n/2 {
		t.Fatalf("normal-class admits %d/%d, want ~1 in %d", normalAdmit, n, c.cfg.SampleN)
	}
	l := c.LedgerSnapshot()
	if l.Sampled == 0 {
		t.Fatal("ledger recorded no sampled drops")
	}
}

func TestGlobalBucketRateLimits(t *testing.T) {
	c := NewController(Config{GlobalRate: 10, GlobalBurst: 5})
	drops := 0
	for i := 0; i < 50; i++ {
		if d := c.Offer(0, key(40000, 80), true); d.Drop {
			drops++
		}
	}
	if drops != 45 {
		t.Fatalf("burst-5 bucket at one instant dropped %d/50, want 45", drops)
	}
	l := c.LedgerSnapshot()
	if l.RateLimited != 45 || l.Offered != 50 {
		t.Fatalf("ledger %+v, want 45 rate-limited of 50 offered", l)
	}
}

func TestLedgerIdentity(t *testing.T) {
	c := NewController(Config{TargetRate: 1, GlobalRate: 500, GlobalBurst: 50, SampleN: 4})
	// Stand in for the hosting pipeline: a feeder tally, and worker-side
	// fates settled below.
	var feeder Tally
	var workers Counts
	var established uint64
	c.Attach(&feeder, 0, func() (Counts, uint64) { return workers, established })
	now := int64(0)
	for i := 0; i < 5000; i++ {
		now += 2 * 1e6 // 500/s offered
		d := c.Offer(now, key(uint16(40000+i%100), 80), true)
		if d.Drop {
			continue // Offer counted it as rate-limited or sampled
		}
		switch i % 10 {
		case 0:
			workers[FateShed]++
		case 1:
			workers[FateQuarantineDrop]++
		case 2:
			feeder[FateUnscheduled].Add(1)
		case 3:
			workers[FateFault]++
		default:
			workers[FateProcessed]++
			if i%3 == 0 {
				established++
			}
		}
	}
	l := c.LedgerSnapshot()
	if !l.Balanced() {
		t.Fatalf("ledger identity broken: %+v (sum %d vs offered %d)",
			l, l.Admitted+l.Shed+l.Sampled+l.RateLimited+l.Rejected, l.Offered)
	}
	if l.Sampled == 0 || l.Sampled != feeder[FateSampled].Load() {
		t.Fatalf("Offer's own drops did not land in the attached tally: %+v", l)
	}
	if l.Admitted != workers[FateProcessed]+workers[FateFault] || l.Shed != workers[FateShed] ||
		l.Rejected != workers[FateQuarantineDrop]+feeder[FateUnscheduled].Load() {
		t.Fatalf("view %+v does not match worker fates %v", l, workers)
	}
	if l.EstAdmitted != established || l.EstOffered != established+workers[FateQuarantineDrop] {
		t.Fatalf("established %d/%d, want %d/%d", l.EstAdmitted, l.EstOffered,
			established, established+workers[FateQuarantineDrop])
	}
}

func TestDefaultClassify(t *testing.T) {
	if got := DefaultClassify(flow.Key{}, false); got != Low {
		t.Fatalf("unkeyable frame class %v, want low", got)
	}
	if got := DefaultClassify(key(40000, 53), true); got != High {
		t.Fatalf("DNS class %v, want high", got)
	}
	if got := DefaultClassify(key(53, 40000), true); got != High {
		t.Fatalf("DNS (src 53) class %v, want high", got)
	}
	if got := DefaultClassify(key(40000, 80), true); got != Normal {
		t.Fatalf("HTTP class %v, want normal", got)
	}
}

func TestShedNewFlowLadder(t *testing.T) {
	cases := []struct {
		tier  int
		class Class
		want  bool
	}{
		{TierNone, Low, false},
		{TierShedLow, Low, true},
		{TierShedLow, Normal, false},
		{TierShedLow, High, false},
		{TierShrink, Low, true},
		{TierShrink, Normal, true},
		{TierShrink, High, false},
		{TierSampling, Normal, true},
		{TierSampling, High, false},
	}
	for _, tc := range cases {
		if got := ShedNewFlow(tc.tier, tc.class); got != tc.want {
			t.Errorf("ShedNewFlow(%d, %v) = %v, want %v", tc.tier, tc.class, got, tc.want)
		}
	}
	if IdleShift(TierShrink) != 1 || IdleShift(TierShedLow) != 0 {
		t.Error("IdleShift: want 1 at tier 2+, 0 below")
	}
}

func TestTrafficGapDecaysEstimate(t *testing.T) {
	c := NewController(Config{TargetRate: 1000})
	now := drive(c, 0, 3000, timer.Seconds(3))
	if c.State() == Healthy {
		t.Fatal("overload did not leave Healthy")
	}
	// A minute of silence, then one packet: the estimate must have
	// decayed to ~0, not held the stale overload reading.
	c.Offer(now+60*int64(timer.Seconds(1)), key(40000, 80), true)
	if c.Rate() > 1 {
		t.Fatalf("EWMA after 60s gap = %g, want ~0", c.Rate())
	}
}

func TestNilControllerIsSafe(t *testing.T) {
	var c *Controller
	c.Attach(new(Tally), 0, nil)
	if c.State() != Healthy || c.Tier() != TierNone {
		t.Fatal("nil controller must read as healthy/tier 0")
	}
	if l := c.LedgerSnapshot(); l.Offered != 0 {
		t.Fatal("nil controller ledger must be zero")
	}
	if c.Transitions() != nil {
		t.Fatal("nil controller transitions must be nil")
	}
}

func TestMetricsCollector(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewController(Config{
		TargetRate: 1000, PrefixRate: 100000, PrefixBurst: 1000,
		Metrics: reg,
	})
	drive(c, 0, 3000, timer.Seconds(2))
	samples := reg.Gather()
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	if off := byName["admission_offered_total"]; off < 6000 || off > 6010 {
		t.Fatalf("offered gauge %v, want ~6000", off)
	}
	if byName["admission_state"] == 0 {
		t.Fatal("state gauge still healthy under 3x overload")
	}
	if _, ok := byName["admission_prefixes_tracked"]; !ok {
		t.Fatal("prefix gauges missing with prefix limiter enabled")
	}
	if byName["admission_transitions_total"] == 0 {
		t.Fatal("transition counter never moved")
	}
}
