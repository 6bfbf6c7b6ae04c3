// The measuring harness for one workload: verify once, measure resident
// state once, time set-up, then time passes until the run's seconds are used
// up. A pass is one set-up plus one trip of the trace through the system;
// set-up is timed on its own and is never inside a pass's wall time.
// calibrate.go says in which seconds the two timings are reported.

package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// run carries one workload's generated inputs through its passes.
type run struct {
	w    *workload
	in   *inputs
	tsNs []int64 // packet timestamps, precomputed
}

func newRun(w *workload, seed int64, sc scale) (*run, error) {
	in := &inputs{seed: seed, scale: sc}
	sc.Sessions, sc.Txns = max(1, sc.Sessions/w.Shrink), max(1, sc.Txns/w.Shrink)
	in.pkts = makeTrace(w.Trace, seed, sc)
	if len(in.pkts) == 0 {
		return nil, fmt.Errorf("%s: empty trace at scale %s", w.Name, sc.Name)
	}
	in.info = describeTrace(w.Trace, in.pkts)
	if w.NeedsRules {
		cls, err := makeClassifier(sc.Rules, seed)
		if err != nil {
			return nil, err
		}
		in.cls = cls
	}
	r := &run{w: w, in: in, tsNs: make([]int64, len(in.pkts))}
	for i, p := range in.pkts {
		r.tsNs[i] = p.Time.UnixNano()
	}
	return r, nil
}

// packetsPerPass is how many packets one pass offers.
func (r *run) packetsPerPass() int { return len(r.in.pkts) * r.w.Replays }

// setup builds a fresh system.
func (r *run) setup(o runOpts) (system, error) {
	sys, err := r.w.Setup(r.in, o)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", r.w.Name, err)
	}
	return sys, nil
}

// play offers the whole pass to sys in order. Replays after the first
// shift the timestamps past the end of the previous one, so trace time
// never runs backwards.
func (r *run) play(offer func(n int, tsNs int64, frame []byte)) {
	n := 0
	for rep := 0; rep < r.w.Replays; rep++ {
		shift := int64(rep) * (r.in.info.SpanNs + int64(time.Second))
		for i := range r.in.pkts {
			offer(n, r.tsNs[i]+shift, r.in.pkts[i].Data)
			n++
		}
	}
}

// feed plays the pass through sys and finishes it.
func (r *run) feed(sys system) outcome {
	r.play(func(_ int, tsNs int64, frame []byte) { sys.Offer(tsNs, frame) })
	return sys.Finish()
}

// passStats is the cost of one timed pass.
type passStats struct {
	Wall    time.Duration
	Mallocs uint64
	Bytes   uint64
}

// timedPass sets up, then times first packet in to Finish returned.
func (r *run) timedPass(o runOpts) (passStats, outcome, error) {
	sys, err := r.setup(o)
	if err != nil {
		return passStats{}, outcome{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out := r.feed(sys)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return passStats{Wall: wall, Mallocs: after.Mallocs - before.Mallocs, Bytes: after.TotalAlloc - before.TotalAlloc}, out, nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapSamples is how many times the memory pass looks at the heap. Sixteen,
// not four: the WAL's in-memory log grows and is cut every 256 packets, and
// with few samples the maximum depends on where in that cycle they fall.
const heapSamples = 16

// memoryPass measures the state the system holds: the heap after a forced
// collection at every sixteenth of the pass (the last one before Finish),
// less the heap before set-up. The maximum is reported, so the result is
// state held per flow and not a matter of when the collector happened to run.
func (r *run) memoryPass() (liveBytes uint64, out outcome, err error) {
	base := heapAfterGC()
	sys, err := r.setup(runOpts{})
	if err != nil {
		return 0, outcome{}, err
	}
	total := r.packetsPerPass()
	sample := 1
	r.play(func(n int, tsNs int64, frame []byte) {
		sys.Offer(tsNs, frame)
		if sample <= heapSamples && n+1 == total*sample/heapSamples {
			sys.Settle()
			if h := heapAfterGC(); h > base && h-base > liveBytes {
				liveBytes = h - base
			}
			sample++
		}
	})
	return liveBytes, sys.Finish(), nil
}

// --- small statistics ---------------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func quartiles(xs []float64) [3]float64 {
	return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// --- one end-to-end run ---------------------------------------------------------------

// options are the driver's arguments.
type options struct {
	seed    int64
	seconds float64
	scale   scale
	outDir  string // where the span file goes
}

func (r *run) newResult(opt options, traced bool) *result {
	return &result{
		Workload: r.w.Name, Why: r.w.Why, Seed: opt.seed, Seconds: opt.seconds, Traced: traced,
		Env: currentEnvironment(), Scale: r.in.scale, Input: r.in.info, Replays: r.w.Replays,
		PacketsPerPass: r.packetsPerPass(),
		line:           line{Metrics: map[string]metric{}},
	}
}

// verifiedPass makes the pass whose outputs the oracle checks, and records
// what it produced. Later passes discard their logs and are held to this
// pass's counts.
func (r *run) verifiedPass(res *result) (outcome, verification, error) {
	sys, err := r.setup(runOpts{verify: true})
	if err != nil {
		return outcome{}, verification{}, err
	}
	out := r.feed(sys)
	v, err := r.verify(out)
	if err != nil {
		return out, v, err
	}
	res.Events, res.LogLines = out.Events, out.LogLines
	if out.Logs != nil {
		res.LogCounts, res.LogDigests = logDigests(out.Logs)
	}
	res.Attempted += out.Offered
	res.Failed += out.Offered - out.Handled
	res.Problems = append(res.Problems, v.Problems...)
	return out, v, nil
}

// account books an unverified pass. It has to have produced exactly what
// the verified pass did; anything else is a problem, and finish turns a
// problem into every packet failed.
func (r *run) account(res *result, verified, out outcome) {
	res.Attempted += out.Offered
	res.Failed += out.Offered - out.Handled
	res.Problems = append(res.Problems, out.Problems...)
	if out.Offered != verified.Offered || out.Handled != verified.Handled || out.Events != verified.Events || out.LogLines != verified.LogLines {
		res.Problems = append(res.Problems, fmt.Sprintf("pass produced offered/handled/events/log lines %d/%d/%d/%d, the verified pass %d/%d/%d/%d",
			out.Offered, out.Handled, out.Events, out.LogLines, verified.Offered, verified.Handled, verified.Events, verified.LogLines))
	}
}

// finish derives the verdict once all passes are booked.
func (res *result) finish() {
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	if len(res.Problems) > 0 {
		// A failed oracle or a deviating pass fails the workload, not
		// just the packets of one pass.
		res.Failed = res.Attempted
	}
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
}

// timeSetups sets the workload up and tears it down again, back to back,
// until there are enough samples for a steady median: at least 20, then as
// many as fit in half a second, at most 200. The set-ups that passes make
// are not in the sample: they run on caches a pass has just emptied, and
// mixing the two kinds makes the median depend on how many passes fit. It
// returns the median as measured, and how slow the machine was meanwhile.
func (r *run) timeSetups(calib *[]float64) (raw []float64, slowness float64, err error) {
	before := machineSlowness(calib)
	begin := time.Now()
	for n := 0; n < 200 && (n < 20 || time.Since(begin) < 500*time.Millisecond); n++ {
		start := time.Now()
		sys, err := r.setup(runOpts{})
		if err != nil {
			return nil, 0, err
		}
		raw = append(raw, time.Since(start).Seconds())
		sys.Finish()
	}
	return raw, (before + machineSlowness(calib)) / 2, nil
}

// minPasses is the fewest timed passes a run reports a median of.
const minPasses = 3

// runEndToEnd measures the five end-to-end metrics with tracing off.
func runEndToEnd(w *workload, opt options) (*result, error) {
	r, err := newRun(w, opt.seed, opt.scale)
	if err != nil {
		return nil, err
	}
	res := r.newResult(opt, false)
	verified, _, err := r.verifiedPass(res)
	if err != nil {
		return nil, err
	}
	live, out, err := r.memoryPass()
	if err != nil {
		return nil, err
	}
	r.account(res, verified, out)
	var calib []float64
	setups, setupSlowness, err := r.timeSetups(&calib)
	if err != nil {
		return nil, err
	}

	// The machine's slowness is taken between passes, and each pass's rate
	// is scaled by the mean of the two readings around it.
	var raw, rates []float64
	var mallocs, bytes, packets uint64
	slowness := machineSlowness(&calib)
	start := time.Now()
	for len(rates) < minPasses || time.Since(start).Seconds() < opt.seconds {
		ps, out, err := r.timedPass(runOpts{})
		if err != nil {
			return nil, err
		}
		r.account(res, verified, out)
		after := machineSlowness(&calib)
		rate := float64(out.Offered) / ps.Wall.Seconds()
		raw = append(raw, rate)
		rates = append(rates, rate*(slowness+after)/2)
		slowness = after
		mallocs += ps.Mallocs
		bytes += ps.Bytes
		packets += out.Offered
	}
	res.Passes = len(rates)
	res.PktsPerSQuartiles = quartiles(rates)
	res.RawPktsPerSQuartiles = quartiles(raw)
	res.SetupSamples = len(setups)
	res.RawSetupQuartiles = quartiles(setups)
	for i := range calib {
		calib[i] *= 1e3
	}
	res.CalibrationMsQuartiles = quartiles(calib)
	values := map[string]float64{
		"pkts_per_s":          median(rates),
		"allocs_per_pkt":      float64(mallocs) / float64(packets),
		"alloc_bytes_per_pkt": float64(bytes) / float64(packets),
		"live_heap_mb":        float64(live) / (1 << 20),
		"setup_s":             median(setups) / setupSlowness,
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
	}
	res.finish()
	return res, nil
}
