// Calibration. This benchmark runs in small shared sandboxes whose speed
// changes under it: on the box it was written on, the same binary on the
// same seed ran between 0.6x and 1.0x of its best speed from one minute to
// the next, all workloads moving together (README.md, "Steadiness"). A
// regression bound of a few percent means nothing against that. So the two
// end-to-end metrics that are wall-clock times are reported in the seconds
// of a reference machine: a fixed piece of work is timed right before and
// after everything that is timed, and the measured time is scaled by how
// much slower or faster than calibrationNominal that work ran just then.
// Counts (allocations, bytes, heap) are never scaled, and the raw
// wall-clock values are kept in the result file.

package main

import (
	"time"
)

// calibrationNominal is how long calibrate takes on the reference machine:
// this repository's 2-vCPU Xeon 2.1 GHz sandbox when nothing disturbs it.
const calibrationNominal = 20 * time.Millisecond

var calibrationSink uint64

// calibrate runs a fixed piece of work that asks of the machine what the
// workloads ask — small allocations kept alive for a while in a map, then
// read again — and returns how long it took. It must never change: every
// recorded baseline is in its units.
func calibrate() time.Duration {
	start := time.Now()
	m := make(map[uint64][]byte, 4096)
	x := uint64(88172645463325252)
	var sum uint64
	for i := 0; i < 60000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b := make([]byte, 32+x%160)
		for j := range b {
			b[j] = byte(x >> (j & 7))
		}
		m[x%4096] = b
		if old, ok := m[(x>>12)%4096]; ok {
			for _, c := range old {
				sum = sum*131 + uint64(c)
			}
		}
	}
	calibrationSink += sum
	return time.Since(start)
}

// calibrationSamples is how many times the work is run at each point.
const calibrationSamples = 3

// machineSlowness times the calibration work and returns how its median
// compares with the reference machine's: 1.25 means this machine is, right
// now, a quarter slower. The raw samples are appended to log.
func machineSlowness(log *[]float64) float64 {
	var s []float64
	for i := 0; i < calibrationSamples; i++ {
		s = append(s, calibrate().Seconds())
	}
	*log = append(*log, s...)
	return median(s) / calibrationNominal.Seconds()
}
