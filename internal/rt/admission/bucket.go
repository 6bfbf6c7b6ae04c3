// Token buckets for smoothed ingest admission. A hard edge — the MaxFlows
// cap and its LRU eviction — bounds state but turns every burst into a
// cliff. A token bucket instead admits at a sustained rate with a bounded
// burst allowance, so short spikes ride through on banked tokens and only
// sustained overload is refused (SNAP's point that stateful packet
// programs need an explicit model of how state and work are bounded).
//
// The arithmetic is pure integer with 128-bit intermediates: adversarial
// timestamps (decades of elapsed trace time, multi-gigahertz rates) must
// neither overflow into a stalled bucket nor mint free tokens. The fuzz
// target FuzzBucketRefill holds these properties under arbitrary
// rate/burst/elapsed sequences.
//
// Buckets are driven by caller-supplied clocks (trace time in the
// pipeline), never wall time, so admission decisions are deterministic
// for a given input — the property the soak harness's seed-determinism
// invariant checks end to end. They are intentionally NOT safe for
// concurrent use: the pipeline consults them only from the single Feed
// goroutine.

package admission

import "math/bits"

const nsPerSec = 1_000_000_000

// Bucket is a deterministic token bucket: Rate tokens accrue per second
// of caller-supplied time, up to Burst banked. Rate <= 0 disables
// enforcement (Allow always succeeds).
type Bucket struct {
	rate   int64 // tokens per second; <= 0 = unlimited
	burst  int64
	tokens int64
	lastNs int64 // clock of the last refill
	inited bool
}

// NewBucket returns a bucket that refills at rate tokens/second and banks
// at most burst (burst < 1 is raised to 1). The bucket starts full.
func NewBucket(rate, burst int64) *Bucket {
	if burst < 1 {
		burst = 1
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst}
}

// Allow takes one token at time nowNs, reporting whether one was
// available.
func (b *Bucket) Allow(nowNs int64) bool { return b.AllowN(nowNs, 1) }

// AllowN takes n tokens at time nowNs; the take is all-or-nothing.
func (b *Bucket) AllowN(nowNs int64, n int64) bool {
	if b.rate <= 0 {
		return true
	}
	if n < 0 {
		n = 0
	}
	b.refill(nowNs)
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// Tokens reports the balance after refilling to nowNs (burst for an
// unlimited bucket).
func (b *Bucket) Tokens(nowNs int64) int64 {
	if b.rate <= 0 {
		return b.burst
	}
	b.refill(nowNs)
	return b.tokens
}

// refill converts elapsed time into tokens. Whole tokens only: lastNs
// advances by exactly the nanoseconds consumed, so fractional progress
// carries to the next call instead of being lost (a bucket polled faster
// than its token period must still fill).
func (b *Bucket) refill(nowNs int64) {
	if !b.inited {
		b.inited = true
		b.lastNs = nowNs
		return
	}
	elapsed := nowNs - b.lastNs
	if elapsed <= 0 {
		return // clock jumped backwards: no refill, no state damage
	}
	// add = elapsed * rate / 1e9, 128-bit intermediate so huge
	// elapsed×rate products saturate instead of wrapping.
	hi, lo := bits.Mul64(uint64(elapsed), uint64(b.rate))
	if hi >= nsPerSec {
		// Quotient exceeds 64 bits: the bucket is unconditionally full.
		b.tokens = b.burst
		b.lastNs = nowNs
		return
	}
	add, _ := bits.Div64(hi, lo, nsPerSec)
	if add == 0 {
		return // sub-token interval: keep lastNs so progress accumulates
	}
	if add >= uint64(b.burst) || b.tokens >= b.burst-int64(add) {
		b.tokens = b.burst
		b.lastNs = nowNs
		return
	}
	b.tokens += int64(add)
	// Consume only the time that minted whole tokens. usedNs <= elapsed
	// by construction, and since usedNs = add*1e9/rate < 2^63, the high
	// word of add*1e9 is < rate — Div64's precondition holds.
	uhi, ulo := bits.Mul64(add, nsPerSec)
	usedNs, _ := bits.Div64(uhi, ulo, uint64(b.rate))
	b.lastNs += int64(usedNs)
}
