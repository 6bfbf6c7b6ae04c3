// Package migrate implements live flow-state migration between pipeline
// instances: an epoch-versioned consistent-hash routing table and a
// coordinator/endpoint handoff protocol of three steps — Begin opens a
// session on the target, Activate ships the bucket's one slice and has the
// target install it, Commit forgets it on the source. The source retains
// the slice until the target acknowledges installation, so a crash, stall,
// or corruption at any step resolves by bounded retry, clean abort back to
// the source, or (after the target's ack) forward completion — never
// split-brain, never double-ownership. The commit point is the
// routing-table flip, which the caller performs only after a committed
// handoff; until then no packet has ever been routed to the target for the
// migrating flows, so rolling the target back is always safe.
//
// The protocol is transport-agnostic: instances in this repository live in
// one process and exchange frames over an in-memory Transport, but every
// byte of state crosses the Transport as a frame — a one-record rt/wal
// segment, checksummed by the WAL's framing — so a socket-backed Transport
// turns the same protocol into a multi-process cluster without touching
// the state machine.
package migrate

import "fmt"

// tableMix scrambles flow hashes before bucketing (Fibonacci hashing) so
// bucket membership is decorrelated from the pipeline's worker sharding,
// which uses the raw hash modulo worker count.
const tableMix = 0x9E3779B97F4A7C15

// Table is the epoch-versioned routing table: a power-of-two number of
// buckets, each owned by one instance. Reads and flips must come from the
// single routing goroutine (the cluster feed loop); the table is plain
// data on purpose so routing costs one multiply, one shift, and one load
// per packet.
type Table struct {
	shift uint
	owner []int
	epoch uint64
}

// NewTable builds a table with the given bucket count (a power of two)
// and assigns buckets round-robin across instances 0..instances-1.
func NewTable(buckets, instances int) (*Table, error) {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		return nil, fmt.Errorf("migrate: bucket count %d is not a positive power of two", buckets)
	}
	if instances <= 0 {
		return nil, fmt.Errorf("migrate: need at least one instance, got %d", instances)
	}
	if instances > buckets {
		return nil, fmt.Errorf("migrate: %d instances exceed %d buckets", instances, buckets)
	}
	t := &Table{owner: make([]int, buckets)}
	for s := buckets; s > 1; s >>= 1 {
		t.shift++
	}
	t.shift = 64 - t.shift // buckets==1 -> shift 64 -> bucket 0 (Go defines x>>64 == 0)
	for b := range t.owner {
		t.owner[b] = b % instances
	}
	return t, nil
}

// Buckets returns the bucket count.
func (t *Table) Buckets() int { return len(t.owner) }

// Epoch returns the current routing epoch. It increments on every flip,
// so two tables agree on ownership iff they agree on the epoch.
func (t *Table) Epoch() uint64 { return t.epoch }

// BucketOf maps a flow's virtual id to its bucket.
func (t *Table) BucketOf(vid uint64) int {
	return int((vid * tableMix) >> t.shift)
}

// Owner returns the instance owning vid's bucket.
func (t *Table) Owner(vid uint64) int { return t.owner[t.BucketOf(vid)] }

// OwnerOf returns the instance owning bucket b.
func (t *Table) OwnerOf(b int) int { return t.owner[b] }

// Flip atomically (with respect to the routing goroutine) reassigns
// bucket b to instance `to` and returns the new epoch. This is the commit
// point of a migration: packets for the bucket route to the new owner
// from the next Feed call on.
func (t *Table) Flip(b, to int) uint64 {
	t.owner[b] = to
	t.epoch++
	return t.epoch
}

// BucketsOf returns the buckets owned by instance inst, ascending.
func (t *Table) BucketsOf(inst int) []int {
	var out []int
	for b, o := range t.owner {
		if o == inst {
			out = append(out, b)
		}
	}
	return out
}

// Counts returns, for instances 0..n-1, how many buckets each owns.
func (t *Table) Counts(n int) []int {
	out := make([]int, n)
	for _, o := range t.owner {
		if o >= 0 && o < n {
			out[o]++
		}
	}
	return out
}

// Rebalance returns the flips (bucket, newOwner) that would even out
// bucket ownership across instances 0..n-1, preferring to move buckets
// from the most-loaded instances. It does not modify the table; the
// caller migrates each bucket and flips only on commit.
func (t *Table) Rebalance(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	counts := t.Counts(n)
	want := len(t.owner) / n
	extra := len(t.owner) % n
	target := make([]int, n)
	for i := range target {
		target[i] = want
		if i < extra {
			target[i]++
		}
	}
	var flips [][2]int
	for b, o := range t.owner {
		if o >= 0 && o < n && counts[o] <= target[o] {
			continue
		}
		// Bucket b is surplus (or owned by a retired instance >= n):
		// hand it to the neediest instance.
		dst := -1
		for i := 0; i < n; i++ {
			if counts[i] < target[i] && (dst < 0 || counts[i] < counts[dst]) {
				dst = i
			}
		}
		if dst < 0 {
			continue
		}
		if o >= 0 && o < n {
			counts[o]--
		}
		counts[dst]++
		flips = append(flips, [2]int{b, dst})
	}
	return flips
}
