// The packet-fate ledger. A packet offered to the pipeline ends in exactly
// one Fate; each side of the pipeline that can end a packet — the feeding
// goroutine and every worker — counts into its own Tally, and every other
// packet counter in the repo (this package's Ledger, the pipeline's
// WorkerStats fields and its metric series) is a read-only view over those
// arrays. The codes are also the outcome byte of a pipeline WAL record, so
// their order is part of the snapshot format.

package admission

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Fate is a packet's terminal outcome.
type Fate uint8

const (
	// Worker side: decided by the packet job on the flow's worker.
	FateProcessed      Fate = iota // the handler returned
	FateFault                      // the handler panicked; the flow is now quarantined
	FateQuarantineDrop             // the flow was already quarantined
	FateShed                       // new flow refused by the degradation ladder
	FateDiscarded                  // drained while the worker slot served a stall quarantine
	FateRolledBack                 // the packet that wedged a worker, and work since its recovery point

	// Feeder side: decided in Feed, before the packet costs a copy.
	FatePlaneDrop   // a rule-plane gate program rejected it
	FateRateLimited // the global or per-prefix bucket refused it
	FateSampled     // dropped by tier-3 sampling
	FateUnscheduled // the scheduler refused the job (pipeline shutting down)

	NFates
)

var fateNames = [NFates]string{
	"processed", "fault", "quarantine-drop", "shed", "discarded", "rolled-back",
	"plane-drop", "rate-limited", "sampled", "unscheduled",
}

func (f Fate) String() string {
	if f < NFates {
		return fateNames[f]
	}
	return "unknown"
}

// Counts is a snapshot of fate counters, indexed by Fate.
type Counts [NFates]uint64

// String lists the nonzero fates by name.
func (c Counts) String() string {
	var sb strings.Builder
	for f, n := range c {
		if n != 0 {
			fmt.Fprintf(&sb, " %v=%d", Fate(f), n)
		}
	}
	return "[" + strings.TrimPrefix(sb.String(), " ") + "]"
}

// Sum is the number of packets the counts account for.
func (c Counts) Sum() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// Plus adds two snapshots fate by fate.
func (c Counts) Plus(o Counts) Counts {
	for f := range c {
		c[f] += o[f]
	}
	return c
}

// Tally is one side's live fate counters. It has a single writer (the
// goroutine that owns the side); any goroutine may read.
type Tally [NFates]atomic.Uint64

// Counts snapshots the tally.
func (t *Tally) Counts() Counts {
	var c Counts
	for f := range t {
		c[f] = t[f].Load()
	}
	return c
}

// Set overwrites the tally, for restoring one from a checkpoint.
func (t *Tally) Set(c Counts) {
	for f := range t {
		t[f].Store(c[f])
	}
}
