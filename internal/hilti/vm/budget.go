// Execution budgets: per-invocation instruction limits and wall-clock
// deadlines, enforced inside the dispatch loop.
//
// The paper's safety model (§3) makes illegal operations raise catchable
// exceptions rather than crash the host; budgets extend that guarantee to
// non-termination. A buggy or adversarial program that would otherwise spin
// forever inside Exec raises Hilti::ResourceExhausted through the ordinary
// handler machinery instead — host applications catch it like any other
// exception, and HILTI code itself can handle it with try/catch. The check
// is a single counter increment and compare per instruction; the expensive
// wall-clock read is amortized over deadlineCheckEvery instructions, the
// way Deegen-style VMs keep guard machinery out of the dispatch fast path.
package vm

import "time"

// ExcResourceExhausted is raised when an invocation exceeds its instruction
// budget or wall-clock deadline.
const ExcResourceExhausted = "Hilti::ResourceExhausted"

const (
	// deadlineCheckEvery bounds how often the dispatch loop reads the
	// wall clock when a deadline is armed.
	deadlineCheckEvery = 4096
	// budgetGrace is the extra allotment granted after each
	// ResourceExhausted raise so catch handlers can unwind; a handler
	// that keeps looping trips the check again and propagates outward.
	budgetGrace = 4096
	// noCheck disables budget checkpoints entirely.
	noCheck = ^uint64(0)
)

// Limits bounds one top-level invocation (a Call/CallFn from the host, or
// a parked call across all of its resumes).
type Limits struct {
	// Instructions caps the number of VM instructions executed
	// (0 = unlimited). The count accumulates across a call's resumes.
	Instructions uint64
	// Deadline caps wall-clock execution time (0 = none). For parked
	// calls the deadline re-arms on every resume, so time spent waiting
	// for input does not count.
	Deadline time.Duration
}

// budgetState is the armed-budget portion of an Exec; Resume swaps the
// Resumable's own in, so interleaved parked calls (one per connection) each
// account against their own invocation.
type budgetState struct {
	steps      uint64
	nextCheck  uint64
	instrLimit uint64
	deadline   time.Time
	vmDepth    int
}

// freshBudget is the state of an Exec with nothing armed.
func freshBudget() budgetState {
	return budgetState{nextCheck: noCheck, instrLimit: noCheck}
}

// armBudget resets the accounting for a new top-level invocation.
func (ex *Exec) armBudget() {
	ex.budget.steps = 0
	ex.budget.instrLimit = noCheck
	ex.budget.deadline = time.Time{}
	if ex.Limits.Instructions > 0 {
		ex.budget.instrLimit = ex.Limits.Instructions
	}
	if ex.Limits.Deadline > 0 {
		ex.budget.deadline = time.Now().Add(ex.Limits.Deadline)
	}
	ex.scheduleNextCheck()
}

// rearmDeadline refreshes the wall-clock deadline of an in-flight
// invocation; called when a parked call resumes.
func (ex *Exec) rearmDeadline() {
	if ex.budget.vmDepth > 0 && ex.Limits.Deadline > 0 {
		ex.budget.deadline = time.Now().Add(ex.Limits.Deadline)
		ex.scheduleNextCheck()
	}
}

// scheduleNextCheck computes the step count at which the dispatch loop
// next leaves the fast path.
func (ex *Exec) scheduleNextCheck() {
	next := ex.budget.instrLimit
	if !ex.budget.deadline.IsZero() {
		if c := ex.budget.steps + deadlineCheckEvery; c < next {
			next = c
		}
	}
	ex.budget.nextCheck = next
}

// checkBudget runs at a checkpoint: raise ResourceExhausted if a limit is
// exceeded, otherwise schedule the next checkpoint and retry the current
// instruction. Each raise grants a grace allotment so an in-language
// handler can unwind; repeated exhaustion propagates out of the handler.
func (ex *Exec) checkBudget() int {
	if ex.budget.steps >= ex.budget.instrLimit {
		ex.budget.instrLimit += budgetGrace
		ex.scheduleNextCheck()
		if ex.Met != nil {
			ex.Met.LimitTrips.Inc()
		}
		return ex.raise(ExcResourceExhausted, "instruction budget exceeded")
	}
	if !ex.budget.deadline.IsZero() && time.Now().After(ex.budget.deadline) {
		ex.budget.deadline = time.Now().Add(budgetGrace * time.Microsecond)
		ex.scheduleNextCheck()
		ex.deadlineTrips++
		if ex.Met != nil {
			ex.Met.LimitTrips.Inc()
		}
		return ex.raise(ExcResourceExhausted, "execution deadline exceeded")
	}
	ex.scheduleNextCheck()
	return pcRetry
}

// DeadlineTrips returns how many times a wall-clock Deadline raised
// ResourceExhausted on this Exec: the one budget outcome that depends on
// more than the program and its inputs.
func (ex *Exec) DeadlineTrips() uint64 { return ex.deadlineTrips }

// Steps returns the number of instructions executed by the current (or
// most recent) budgeted invocation; diagnostic only.
func (ex *Exec) Steps() uint64 { return ex.budget.steps }
