package core

import (
	"errors"
	"fmt"

	"mtprefetch/internal/simerr"
)

// The error taxonomy. Every failure a simulation can report falls into
// one of five families, each matchable with errors.Is / errors.As:
//
//   - *OptionError: the caller asked for a nonsensical machine or run
//     (nil workload, invalid config, watchdog wider than MaxCycles).
//     Returned by New before any cycle executes.
//   - ErrMaxCycles: the run reached Options.MaxCycles without finishing.
//   - *LivelockError (wraps ErrLivelock): the forward-progress watchdog
//     saw no warp-instruction retire and no memory fill arrive for a
//     whole window. Carries a DiagSnapshot of the stuck machine.
//   - *InvariantError (wraps ErrInvariant): an opt-in conservation check
//     (Options.Checks) found corrupted bookkeeping — leaked MRQ entries,
//     non-conserved NoC flits, unbalanced scoreboard releases, stall
//     parking out of step with the warps, prefetch-cache lines lost
//     track of, or DRAM parking and buffer bookkeeping out of step.
//   - *CanceledError (wraps ErrCanceled): Options.Ctx ended the run.
//
// The harness adds *harness.RunError, wrapping any of the above (or a
// recovered panic) with the run's identity.

// ErrLivelock is the sentinel matched by errors.Is when the watchdog
// aborts a run for lack of forward progress.
var ErrLivelock = errors.New("no forward progress (livelock)")

// ErrMaxCycles is the sentinel matched by errors.Is when a run reaches
// Options.MaxCycles before the grid completes and memory drains.
var ErrMaxCycles = errors.New("did not finish within MaxCycles")

// maxCyclesError is Run's exit at the cycle cap.
type maxCyclesError struct {
	benchmark string
	maxCycles uint64
}

// Error implements error.
func (e *maxCyclesError) Error() string {
	return fmt.Sprintf("core: %s did not finish within %d cycles", e.benchmark, e.maxCycles)
}

// Unwrap makes errors.Is(err, ErrMaxCycles) true.
func (e *maxCyclesError) Unwrap() error { return ErrMaxCycles }

// ErrCanceled is the sentinel matched by errors.Is when a run was
// aborted through its Options.Ctx — a per-run wall-clock deadline or a
// harness drain — rather than by anything the simulated machine did.
var ErrCanceled = errors.New("run canceled")

// ErrInvariant re-exports simerr.ErrInvariant so callers can match
// invariant failures without importing the leaf package.
var ErrInvariant = simerr.ErrInvariant

// InvariantError re-exports simerr.InvariantError; component packages
// (smcore, mrq, noc, dram, cache, swpref) return it directly.
type InvariantError = simerr.InvariantError

// OptionError reports a rejected Options field from New.
type OptionError struct {
	Field  string // the Options field at fault
	Reason string // human-readable rejection, when Err is nil
	Err    error  // underlying validation error, when one exists
}

// Error implements error.
func (e *OptionError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("core: Options.%s: %v", e.Field, e.Err)
	}
	return fmt.Sprintf("core: Options.%s %s", e.Field, e.Reason)
}

// Unwrap exposes the underlying validation error to errors.Is/As.
func (e *OptionError) Unwrap() error { return e.Err }

// LivelockError is the watchdog's abort: no core retired a warp
// instruction and no memory fill was delivered for Window cycles.
type LivelockError struct {
	Benchmark string
	Cycle     uint64 // cycle at which the watchdog fired
	Window    uint64 // progress window that elapsed without progress
	Snapshot  DiagSnapshot
}

// Error implements error.
func (e *LivelockError) Error() string {
	live := 0
	mrq := 0
	for _, c := range e.Snapshot.Cores {
		live += c.LiveWarps
		mrq += c.MRQOutstanding
	}
	return fmt.Sprintf("core: %s livelocked at cycle %d: no instruction retired and no fill delivered for %d cycles (%d live warps, %d MRQ entries, %d NoC messages in flight)",
		e.Benchmark, e.Cycle, e.Window, live, mrq, e.Snapshot.NoCInFlight)
}

// Unwrap makes errors.Is(err, ErrLivelock) true.
func (e *LivelockError) Unwrap() error { return ErrLivelock }

// CanceledError is the abort raised when Options.Ctx is done: the run's
// wall-clock deadline expired or its caller began draining. It carries
// the simulation cycle at which the cancellation poll noticed, so a
// resumable sweep can report how far the aborted run got.
type CanceledError struct {
	Benchmark string
	Cycle     uint64 // cycle at which the poll observed the cancellation
	Cause     error  // ctx.Err(): context.Canceled or context.DeadlineExceeded
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("core: %s canceled at cycle %d: %v", e.Benchmark, e.Cycle, e.Cause)
}

// Unwrap exposes both the ErrCanceled sentinel and the context cause,
// so errors.Is matches ErrCanceled, context.Canceled, and
// context.DeadlineExceeded as appropriate.
func (e *CanceledError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }
