// Package simerr defines the simulator's shared error taxonomy for
// broken internal invariants. It lives below every machine component
// (smcore, mrq, noc, dram, cache, swpref) so each can return typed errors
// without importing internal/core; core re-exports the types so callers
// match the whole taxonomy through one package (core.ErrInvariant,
// *core.InvariantError).
package simerr

import (
	"errors"
	"fmt"
)

// ErrInvariant is the sentinel matched by errors.Is for every
// InvariantError, regardless of which component raised it.
var ErrInvariant = errors.New("simulator invariant violated")

// InvariantError reports a broken conservation property inside the
// simulated machine: state that the design guarantees can never occur
// (an MSHR entry leak, a lost NoC flit, an unbalanced scoreboard
// release). It always indicates a simulator bug — or a deliberately
// injected fault (internal/faults) — never a property of the workload.
type InvariantError struct {
	// Component is the raising subsystem: "smcore", "mrq", "noc",
	// "dram", "pfcache", "swpref".
	Component string
	// Name is a stable identifier of the violated invariant, e.g.
	// "scoreboard-balance" or "flit-conservation".
	Name string
	// Cycle is the simulation cycle of detection; 0 for violations found
	// outside cycle-by-cycle execution (e.g. kernel transforms).
	Cycle uint64
	// Detail describes the observed inconsistency.
	Detail string
}

// Error implements error.
func (e *InvariantError) Error() string {
	if e.Cycle > 0 {
		return fmt.Sprintf("%s: invariant %s violated at cycle %d: %s",
			e.Component, e.Name, e.Cycle, e.Detail)
	}
	return fmt.Sprintf("%s: invariant %s violated: %s", e.Component, e.Name, e.Detail)
}

// Unwrap makes every InvariantError match ErrInvariant.
func (e *InvariantError) Unwrap() error { return ErrInvariant }
