package core

import (
	"fmt"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/smcore"
)

// This file holds the robustness layer around the Run loop: the
// forward-progress watchdog, the opt-in invariant sweeps, fault
// injection hooks, and the diagnostic snapshot attached to failures.

// DiagSnapshot captures the machine state at the moment of a failure;
// it is embedded in LivelockError and serialised into crash dumps.
type DiagSnapshot struct {
	Benchmark        string        `json:"benchmark"`
	Cycle            uint64        `json:"cycle"`
	Cores            []smcore.Diag `json:"cores"`
	NoCInFlight      int           `json:"noc_in_flight"`
	DRAMBackpressure int           `json:"dram_backpressure"` // requests parked behind full DRAM queues
	DRAMQueues       []int         `json:"dram_queues"`       // per-channel request-queue depth
	DRAMParked       []int         `json:"dram_parked"`       // per-channel parked depth
}

// Diag snapshots the live machine: per-core warp states and MRQ
// occupancy, NoC in-flight count, and DRAM queue and parked depths.
func (s *Simulator) Diag() DiagSnapshot {
	d := DiagSnapshot{
		Benchmark:        s.spec.Name,
		Cycle:            s.cycle,
		NoCInFlight:      s.net.InFlight(),
		DRAMBackpressure: s.mem.Parked(),
	}
	for _, c := range s.cores {
		d.Cores = append(d.Cores, c.Diag())
	}
	for ch := 0; ch < s.cfg.DRAMChannels; ch++ {
		d.DRAMQueues = append(d.DRAMQueues, s.mem.QueueLen(ch))
		d.DRAMParked = append(d.DRAMParked, s.mem.ParkedLen(ch))
	}
	return d
}

// ResponseAction is a FaultInjector's verdict on one memory response.
type ResponseAction uint8

const (
	// DeliverResponse lets the fill through untouched.
	DeliverResponse ResponseAction = iota
	// DropResponse discards the fill entirely: the MRQ entry stays
	// allocated and its waiters stay blocked — the lost-message fault.
	DropResponse
	// DropCompletion frees the MRQ entry but never wakes the waiting
	// warps — the lost-wakeup fault the scoreboard-balance check catches.
	DropCompletion
)

// FaultInjector perturbs a run for chaos testing (internal/faults
// provides implementations). Both methods are called on the hot loop,
// so implementations must be cheap; a nil injector costs two nil
// checks per cycle.
type FaultInjector interface {
	// StallCore reports whether the given core's issue stage should be
	// suppressed this cycle.
	StallCore(cycle uint64, core int) bool
	// OnResponse inspects a memory response about to be delivered and
	// decides its fate.
	OnResponse(cycle uint64, r *memreq.Request) ResponseAction
}

// EventSource is the optional interface a FaultInjector implements to
// stay compatible with event-driven cycle skipping: NextEvent returns
// the next cycle at which the injector needs the simulation loop to
// visit on its behalf (the maximum uint64 for "never" — appropriate for
// injectors whose faults trigger only on cycles the loop visits anyway,
// such as response perturbations). An injector that does not implement
// EventSource disables skipping for the whole run, which is always
// correct, just slower.
type EventSource interface {
	NextEvent(cycle uint64) uint64
}

// RunFaulter is the optional interface a FaultInjector implements to
// abort the whole run with an error of its choosing — the hook chaos
// tests use to simulate transient environmental failures (a flaky run
// that heals on retry returns simerr.Transient errors for its first N
// executions, then nil forever). RunFault is polled once per visited
// cycle, after the cores step; the first non-nil error aborts the run
// immediately. An injector whose fault must fire at a specific cycle
// should also report that cycle from NextEvent so event-driven skipping
// visits it.
type RunFaulter interface {
	RunFault(cycle uint64) error
}

// checkProgress is the watchdog: called every watchWindow cycles, it
// compares retired warp-instructions and delivered fills against the
// previous window. Neither moving means no warp can ever become ready
// again — the machine is livelocked, and MaxCycles (default 500M) would
// burn hours before the timeout notices.
func (s *Simulator) checkProgress(cyc uint64) error {
	instr := s.reg.Sum("smcore.instructions")
	if instr == s.lastInstr && s.fills == s.lastFills {
		return &LivelockError{
			Benchmark: s.spec.Name,
			Cycle:     cyc,
			Window:    s.watchWindow,
			Snapshot:  s.Diag(),
		}
	}
	s.lastInstr = instr
	s.lastFills = s.fills
	return nil
}

// checkInvariants runs the opt-in conservation sweep (Options.Checks):
// per-core MRQ entry accounting, prefetch-cache line accounting,
// scoreboard release balance, the wake calendar, NoC flit conservation,
// DRAM buffer and parking bookkeeping, and — with cycle accounting on —
// CPI-stack cycle conservation. The sweep runs after steps 4 and 5 of
// the visited cycle cyc, so cycles 0..cyc are executed.
func (s *Simulator) checkInvariants(cyc uint64) error {
	nsend := 0
	for i, c := range s.cores {
		if err := c.CheckInvariants(cyc); err != nil {
			return err
		}
		if err := s.checkWake(cyc, i); err != nil {
			return err
		}
		if s.sending[i] {
			nsend++
		}
	}
	if nsend != s.nsend {
		return &InvariantError{
			Component: "core", Name: "send-count", Cycle: cyc,
			Detail: fmt.Sprintf("%d cores flagged as sending but the count is %d", nsend, s.nsend),
		}
	}
	if err := s.checkCPIConservation(cyc + 1); err != nil {
		return err
	}
	if err := s.net.CheckInvariants(cyc); err != nil {
		return err
	}
	return s.mem.CheckInvariants(cyc)
}

// checkWake verifies core i's wake-calendar entries: a sleeping core
// (wake entry past cyc) must still report that entry as its NextEvent —
// otherwise something changed its issue state without resetting the
// entry, and phase 4 would oversleep it — and minWake must not exceed
// the entry; its send flag must match its MRQ send queue, or injection
// would pass it over.
func (s *Simulator) checkWake(cyc uint64, i int) error {
	c := s.cores[i]
	if w := s.wake[i]; w < s.minWake {
		return &InvariantError{
			Component: "core", Name: "wake-calendar", Cycle: cyc,
			Detail: fmt.Sprintf("core %d wakes at cycle %d, before the calendar minimum %d", i, w, s.minWake),
		}
	} else if w > cyc {
		if next := c.NextEvent(cyc); next != w {
			return &InvariantError{
				Component: "core", Name: "wake-calendar", Cycle: cyc,
				Detail: fmt.Sprintf("core %d sleeps until cycle %d but its next event is %d", i, w, next),
			}
		}
	}
	if n := c.MRQ.SendQueueLen(); s.sending[i] != (n > 0) {
		return &InvariantError{
			Component: "core", Name: "send-flag", Cycle: cyc,
			Detail: fmt.Sprintf("core %d send flag %v but %d requests wait to be sent", i, s.sending[i], n),
		}
	}
	return nil
}
