// Package faults provides deterministic fault injectors for chaos
// testing the simulator's robustness machinery (core.FaultInjector):
// a stalled issue stage to trip the forward-progress watchdog, dropped
// memory responses and completions to trip the watchdog and the
// scoreboard-balance invariant, and a stride-table corrupter to show
// that bad prefetch candidates degrade performance without breaking
// correctness. Injectors are single-run: they hold counters, so build
// a fresh one per simulation.
package faults

import (
	"mtprefetch/internal/core"
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/prefetch"
)

// Injector implements core.FaultInjector with three independent,
// deterministic fault dials. The zero value injects nothing; use the
// constructors (or New) so the disabled-core sentinel is set.
type Injector struct {
	// StalledCore suppresses one core's issue stage (-1 disables).
	StalledCore int
	// StallFrom is the first cycle the stall applies.
	StallFrom uint64
	// DropResponseN discards the Nth memory response outright (1-based;
	// 0 disables): its MRQ entry leaks and its waiters sleep forever.
	DropResponseN uint64
	// DropCompletionN frees the Nth demand response's MRQ entry without
	// waking its waiters (1-based; 0 disables) — the lost-wakeup fault.
	DropCompletionN uint64

	responses uint64 // responses seen, for DropResponseN
	demands   uint64 // demand responses seen, for DropCompletionN
}

var _ core.FaultInjector = (*Injector)(nil)

// New returns an Injector with every fault disabled.
func New() *Injector { return &Injector{StalledCore: -1} }

// StallIssue builds an injector that freezes core's issue stage from
// cycle from onward. In-flight memory eventually drains, no instruction
// retires, and the watchdog must fire.
func StallIssue(coreID int, from uint64) *Injector {
	i := New()
	i.StalledCore = coreID
	i.StallFrom = from
	return i
}

// DropNthResponse builds an injector that discards the nth (1-based)
// memory response on its way to the core.
func DropNthResponse(n uint64) *Injector {
	i := New()
	i.DropResponseN = n
	return i
}

// DropNthCompletion builds an injector that completes the nth (1-based)
// demand response's MRQ entry without waking its waiters, unbalancing
// the scoreboard for the invariant checker to catch.
func DropNthCompletion(n uint64) *Injector {
	i := New()
	i.DropCompletionN = n
	return i
}

// NextEvent implements core.EventSource, keeping chaos runs compatible
// with event-driven cycle skipping. Every dial triggers on cycles the
// loop visits regardless: response faults fire on response-delivery
// cycles, and the issue stall only suppresses action on cycles the core
// would otherwise act — so the injector never needs a wakeup of its own.
func (i *Injector) NextEvent(cycle uint64) uint64 { return ^uint64(0) }

// StallCore implements core.FaultInjector.
func (i *Injector) StallCore(cycle uint64, coreID int) bool {
	return i.StalledCore == coreID && cycle >= i.StallFrom
}

// OnResponse implements core.FaultInjector.
func (i *Injector) OnResponse(cycle uint64, r *memreq.Request) core.ResponseAction {
	i.responses++
	if i.DropResponseN != 0 && i.responses == i.DropResponseN {
		return core.DropResponse
	}
	if r.Kind == memreq.Demand {
		i.demands++
		if i.DropCompletionN != 0 && i.demands == i.DropCompletionN {
			return core.DropCompletion
		}
	}
	return core.DeliverResponse
}

// CorruptStride wraps a hardware prefetcher and XORs Mask into every
// candidate address it emits once After observations have passed —
// modelling a corrupted stride-table entry. The machine must absorb the
// garbage prefetches (wasted bandwidth, polluted cache) and still finish
// with correct accounting; chaos tests run it under Options.Checks.
type CorruptStride struct {
	Inner prefetch.Prefetcher
	After uint64 // observations before corruption starts
	Mask  uint64 // XORed into candidate block addresses

	seen uint64
}

var _ prefetch.Prefetcher = (*CorruptStride)(nil)

// Observe implements prefetch.Prefetcher.
func (c *CorruptStride) Observe(t prefetch.Train, out []prefetch.Candidate) []prefetch.Candidate {
	before := len(out)
	out = c.Inner.Observe(t, out)
	c.seen++
	if c.seen > c.After {
		for i := before; i < len(out); i++ {
			out[i].Addr ^= c.Mask
		}
	}
	return out
}
