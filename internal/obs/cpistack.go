package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"mtprefetch/internal/simerr"
)

// Bucket is one CPI-stack loss category. Every core-cycle is attributed
// to exactly one bucket at the issue site (internal/smcore), so the
// per-core sums partition the run's cycles — the conservation invariant
// CheckConservation verifies.
type Bucket uint8

const (
	// BucketIssued: a warp-instruction issued, or the issue stage was
	// still occupied finishing a previous instruction (multi-cycle
	// occupancy counts as useful issue bandwidth, not a stall).
	BucketIssued Bucket = iota
	// BucketIdle: no resident warp at all — the grid is exhausted and
	// this core's blocks have fully drained.
	BucketIdle
	// BucketScoreboard: resident warps exist but every one is stalled
	// waiting on an outstanding fill (operand scoreboard).
	BucketScoreboard
	// BucketMRQFull: at least one stalled warp was ready to issue a
	// memory instruction but the MRQ had no space — the capacity stall
	// the issue_stall_full_mrq counter ticks.
	BucketMRQFull
	// BucketThrottled: the core was externally prevented from issuing
	// (a fault injector holding the issue stage); zero in production
	// runs.
	BucketThrottled
	// BucketDrain: every resident warp finished its program but fills
	// are still outstanding — the end-of-kernel drain/barrier tail.
	BucketDrain

	// NumBuckets is the bucket count, for arrays indexed by Bucket.
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	BucketIssued:     "issued",
	BucketIdle:       "idle",
	BucketScoreboard: "scoreboard",
	BucketMRQFull:    "mrq_full",
	BucketThrottled:  "throttled",
	BucketDrain:      "drain",
}

// String implements fmt.Stringer.
func (b Bucket) String() string {
	if b < NumBuckets {
		return bucketNames[b]
	}
	return fmt.Sprintf("Bucket(%d)", uint8(b))
}

// DefaultCPIEpoch is the CPI-stack epoch length when the configuration
// leaves it unset.
const DefaultCPIEpoch = 10_000

// CoreCPI is one core's bucket counters. The core holds a pointer and
// increments Buckets directly on its issue path, so attribution is one
// nil check plus one add per cycle.
type CoreCPI struct {
	Buckets [NumBuckets]uint64
}

// Cycles sums the buckets — the cycles attributed to this core so far.
func (c *CoreCPI) Cycles() uint64 {
	var n uint64
	for _, v := range c.Buckets {
		n += v
	}
	return n
}

// Tolerance is one core's latency-tolerance snapshot: the signals that
// say how much memory latency the core can still hide (ready warps to
// switch to, MRQ/MSHR headroom to issue into, and how stale the oldest
// outstanding fill is).
type Tolerance struct {
	Core           int    `json:"core"`
	ReadyWarps     int    `json:"ready_warps"`     // issue-eligible warps
	ActiveWarps    int    `json:"active_warps"`    // resident, still executing
	LiveWarps      int    `json:"live_warps"`      // resident incl. draining
	MRQOutstanding int    `json:"mrq_outstanding"` // occupied MRQ/MSHR entries
	MRQFree        int    `json:"mrq_free"`        // capacity - outstanding
	OldestFillAge  uint64 `json:"oldest_fill_age"` // cycles the oldest in-flight fill has waited
}

// Epoch is one closed CPI-stack epoch: the machine-wide bucket deltas
// over the epoch and the per-core tolerance snapshots taken at its
// closing cycle.
type Epoch struct {
	Cycle   uint64
	Buckets [NumBuckets]uint64
	Tol     []Tolerance
}

// CPIStack aggregates per-core cycle accounting for one run: lifetime
// per-core bucket counters, an epoch time series of machine-wide bucket
// deltas plus tolerance snapshots, and a mutex-guarded latest snapshot
// the harness debug server reads live. A nil *CPIStack accepts every
// call and does nothing, like every obs component.
type CPIStack struct {
	every     uint64
	next      uint64
	prevCycle uint64

	cores    []*CoreCPI
	prevCore [][NumBuckets]uint64 // per-core totals at the last epoch close
	epochs   []Epoch
	tolStore []Tolerance // arena the epochs' Tol views are carved from

	mu        sync.Mutex
	latest    []Tolerance
	latestCyc uint64
}

// NewCPIStack builds a CPI stack with the given epoch length (0 selects
// DefaultCPIEpoch).
func NewCPIStack(every uint64) *CPIStack {
	if every == 0 {
		every = DefaultCPIEpoch
	}
	return &CPIStack{every: every, next: every}
}

// Core returns core id's bucket counters, growing the table as needed;
// nil receivers return nil (which in turn disables attribution in the
// core holding it).
func (p *CPIStack) Core(id int) *CoreCPI {
	if p == nil {
		return nil
	}
	for len(p.cores) <= id {
		p.cores = append(p.cores, &CoreCPI{})
		p.prevCore = append(p.prevCore, [NumBuckets]uint64{})
	}
	return p.cores[id]
}

// NumCores reports how many cores attached.
func (p *CPIStack) NumCores() int {
	if p == nil {
		return 0
	}
	return len(p.cores)
}

// NextTick reports the cycle of the next epoch boundary (the maximum
// uint64 for a nil stack), so the event-driven simulation loop can skip
// idle spans without missing an epoch close.
func (p *CPIStack) NextTick() uint64 {
	if p == nil {
		return ^uint64(0)
	}
	return p.next
}

// CloseEpoch closes the epoch ending at cycle: it records the per-core
// bucket deltas since the previous close (machine-wide in the epoch
// series, per-core as Chrome counter events into tr when tracing), and
// publishes tol as the latest tolerance snapshot. The tol slice is
// copied, so callers may reuse their buffer.
func (p *CPIStack) CloseEpoch(cycle uint64, tol []Tolerance, tr *Tracer) {
	if p == nil {
		return
	}
	// Carve the epoch's tolerance copy from a shared arena with a
	// full-slice expression: later arena growth either reallocates
	// (earlier epochs keep their old backing arrays) or appends past this
	// view's capacity, so the view stays immutable and steady-state epoch
	// closes stop allocating per call.
	start := len(p.tolStore)
	p.tolStore = append(p.tolStore, tol...)
	e := Epoch{Cycle: cycle, Tol: p.tolStore[start:len(p.tolStore):len(p.tolStore)]}
	for i, c := range p.cores {
		for b := 0; b < int(NumBuckets); b++ {
			d := c.Buckets[b] - p.prevCore[i][b]
			e.Buckets[b] += d
			if tr != nil {
				tr.Emit(EvCPIBucket, cycle, i, d, int64(b))
			}
		}
		p.prevCore[i] = c.Buckets
	}
	p.epochs = append(p.epochs, e)
	p.next = cycle + p.every
	p.prevCycle = cycle

	p.mu.Lock()
	p.latest = e.Tol
	p.latestCyc = cycle
	p.mu.Unlock()
}

// Finish closes the final partial epoch (if it saw any cycles) so short
// runs still produce at least one epoch record.
func (p *CPIStack) Finish(cycle uint64, tol []Tolerance, tr *Tracer) {
	if p == nil || cycle <= p.prevCycle {
		return
	}
	p.CloseEpoch(cycle, tol, tr)
}

// Epochs returns the closed epochs in order.
func (p *CPIStack) Epochs() []Epoch {
	if p == nil {
		return nil
	}
	return p.epochs
}

// Totals sums the buckets across all cores.
func (p *CPIStack) Totals() [NumBuckets]uint64 {
	var t [NumBuckets]uint64
	if p == nil {
		return t
	}
	for _, c := range p.cores {
		for b, v := range c.Buckets {
			t[b] += v
		}
	}
	return t
}

// Tolerances returns the latest published tolerance snapshot and the
// cycle it was taken at. It is safe to call from another goroutine while
// the simulation runs (the harness debug server does), because the
// simulator only publishes through CloseEpoch under the same mutex.
func (p *CPIStack) Tolerances() (uint64, []Tolerance) {
	if p == nil {
		return 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latestCyc, append([]Tolerance(nil), p.latest...)
}

// CheckConservation verifies that every core's buckets sum to exactly
// cyclesPerCore — each executed cycle attributed exactly once, skipped
// spans included. A double- or never-attributed cycle breaks it.
func (p *CPIStack) CheckConservation(cycle, cyclesPerCore uint64) error {
	if p == nil {
		return nil
	}
	for i, c := range p.cores {
		if got := c.Cycles(); got != cyclesPerCore {
			return &simerr.InvariantError{
				Component: "cpistack", Name: "cycle-conservation", Cycle: cycle,
				Detail: fmt.Sprintf("core %d: %d cycles attributed across buckets but %d executed (%+v)",
					i, got, cyclesPerCore, c.Buckets),
			}
		}
	}
	return nil
}

// CPIBuckets is the shared JSONL bucket layout; field order is the wire
// order.
type CPIBuckets struct {
	Issued     uint64 `json:"issued"`
	Idle       uint64 `json:"idle"`
	Scoreboard uint64 `json:"scoreboard"`
	MRQFull    uint64 `json:"mrq_full"`
	Throttled  uint64 `json:"throttled"`
	Drain      uint64 `json:"drain"`
}

func toBuckets(b [NumBuckets]uint64) CPIBuckets {
	return CPIBuckets{
		Issued:     b[BucketIssued],
		Idle:       b[BucketIdle],
		Scoreboard: b[BucketScoreboard],
		MRQFull:    b[BucketMRQFull],
		Throttled:  b[BucketThrottled],
		Drain:      b[BucketDrain],
	}
}

// Array is the inverse of the wire layout: the counts indexed by Bucket.
func (c CPIBuckets) Array() [NumBuckets]uint64 {
	var b [NumBuckets]uint64
	b[BucketIssued] = c.Issued
	b[BucketIdle] = c.Idle
	b[BucketScoreboard] = c.Scoreboard
	b[BucketMRQFull] = c.MRQFull
	b[BucketThrottled] = c.Throttled
	b[BucketDrain] = c.Drain
	return b
}

// cpiEpochRec is the JSONL schema of one epoch's machine-wide deltas.
type cpiEpochRec struct {
	Record string `json:"record"`
	Run    string `json:"run,omitempty"`
	Cycle  uint64 `json:"cycle"`
	CPIBuckets
}

// cpiTolRec is the JSONL schema of one core's tolerance snapshot at an
// epoch close.
type cpiTolRec struct {
	Record string `json:"record"`
	Run    string `json:"run,omitempty"`
	Cycle  uint64 `json:"cycle"`
	Tolerance
}

// CPICoreRecord is the JSONL schema of one core's lifetime CPI stack,
// the "cpistack" line.
type CPICoreRecord struct {
	Record string `json:"record"`
	Run    string `json:"run,omitempty"`
	Core   int    `json:"core"`
	Cycles uint64 `json:"cycles"`
	CPIBuckets
}

// cpiSummary is the per-run trailer with machine-wide totals.
type cpiSummary struct {
	Record string `json:"record"`
	Run    string `json:"run,omitempty"`
	Cores  int    `json:"cores"`
	Cycles uint64 `json:"cycles"`
	CPIBuckets
}

// WriteJSONL emits the epoch time series ("cpiepoch" lines with their
// per-core "cpitol" tolerance snapshots), one "cpistack" line per core,
// and a "cpisummary" trailer, all tagged with the run key.
func (p *CPIStack) WriteJSONL(w io.Writer, run string) error {
	if p == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range p.epochs {
		if err := enc.Encode(cpiEpochRec{Record: "cpiepoch", Run: run,
			Cycle: e.Cycle, CPIBuckets: toBuckets(e.Buckets)}); err != nil {
			return err
		}
		for _, t := range e.Tol {
			if err := enc.Encode(cpiTolRec{Record: "cpitol", Run: run,
				Cycle: e.Cycle, Tolerance: t}); err != nil {
				return err
			}
		}
	}
	sum := cpiSummary{Record: "cpisummary", Run: run, Cores: len(p.cores)}
	for i, c := range p.cores {
		cyc := c.Cycles()
		if err := enc.Encode(CPICoreRecord{Record: "cpistack", Run: run, Core: i,
			Cycles: cyc, CPIBuckets: toBuckets(c.Buckets)}); err != nil {
			return err
		}
		sum.Cycles += cyc
	}
	sum.CPIBuckets = toBuckets(p.Totals())
	return enc.Encode(sum)
}
