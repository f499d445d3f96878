// Package memreq defines the memory transaction type that flows from the
// cores through the interconnect into the DRAM controllers and back.
//
// A Request corresponds to one cache-block-sized memory transaction. Warp
// memory instructions are coalesced into one Request per distinct block
// (see internal/kernel); requests may then merge inside the core's memory
// request queue (intra-core merging, Fig. 2a of the paper) or inside a
// DRAM controller's request buffer (inter-core merging, Fig. 2b).
package memreq

import "fmt"

// Kind classifies a memory transaction.
type Kind uint8

const (
	// Demand is a load the program needs; a waiting warp blocks on it at
	// its first dependent use.
	Demand Kind = iota
	// Prefetch is a speculative fill of the prefetch cache, generated
	// either by a software prefetch instruction or a hardware prefetcher.
	Prefetch
	// Writeback is a store leaving the core; nothing waits for it.
	Writeback
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Demand:
		return "demand"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Source identifies which mechanism generated a prefetch: one of the
// MT-HWP tables (Sections V, VIII-B of the paper), a software transform
// (Section III), or one of the baseline hardware prefetchers the paper
// compares against (Section VII-C).
type Source uint8

const (
	// SrcNone marks a request that is not an attributed prefetch
	// (demands, writebacks, or attribution disabled).
	SrcNone Source = iota
	// SrcPWS is the MT-HWP per-warp stride table.
	SrcPWS
	// SrcGS is the MT-HWP global stride table (promoted PWS entries).
	SrcGS
	// SrcHWIP is the MT-HWP inter-thread (IP) table.
	SrcHWIP
	// SrcSWStride is the software many-thread aware stride transform.
	SrcSWStride
	// SrcSWIP is the software inter-thread prefetching transform.
	SrcSWIP
	// SrcGHB is the GHB AC/DC (or PC/DC) prefetcher.
	SrcGHB
	// SrcStream is the stream prefetcher.
	SrcStream
	// SrcStridePC is the per-PC stride prefetcher (with or without
	// throttling).
	SrcStridePC
	// SrcStrideRPT is the region-keyed stride reference prediction table.
	SrcStrideRPT

	// NumSources bounds the enum for dense per-source aggregation.
	NumSources
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SrcNone:
		return "none"
	case SrcPWS:
		return "pws"
	case SrcGS:
		return "gs"
	case SrcHWIP:
		return "hw-ip"
	case SrcSWStride:
		return "sw-stride"
	case SrcSWIP:
		return "sw-ip"
	case SrcGHB:
		return "ghb"
	case SrcStream:
		return "stream"
	case SrcStridePC:
		return "stride-pc"
	case SrcStrideRPT:
		return "stride-rpt"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// ParseSource maps a Source.String() value back to the enum, for tools
// that post-process attribution JSONL (cmd/mtstat). Unknown names report
// false.
func ParseSource(name string) (Source, bool) {
	for s := SrcNone; s < NumSources; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return SrcNone, false
}

// Outcome is the terminal fate of a generated prefetch candidate. Every
// candidate ends in exactly one outcome; the pre-issue drops and the
// post-issue fates partition the generated count (the conservation
// invariant checked under core.Options.Checks).
type Outcome uint8

const (
	// OutNone means the fate is not yet decided (or never tracked).
	OutNone Outcome = iota
	// OutDroppedThrottle: rejected by the throttle engine before issue.
	OutDroppedThrottle
	// OutDroppedFilter: rejected by the pollution filter before issue.
	OutDroppedFilter
	// OutDroppedInCache: the block was already in the prefetch cache.
	OutDroppedInCache
	// OutDroppedQueueFull: the MRQ was full; the candidate was abandoned.
	OutDroppedQueueFull
	// OutMergedMRQ: folded into an outstanding entry for the same block.
	OutMergedMRQ
	// OutLate: a demand merged into the in-flight prefetch (Eq. 6's
	// lateness numerator) — the fill was useful but not timely.
	OutLate
	// OutRedundant: the fill found the block already resident.
	OutRedundant
	// OutUseful: the filled block served at least one demand lookup.
	OutUseful
	// OutEarlyEvicted: evicted (or invalidated) before any use — Eq. 5's
	// early-eviction numerator, the pollution signal.
	OutEarlyEvicted
	// OutUnusedAtDrain: still resident and unused when the run ended.
	OutUnusedAtDrain

	// NumOutcomes bounds the enum for dense aggregation.
	NumOutcomes
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutNone:
		return "none"
	case OutDroppedThrottle:
		return "dropped-throttle"
	case OutDroppedFilter:
		return "dropped-filter"
	case OutDroppedInCache:
		return "dropped-in-cache"
	case OutDroppedQueueFull:
		return "dropped-queue-full"
	case OutMergedMRQ:
		return "merged-mrq"
	case OutLate:
		return "late"
	case OutRedundant:
		return "redundant"
	case OutUseful:
		return "useful"
	case OutEarlyEvicted:
		return "early-evicted"
	case OutUnusedAtDrain:
		return "unused-at-drain"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Provenance records where a prefetch came from: the mechanism, the PC
// whose training produced it, the warp whose access triggered it, and the
// throttle degree in force when it was issued. The struct is compact so
// stamping it on every Request stays cheap.
type Provenance struct {
	Source  Source
	Degree  uint8 // throttle degree at issue (0 when unthrottled)
	TrainPC int32 // instruction index that trained the prefetcher
	Warp    int32 // global warp id whose access triggered generation
}

// Waiter identifies a warp register waiting on a demand fill. It is
// kept to one word so the Waiters lists the hot fill path walks stay
// dense.
type Waiter struct {
	Warp int32 // core-local warp slot index
	Reg  uint8
}

// Request is one block transaction in flight.
type Request struct {
	Addr   uint64 // block-aligned address
	Kind   Kind   // effective kind; a demand merging into a prefetch upgrades it
	CoreID int
	WarpID int // global warp id that triggered the request
	PC     int // instruction index that triggered it (prefetcher training key)

	IssueCycle uint64 // cycle the request entered the MRQ

	// WasPrefetch records that the request started life as a prefetch,
	// even if a demand later merged into it (a "late prefetch").
	WasPrefetch bool
	// DemandMerged is set when a demand merged into an in-flight
	// prefetch; used for the lateness statistic.
	DemandMerged bool

	// Prov attributes a prefetch to the mechanism that generated it. It
	// is the zero value for demands, writebacks, and prefetches issued
	// with attribution disabled.
	Prov Provenance
	// Outcome is the terminal classification of a tracked prefetch,
	// OutNone until (and unless) attribution decides it.
	Outcome Outcome

	// Span is the lifecycle trace record for a sampled request, nil for
	// the (vast) unsampled majority. Pool.Get's struct-literal reset
	// clears it on recycle.
	Span *Span

	// Waiters are warps to wake when the fill returns.
	Waiters []Waiter
}

// BlockAlign truncates addr to the block boundary.
func BlockAlign(addr uint64, blockBytes int) uint64 {
	return addr &^ (uint64(blockBytes) - 1)
}

// New returns a block-aligned request.
func New(addr uint64, blockBytes int, kind Kind, coreID, warpID, pc int, cycle uint64) *Request {
	return &Request{
		Addr:        BlockAlign(addr, blockBytes),
		Kind:        kind,
		CoreID:      coreID,
		WarpID:      warpID,
		PC:          pc,
		IssueCycle:  cycle,
		WasPrefetch: kind == Prefetch,
	}
}

// MergeDemand upgrades r after a demand request to the same block merged
// into it, attaching the demand's waiters and recording lateness when r
// was a prefetch. Growth skips append's small-capacity ladder and jumps
// straight to a merge-sized backing array: requests recycle through the
// Pool for a whole run, so one right-sized allocation per request
// replaces a 1-2-4-8 reallocation sequence.
func (r *Request) MergeDemand(waiters []Waiter) {
	if r.Kind == Prefetch {
		r.DemandMerged = true
		r.Kind = Demand
	}
	if need := len(r.Waiters) + len(waiters); need > cap(r.Waiters) {
		c := cap(r.Waiters) * 2
		if c < mergeWaiterCap {
			c = mergeWaiterCap
		}
		for c < need {
			c *= 2
		}
		nw := make([]Waiter, len(r.Waiters), c)
		copy(nw, r.Waiters)
		r.Waiters = nw
	}
	r.Waiters = append(r.Waiters, waiters...)
}

// mergeWaiterCap is the minimum Waiters capacity allocated on the first
// merge-driven growth; merging entries tend to keep accumulating waiters.
const mergeWaiterCap = 16
