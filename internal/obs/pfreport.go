package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/simerr"
)

// PFKey identifies one attribution bucket: the mechanism that generated a
// prefetch and the PC whose training produced it.
type PFKey struct {
	Source memreq.Source
	PC     int32
}

// PFCounts is one bucket's lifecycle ledger. The pre-issue drops plus
// Issued partition Generated; the post-issue terminals partition Issued —
// the two conservation identities CheckConservation verifies. The json
// tags are the "pfreport" wire names (PFRecord embeds it).
type PFCounts struct {
	Generated uint64 `json:"generated"` // candidates emitted by the prefetcher

	DroppedThrottle  uint64 `json:"dropped_throttle"`   // rejected by the throttle engine
	DroppedFilter    uint64 `json:"dropped_filter"`     // always 0 (no pollution filter); kept for the record schema
	DroppedInCache   uint64 `json:"dropped_in_cache"`   // block already in the prefetch cache
	DroppedQueueFull uint64 `json:"dropped_queue_full"` // MRQ full
	MergedMRQ        uint64 `json:"merged_mrq"`         // folded into an outstanding entry

	Issued uint64 `json:"issued"` // sent to memory

	Late          uint64 `json:"late"`            // demand merged into the in-flight prefetch
	Redundant     uint64 `json:"redundant"`       // fill found the block already resident
	Useful        uint64 `json:"useful"`          // filled block served a demand before eviction
	EarlyEvicted  uint64 `json:"early_evicted"`   // evicted or invalidated before first use (Eq. 5)
	UnusedAtDrain uint64 `json:"unused_at_drain"` // resident and unused when the run ended

	Hits         uint64 `json:"hits"`          // prefetch-cache demand hits on this bucket's lines
	DemandMerges uint64 `json:"demand_merges"` // intra-core demand-into-prefetch merges (Eq. 6 view)
	DegreeSum    uint64 `json:"degree_sum"`    // sum of throttle degrees at issue (mean = DegreeSum/Issued)
}

// Add accumulates o into c.
func (c *PFCounts) Add(o PFCounts) {
	c.Generated += o.Generated
	c.DroppedThrottle += o.DroppedThrottle
	c.DroppedInCache += o.DroppedInCache
	c.DroppedQueueFull += o.DroppedQueueFull
	c.MergedMRQ += o.MergedMRQ
	c.Issued += o.Issued
	c.Late += o.Late
	c.Redundant += o.Redundant
	c.Useful += o.Useful
	c.EarlyEvicted += o.EarlyEvicted
	c.UnusedAtDrain += o.UnusedAtDrain
	c.Hits += o.Hits
	c.DemandMerges += o.DemandMerges
	c.DegreeSum += o.DegreeSum
}

// dropped sums the pre-issue drops.
func (c *PFCounts) dropped() uint64 {
	return c.DroppedThrottle + c.DroppedInCache + c.DroppedQueueFull + c.MergedMRQ
}

// terminals sums the post-issue fates.
func (c *PFCounts) terminals() uint64 {
	return c.Late + c.Redundant + c.Useful + c.EarlyEvicted + c.UnusedAtDrain
}

// used is the Eq. 5 "useful prefetch" count: blocks that served a demand,
// whether the fill beat the demand (Useful) or not (Late).
func (c *PFCounts) used() uint64 { return c.Useful + c.Late }

// PFReport aggregates prefetch provenance and outcomes for one run. It is
// single-threaded like the simulation that feeds it, and nil-safe like
// every obs component: a nil *PFReport accepts all recordings and does
// nothing, so attribution is one predictable branch when disabled.
type PFReport struct {
	m map[PFKey]*PFCounts

	// demandTransactions is the coverage denominator (all demand
	// transactions the cores issued), set once at collection time.
	demandTransactions uint64
}

// NewPFReport builds an empty report.
func NewPFReport() *PFReport {
	return &PFReport{m: make(map[PFKey]*PFCounts)}
}

func (p *PFReport) bucket(prov memreq.Provenance) *PFCounts {
	k := PFKey{Source: prov.Source, PC: prov.TrainPC}
	c := p.m[k]
	if c == nil {
		c = &PFCounts{}
		p.m[k] = c
	}
	return c
}

// Generated records one candidate emitted by a prefetcher.
func (p *PFReport) Generated(prov memreq.Provenance) {
	if p == nil {
		return
	}
	p.bucket(prov).Generated++
}

// Issued records one prefetch sent to memory, accumulating the throttle
// degree in force at issue.
func (p *PFReport) Issued(prov memreq.Provenance) {
	if p == nil {
		return
	}
	c := p.bucket(prov)
	c.Issued++
	c.DegreeSum += uint64(prov.Degree)
}

// Record classifies one candidate's drop or one issued prefetch's
// terminal fate. OutNone is ignored.
func (p *PFReport) Record(prov memreq.Provenance, out memreq.Outcome) {
	if p == nil {
		return
	}
	c := p.bucket(prov)
	switch out {
	case memreq.OutDroppedThrottle:
		c.DroppedThrottle++
	case memreq.OutDroppedInCache:
		c.DroppedInCache++
	case memreq.OutDroppedQueueFull:
		c.DroppedQueueFull++
	case memreq.OutMergedMRQ:
		c.MergedMRQ++
	case memreq.OutLate:
		c.Late++
	case memreq.OutRedundant:
		c.Redundant++
	case memreq.OutUseful:
		c.Useful++
	case memreq.OutEarlyEvicted:
		c.EarlyEvicted++
	case memreq.OutUnusedAtDrain:
		c.UnusedAtDrain++
	}
}

// Hit records one prefetch-cache demand hit served by a line this bucket
// filled — the per-source coverage numerator.
func (p *PFReport) Hit(prov memreq.Provenance) {
	if p == nil {
		return
	}
	p.bucket(prov).Hits++
}

// DemandMerge records one intra-core demand-into-prefetch merge observed
// at the MRQ, the per-source view of Eq. 6's numerator. It is
// informational: the prefetch's terminal outcome (Late) is classified
// once, at fill delivery, which also covers inter-core DRAM merges.
func (p *PFReport) DemandMerge(prov memreq.Provenance) {
	if p == nil {
		return
	}
	p.bucket(prov).DemandMerges++
}

// Add merges one bucket's counts into the report, for post-processors
// (cmd/mtstat) that rebuild one report from a sweep's JSONL records.
func (p *PFReport) Add(k PFKey, c PFCounts) {
	if p == nil {
		return
	}
	b := p.m[k]
	if b == nil {
		b = &PFCounts{}
		p.m[k] = b
	}
	b.Add(c)
}

// AddDemandTransactions accumulates the coverage denominator, for
// post-processors merging several runs.
func (p *PFReport) AddDemandTransactions(n uint64) {
	if p == nil {
		return
	}
	p.demandTransactions += n
}

// DemandTransactions reports the coverage denominator.
func (p *PFReport) DemandTransactions() uint64 {
	if p == nil {
		return 0
	}
	return p.demandTransactions
}

// SetDemandTransactions sets the coverage denominator.
func (p *PFReport) SetDemandTransactions(n uint64) {
	if p == nil {
		return
	}
	p.demandTransactions = n
}

// Enabled reports whether attribution is active.
func (p *PFReport) Enabled() bool { return p != nil }

// keys returns the buckets sorted by (source, PC) for deterministic
// output.
func (p *PFReport) keys() []PFKey {
	ks := make([]PFKey, 0, len(p.m))
	for k := range p.m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].Source != ks[j].Source {
			return ks[i].Source < ks[j].Source
		}
		return ks[i].PC < ks[j].PC
	})
	return ks
}

// CheckConservation verifies, per bucket, that every generated candidate
// was classified exactly once before issue and every issued prefetch
// exactly once after — the ledger identities
//
//	Generated = drops + Issued
//	Issued    = Late + Redundant + Useful + EarlyEvicted + UnusedAtDrain
//
// A double- or never-classified prefetch breaks one of them. It returns
// nil when attribution is disabled.
func (p *PFReport) CheckConservation(cycle uint64) error {
	if p == nil {
		return nil
	}
	for _, k := range p.keys() {
		c := p.m[k]
		if got := c.dropped() + c.Issued; got != c.Generated {
			return &simerr.InvariantError{
				Component: "pfreport", Name: "generation-conservation", Cycle: cycle,
				Detail: fmt.Sprintf("source %s pc %d: %d generated but %d dropped+issued",
					k.Source, k.PC, c.Generated, got),
			}
		}
		if got := c.terminals(); got != c.Issued {
			return &simerr.InvariantError{
				Component: "pfreport", Name: "outcome-conservation", Cycle: cycle,
				Detail: fmt.Sprintf("source %s pc %d: %d issued but %d terminal outcomes",
					k.Source, k.PC, c.Issued, got),
			}
		}
	}
	return nil
}

// PFRecord is the JSONL schema of one "pfreport" bucket line; field
// order is the wire order, with the counts encoded in place.
type PFRecord struct {
	Record string `json:"record"`
	Run    string `json:"run,omitempty"`
	Source string `json:"source"`
	PC     int32  `json:"pc"`
	PFCounts
}

// PFSummary is the JSONL schema of the per-run "pfsummary" trailer
// carrying the coverage denominator and run-wide totals.
type PFSummary struct {
	Record             string `json:"record"`
	Run                string `json:"run,omitempty"`
	DemandTransactions uint64 `json:"demand_transactions"`
	Generated          uint64 `json:"generated"`
	Issued             uint64 `json:"issued"`
	Useful             uint64 `json:"useful"`
	Late               uint64 `json:"late"`
	EarlyEvicted       uint64 `json:"early_evicted"`
	Hits               uint64 `json:"hits"`
}

// WriteJSONL emits one "pfreport" line per bucket, sorted by (source,
// PC), then one "pfsummary" trailer, all tagged with the run key.
func (p *PFReport) WriteJSONL(w io.Writer, run string) error {
	if p == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	sum := PFSummary{Record: "pfsummary", Run: run, DemandTransactions: p.demandTransactions}
	for _, k := range p.keys() {
		c := p.m[k]
		rec := PFRecord{Record: "pfreport", Run: run, Source: k.Source.String(), PC: k.PC, PFCounts: *c}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		sum.Generated += c.Generated
		sum.Issued += c.Issued
		sum.Useful += c.Useful
		sum.Late += c.Late
		sum.EarlyEvicted += c.EarlyEvicted
		sum.Hits += c.Hits
	}
	return enc.Encode(sum)
}

// WriteTable renders the human-readable per-(source, PC) table: raw
// outcome counts plus the paper's derived metrics — accuracy (used
// prefetches per issued), coverage (prefetch-cache hits per demand
// transaction), lateness (late per issued) and the Eq. 5 early-eviction
// rate (early evictions per used prefetch).
func (p *PFReport) WriteTable(w io.Writer) error {
	if p == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-10s %6s %9s %8s %8s %7s %7s %7s %8s %8s %8s %8s\n",
		"source", "pc", "generated", "dropped", "issued", "useful", "late", "early",
		"accuracy", "coverage", "lateness", "earlyrate"); err != nil {
		return err
	}
	for _, k := range p.keys() {
		c := p.m[k]
		if _, err := fmt.Fprintf(w, "%-10s %6d %9d %8d %8d %7d %7d %7d %8s %8s %8s %8s\n",
			k.Source, k.PC, c.Generated, c.dropped(), c.Issued, c.Useful, c.Late, c.EarlyEvicted,
			ratioStr(c.used(), c.Issued), ratioStr(c.Hits, p.demandTransactions),
			ratioStr(c.Late, c.Issued), ratioStr(c.EarlyEvicted, c.used())); err != nil {
			return err
		}
	}
	return nil
}

// ratioStr formats a/b to three decimals, "-" for an empty denominator.
func ratioStr(a, b uint64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(a)/float64(b))
}
