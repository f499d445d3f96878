// Command pfstat post-processes prefetch attribution JSONL (written by
// mtpref -pfreport, one "pfreport" line per (source, PC) bucket per run
// plus one "pfsummary" trailer per run) into the per-source accuracy /
// coverage / merge-ratio / early-eviction table, aggregated across every
// run in the input.
//
// Usage:
//
//	pfstat [-run REGEX] [-bypc] [FILE...]
//
// With no FILE it reads stdin, so it composes with a sweep directly:
//
//	mtpref run tab3 -pfreport /dev/stdout | pfstat
//
// Flags:
//
//	-run REGEX   only aggregate runs whose key matches REGEX
//	-bypc        additionally print the per-(source, PC) breakdown
//
// Exit codes: 0 ok; 1 read/parse failure or no matching attribution
// records in the input; 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/statcli"
	"mtprefetch/internal/stats"
)

// record mirrors the union of the obs JSONL schemas ("pfreport" bucket
// lines and "pfsummary" trailers); unknown record types are skipped, so
// pfstat also accepts a mixed stream that contains epoch-sample lines.
type record struct {
	Record string `json:"record"`
	Run    string `json:"run"`
	Source string `json:"source"`
	PC     int32  `json:"pc"`

	Generated        uint64 `json:"generated"`
	DroppedThrottle  uint64 `json:"dropped_throttle"`
	DroppedFilter    uint64 `json:"dropped_filter"`
	DroppedInCache   uint64 `json:"dropped_in_cache"`
	DroppedQueueFull uint64 `json:"dropped_queue_full"`
	MergedMRQ        uint64 `json:"merged_mrq"`
	Issued           uint64 `json:"issued"`
	Late             uint64 `json:"late"`
	Redundant        uint64 `json:"redundant"`
	Useful           uint64 `json:"useful"`
	EarlyEvicted     uint64 `json:"early_evicted"`
	UnusedAtDrain    uint64 `json:"unused_at_drain"`
	Hits             uint64 `json:"hits"`
	DemandMerges     uint64 `json:"demand_merges"`
	DegreeSum        uint64 `json:"degree_sum"`

	DemandTransactions uint64 `json:"demand_transactions"`
}

// aggregate accumulates attribution records across runs: a per-source
// rollup for the summary table and a rebuilt obs.PFReport for the
// per-(source, PC) breakdown.
type aggregate struct {
	perSrc map[string]*obs.PFCounts
	rep    *obs.PFReport
	runs   map[string]bool // distinct run keys seen
	demand uint64          // coverage denominator summed over runs
}

func newAggregate() *aggregate {
	return &aggregate{
		perSrc: make(map[string]*obs.PFCounts),
		rep:    obs.NewPFReport(),
		runs:   make(map[string]bool),
	}
}

// read consumes one JSONL stream, keeping runs matched by filter (nil
// keeps all).
func (a *aggregate) read(r io.Reader, filter *regexp.Regexp) error {
	return statcli.Read(r, filter, a.line)
}

// line aggregates one run-matching JSONL line; unknown record types are
// skipped, so pfstat also accepts a mixed stream.
func (a *aggregate) line(p statcli.Probe, line []byte) error {
	switch p.Record {
	case "pfreport":
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("bad JSONL line: %w", err)
		}
		a.addBucket(&rec)
	case "pfsummary":
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("bad JSONL line: %w", err)
		}
		a.runs[rec.Run] = true
		a.demand += rec.DemandTransactions
		a.rep.AddDemandTransactions(rec.DemandTransactions)
	}
	return nil
}

func (a *aggregate) addBucket(rec *record) {
	c := obs.PFCounts{
		Generated:        rec.Generated,
		DroppedThrottle:  rec.DroppedThrottle,
		DroppedFilter:    rec.DroppedFilter,
		DroppedInCache:   rec.DroppedInCache,
		DroppedQueueFull: rec.DroppedQueueFull,
		MergedMRQ:        rec.MergedMRQ,
		Issued:           rec.Issued,
		Late:             rec.Late,
		Redundant:        rec.Redundant,
		Useful:           rec.Useful,
		EarlyEvicted:     rec.EarlyEvicted,
		UnusedAtDrain:    rec.UnusedAtDrain,
		Hits:             rec.Hits,
		DemandMerges:     rec.DemandMerges,
		DegreeSum:        rec.DegreeSum,
	}
	s := a.perSrc[rec.Source]
	if s == nil {
		s = &obs.PFCounts{}
		a.perSrc[rec.Source] = s
	}
	addCounts(s, &c)
	if src, ok := memreq.ParseSource(rec.Source); ok {
		a.rep.Add(obs.PFKey{Source: src, PC: rec.PC}, c)
	} else {
		// Unknown source names (a newer writer) still roll up per source;
		// only the per-PC breakdown needs the enum.
		fmt.Fprintf(os.Stderr, "pfstat: unknown source %q (per-PC breakdown will omit it)\n", rec.Source)
	}
}

// empty reports whether the input contained no attribution records at
// all (after filtering) — an empty table would otherwise pass silently,
// hiding a wrong file, a typo'd -run regex, or a run without -pfreport.
func (a *aggregate) empty() bool {
	return len(a.runs) == 0 && len(a.perSrc) == 0
}

func addCounts(dst, src *obs.PFCounts) {
	dst.Generated += src.Generated
	dst.DroppedThrottle += src.DroppedThrottle
	dst.DroppedFilter += src.DroppedFilter
	dst.DroppedInCache += src.DroppedInCache
	dst.DroppedQueueFull += src.DroppedQueueFull
	dst.MergedMRQ += src.MergedMRQ
	dst.Issued += src.Issued
	dst.Late += src.Late
	dst.Redundant += src.Redundant
	dst.Useful += src.Useful
	dst.EarlyEvicted += src.EarlyEvicted
	dst.UnusedAtDrain += src.UnusedAtDrain
	dst.Hits += src.Hits
	dst.DemandMerges += src.DemandMerges
	dst.DegreeSum += src.DegreeSum
}

// writeSummary renders the per-source rollup: the paper's accuracy
// (used/issued), coverage (hits/demand transactions), merge ratio
// (demand-into-prefetch merges/issued, the Eq. 6 lateness signal), and
// early-eviction rate (early/used, Eq. 5), plus the mean throttle degree
// in force at issue.
func (a *aggregate) writeSummary(w io.Writer) error {
	names := make([]string, 0, len(a.perSrc))
	for n := range a.perSrc {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(w, "%d run(s), %d demand transactions\n", len(a.runs), a.demand); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %10s %10s %8s %8s %8s %8s %8s %9s %9s %7s\n",
		"source", "generated", "issued", "useful", "late", "early", "accuracy",
		"coverage", "mergeratio", "earlyrate", "degree"); err != nil {
		return err
	}
	for _, n := range names {
		c := a.perSrc[n]
		used := c.Useful + c.Late
		if _, err := fmt.Fprintf(w, "%-10s %10d %10d %8d %8d %8d %8s %8s %9s %9s %7s\n",
			n, c.Generated, c.Issued, c.Useful, c.Late, c.EarlyEvicted,
			ratio(used, c.Issued), ratio(c.Hits, a.demand),
			ratio(c.DemandMerges, c.Issued), ratio(c.EarlyEvicted, used),
			mean(c.DegreeSum, c.Issued)); err != nil {
			return err
		}
	}
	return nil
}

func ratio(n, d uint64) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", stats.SafeDiv(float64(n), float64(d)))
}

func mean(sum, n uint64) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(sum)/float64(n))
}

// render writes the per-source rollup and, with byPC, the
// per-(source, PC) breakdown.
func (a *aggregate) render(w io.Writer, byPC bool) error {
	if err := a.writeSummary(w); err != nil {
		return err
	}
	if byPC {
		fmt.Fprintln(w)
		return a.rep.WriteTable(w)
	}
	return nil
}

func main() {
	var byPC *bool
	agg := newAggregate()
	statcli.Main(statcli.Tool{
		Name:      "pfstat",
		Usage:     "usage: pfstat [-run REGEX] [-bypc] [FILE...]\n",
		EmptyWhat: "pfreport/pfsummary records",
		EmptyFlag: "-pfreport",
		Flags: func(fs *flag.FlagSet) {
			byPC = fs.Bool("bypc", false, "additionally print the per-(source, PC) breakdown")
		},
		Line:   agg.line,
		Empty:  agg.empty,
		Render: func(w io.Writer) error { return agg.render(w, *byPC) },
	})
}
