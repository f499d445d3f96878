// Command cpistat post-processes cycle-accounting JSONL (written by
// mtpref -cpistack, one "cpistack" line per core per run plus one
// "cpisummary" trailer per run) into per-run CPI-stack tables: where
// every core-cycle went, as a percentage per bucket.
//
// Usage:
//
//	cpistat [-run REGEX] [-bycore] [FILE...]
//
// With no FILE it reads stdin, so it composes with a sweep directly:
//
//	mtpref run gstable -cpistack /dev/stdout > /dev/null | cpistat
//
// Flags:
//
//	-run REGEX   only aggregate runs whose key matches REGEX
//	-bycore      additionally print raw per-core bucket counts per run
//
// Exit codes: 0 ok; 1 read/parse failure or no matching cycle-accounting
// records in the input; 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"regexp"
	"sort"

	"mtprefetch/internal/obs"
	"mtprefetch/internal/statcli"
)

// record mirrors the per-core "cpistack" lines of the obs JSONL schema;
// unknown record types ("cpiepoch", "cpitol", "cpisummary", epoch
// samples from a mixed stream) are skipped — the per-core lifetime lines
// carry everything the tables need.
type record struct {
	Record     string `json:"record"`
	Run        string `json:"run"`
	Core       int    `json:"core"`
	Cycles     uint64 `json:"cycles"`
	Issued     uint64 `json:"issued"`
	Idle       uint64 `json:"idle"`
	Scoreboard uint64 `json:"scoreboard"`
	MRQFull    uint64 `json:"mrq_full"`
	Throttled  uint64 `json:"throttled"`
	Drain      uint64 `json:"drain"`
}

func (r *record) buckets() [obs.NumBuckets]uint64 {
	var b [obs.NumBuckets]uint64
	b[obs.BucketIssued] = r.Issued
	b[obs.BucketIdle] = r.Idle
	b[obs.BucketScoreboard] = r.Scoreboard
	b[obs.BucketMRQFull] = r.MRQFull
	b[obs.BucketThrottled] = r.Throttled
	b[obs.BucketDrain] = r.Drain
	return b
}

// coreRow is one core's accumulated buckets within a run.
type coreRow struct {
	buckets [obs.NumBuckets]uint64
}

// runAgg accumulates one run's CPI stack. Rows are keyed by core id, so
// memory follows the records read rather than the largest id.
type runAgg struct {
	cores  map[int]coreRow
	totals [obs.NumBuckets]uint64
}

// aggregate accumulates cycle-accounting records across the input.
type aggregate struct {
	runs map[string]*runAgg
}

func newAggregate() *aggregate {
	return &aggregate{runs: make(map[string]*runAgg)}
}

// read consumes one JSONL stream, keeping runs matched by filter (nil
// keeps all).
func (a *aggregate) read(r io.Reader, filter *regexp.Regexp) error {
	return statcli.Read(r, filter, a.line)
}

// line aggregates one run-matching JSONL line; everything but the
// per-core "cpistack" lines is skipped.
func (a *aggregate) line(p statcli.Probe, line []byte) error {
	if p.Record != "cpistack" {
		return nil
	}
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("bad JSONL line: %w", err)
	}
	if rec.Core < 0 {
		return fmt.Errorf("bad cpistack line: negative core %d", rec.Core)
	}
	ra := a.runs[rec.Run]
	if ra == nil {
		ra = &runAgg{cores: make(map[int]coreRow)}
		a.runs[rec.Run] = ra
	}
	row := ra.cores[rec.Core]
	for b, v := range rec.buckets() {
		row.buckets[b] += v
		ra.totals[b] += v
	}
	ra.cores[rec.Core] = row
	return nil
}

// empty reports whether the input contained no cycle-accounting records
// at all (after filtering) — an empty table would otherwise pass
// silently, hiding a wrong file, a typo'd -run regex, or a run without
// -cpistack.
func (a *aggregate) empty() bool { return len(a.runs) == 0 }

// keys returns the run keys in sorted order, for deterministic output.
func (a *aggregate) keys() []string {
	keys := make([]string, 0, len(a.runs))
	for k := range a.runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sum(b [obs.NumBuckets]uint64) uint64 {
	var n uint64
	for _, v := range b {
		n += v
	}
	return n
}

func pct(v, total uint64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(v)/float64(total)*100)
}

// writeSummary renders one row per run: core count, total attributed
// cycles, and each bucket's share of them.
func (a *aggregate) writeSummary(w io.Writer) error {
	keys := a.keys()
	if _, err := fmt.Fprintf(w, "%d run(s)\n", len(keys)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-36s %5s %14s", "run", "cores", "cycles"); err != nil {
		return err
	}
	for b := obs.Bucket(0); b < obs.NumBuckets; b++ {
		if _, err := fmt.Fprintf(w, " %11s", b.String()+"%"); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, k := range keys {
		ra := a.runs[k]
		total := sum(ra.totals)
		if _, err := fmt.Fprintf(w, "%-36s %5d %14d", k, len(ra.cores), total); err != nil {
			return err
		}
		for _, v := range ra.totals {
			if _, err := fmt.Fprintf(w, " %11s", pct(v, total)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// writeByCore renders raw per-core bucket counts for every run.
func (a *aggregate) writeByCore(w io.Writer) error {
	for _, k := range a.keys() {
		ra := a.runs[k]
		if _, err := fmt.Fprintf(w, "\n%s\n", k); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%-5s %14s", "core", "cycles"); err != nil {
			return err
		}
		for b := obs.Bucket(0); b < obs.NumBuckets; b++ {
			if _, err := fmt.Fprintf(w, " %12s", b); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		ids := make([]int, 0, len(ra.cores))
		for id := range ra.cores {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			c := ra.cores[id]
			if _, err := fmt.Fprintf(w, "%-5d %14d", id, sum(c.buckets)); err != nil {
				return err
			}
			for _, v := range c.buckets {
				if _, err := fmt.Fprintf(w, " %12d", v); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// render writes the per-run summary and, with byCore, the raw per-core
// bucket counts.
func (a *aggregate) render(w io.Writer, byCore bool) error {
	if err := a.writeSummary(w); err != nil {
		return err
	}
	if byCore {
		return a.writeByCore(w)
	}
	return nil
}

func main() {
	var byCore *bool
	agg := newAggregate()
	statcli.Main(statcli.Tool{
		Name:      "cpistat",
		Usage:     "usage: cpistat [-run REGEX] [-bycore] [FILE...]\n",
		EmptyWhat: "cpistack records",
		EmptyFlag: "-cpistack",
		Flags: func(fs *flag.FlagSet) {
			byCore = fs.Bool("bycore", false, "additionally print raw per-core bucket counts")
		},
		Line:   agg.line,
		Empty:  agg.empty,
		Render: func(w io.Writer) error { return agg.render(w, *byCore) },
	})
}
