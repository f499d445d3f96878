// Command spanstat post-processes request-span JSONL (written by mtpref
// -spans, one "span" line per sampled memory request plus one
// "spansummary" trailer per source per run) into the per-source latency
// waterfall: how many sampled requests each source filled, and where
// their end-to-end cycles went (MRQ wait, request NoC transit, DRAM
// queueing, DRAM service, response NoC transit), aggregated across
// every run in the input.
//
// Usage:
//
//	spanstat [-run REGEX] [-byrun] [FILE...]
//
// With no FILE it reads stdin, so it composes with a sweep directly:
//
//	mtpref run gstable -spans /dev/stdout > /dev/null | spanstat
//
// Flags:
//
//	-run REGEX   only aggregate runs whose key matches REGEX
//	-byrun       additionally print one waterfall table per run
//
// Exit codes: 0 ok; 1 read/parse failure or no matching span records in
// the input; 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"

	"mtprefetch/internal/statcli"
	"mtprefetch/internal/stats"
)

// record mirrors the per-request "span" lines of the obs JSONL schema;
// the "spansummary" trailers are skipped — percentiles rebuilt from the
// raw per-span totals aggregate exactly across runs, summary lines do
// not.
type record struct {
	Record      string `json:"record"`
	Run         string `json:"run"`
	Source      string `json:"source"`
	Terminal    string `json:"terminal"`
	MRQ         uint64 `json:"mrq"`
	NoCReq      uint64 `json:"noc_req"`
	DRAMQueue   uint64 `json:"dram_queue"`
	DRAMService uint64 `json:"dram_service"`
	NoCResp     uint64 `json:"noc_resp"`
	Total       uint64 `json:"total"`
}

// stageNames orders the waterfall columns; it matches the telescoping
// stage order of obs.SpanStage.
var stageNames = [...]string{"mrq", "noc_req", "dram_queue", "dram_service", "noc_resp"}

// srcAgg accumulates one source's spans: terminal counts, per-stage
// cycle sums over fills, and the end-to-end latency distribution.
type srcAgg struct {
	fills       uint64
	mrqMerged   uint64
	mrqRejected uint64
	dropped     uint64
	stage       [len(stageNames)]uint64
	total       stats.Histogram
}

func (s *srcAgg) add(rec *record) {
	switch rec.Terminal {
	case "fill":
		s.fills++
		s.stage[0] += rec.MRQ
		s.stage[1] += rec.NoCReq
		s.stage[2] += rec.DRAMQueue
		s.stage[3] += rec.DRAMService
		s.stage[4] += rec.NoCResp
		s.total.Add(rec.Total)
	case "mrq_merged":
		s.mrqMerged++
	case "mrq_rejected":
		s.mrqRejected++
	case "dropped":
		s.dropped++
	}
}

// aggregate accumulates span records across the input: a cross-run
// per-source rollup plus a per-run breakdown for -byrun.
type aggregate struct {
	spans  uint64
	perSrc map[string]*srcAgg
	perRun map[string]map[string]*srcAgg
}

func newAggregate() *aggregate {
	return &aggregate{
		perSrc: make(map[string]*srcAgg),
		perRun: make(map[string]map[string]*srcAgg),
	}
}

// line aggregates one run-matching JSONL line; everything but the
// per-request "span" lines is skipped.
func (a *aggregate) line(p statcli.Probe, line []byte) error {
	if p.Record != "span" {
		return nil
	}
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("bad JSONL line: %w", err)
	}
	a.spans++
	s := a.perSrc[rec.Source]
	if s == nil {
		s = &srcAgg{}
		a.perSrc[rec.Source] = s
	}
	s.add(&rec)
	rm := a.perRun[rec.Run]
	if rm == nil {
		rm = make(map[string]*srcAgg)
		a.perRun[rec.Run] = rm
	}
	rs := rm[rec.Source]
	if rs == nil {
		rs = &srcAgg{}
		rm[rec.Source] = rs
	}
	rs.add(&rec)
	return nil
}

// empty reports whether the input contained no span records at all
// (after filtering) — an empty table would otherwise pass silently,
// hiding a wrong file, a typo'd -run regex, or a run without -spans.
func (a *aggregate) empty() bool { return a.spans == 0 }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func pct(a, b uint64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(a)/float64(b)*100)
}

// writeTable renders one waterfall: a row per source with terminal
// counts, the mean end-to-end latency over fills, each stage's share of
// the filled cycles, and the latency percentiles.
func writeTable(w io.Writer, perSrc map[string]*srcAgg) error {
	if _, err := fmt.Fprintf(w, "%-10s %8s %7s %7s %7s %9s %7s %8s %8s %9s %9s %8s %8s %8s\n",
		"source", "fills", "merged", "reject", "dropped", "avgtotal",
		"mrq%", "nocreq%", "dramq%", "dramsvc%", "nocresp%", "p50", "p95", "p99"); err != nil {
		return err
	}
	for _, name := range sortedKeys(perSrc) {
		s := perSrc[name]
		if _, err := fmt.Fprintf(w, "%-10s %8d %7d %7d %7d %9.1f %7s %8s %8s %9s %9s %8.1f %8.1f %8.1f\n",
			name, s.fills, s.mrqMerged, s.mrqRejected, s.dropped, s.total.Avg(),
			pct(s.stage[0], s.total.Sum), pct(s.stage[1], s.total.Sum),
			pct(s.stage[2], s.total.Sum), pct(s.stage[3], s.total.Sum),
			pct(s.stage[4], s.total.Sum),
			s.total.Percentile(50), s.total.Percentile(95), s.total.Percentile(99)); err != nil {
			return err
		}
	}
	return nil
}

// render writes the cross-run waterfall and, with byRun, one waterfall
// per run.
func (a *aggregate) render(w io.Writer, byRun bool) error {
	if _, err := fmt.Fprintf(w, "%d run(s), %d sampled span(s)\n",
		len(a.perRun), a.spans); err != nil {
		return err
	}
	if err := writeTable(w, a.perSrc); err != nil {
		return err
	}
	if !byRun {
		return nil
	}
	for _, run := range sortedKeys(a.perRun) {
		if _, err := fmt.Fprintf(w, "\n%s\n", run); err != nil {
			return err
		}
		if err := writeTable(w, a.perRun[run]); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	var byRun *bool
	agg := newAggregate()
	statcli.Main(statcli.Tool{
		Name:      "spanstat",
		Usage:     "usage: spanstat [-run REGEX] [-byrun] [FILE...]\n",
		EmptyWhat: "span records",
		EmptyFlag: "-spans",
		Flags: func(fs *flag.FlagSet) {
			byRun = fs.Bool("byrun", false, "additionally print one waterfall table per run")
		},
		Line:   agg.line,
		Empty:  agg.empty,
		Render: func(w io.Writer) error { return agg.render(w, *byRun) },
	})
}
