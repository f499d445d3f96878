// Command mtstat post-processes the JSONL observability streams mtpref
// writes into the tables that explain the paper's figures. It reads any
// mix of the three streams below, aggregates each across every run in
// the input, and prints one section per stream present, in this order,
// separated by a blank line:
//
//	pfreport  (mtpref -pfreport) per-source prefetch attribution:
//	          accuracy (used/issued), coverage (prefetch-cache hits per
//	          demand transaction), merge ratio (Eq. 6) and early-eviction
//	          rate (Eq. 5), plus the mean throttle degree at issue
//	cpistack  (mtpref -cpistack) one CPI stack per run: each loss
//	          bucket's share of all core-cycles
//	spans     (mtpref -spans) the per-source latency waterfall: how the
//	          sampled requests terminated and where their end-to-end
//	          cycles went (MRQ, request NoC, DRAM queue and service,
//	          response NoC)
//
// The -metrics stream's "epoch" lines, and any record kind no section
// reads, are skipped.
//
// Usage:
//
//	mtstat [-run REGEX] [-detail] [FILE...]
//
// With no FILE it reads stdin:
//
//	mtpref -waves 1 -pfreport pf.jsonl -spans sp.jsonl run gstable
//	mtstat pf.jsonl sp.jsonl
//	cat sp.jsonl | mtstat -run '^hw/' -detail
//
// Flags:
//
//	-run REGEX   only aggregate runs whose key matches REGEX
//	-detail      add the per-(source, PC) attribution table, the raw
//	             per-core bucket counts of every run, and one waterfall
//	             per run
//
// Exit codes: 0 ok; 1 read or parse failure, a negative core id, or no
// pfreport, cpistack or span record left after -run; 2 usage error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
)

const usage = "usage: mtstat [-run REGEX] [-detail] [FILE...]\n"

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command behind main: it returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runPat := fs.String("run", "", "only aggregate runs whose key matches this regexp")
	detail := fs.Bool("detail", false, "add the per-PC, per-core and per-run tables")
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var filter *regexp.Regexp
	if *runPat != "" {
		re, err := regexp.Compile(*runPat)
		if err != nil {
			fmt.Fprintln(stderr, "mtstat:", err)
			return 2
		}
		filter = re
	}

	a := newAggregate(stderr)
	if fs.NArg() == 0 {
		if err := a.read(stdin, filter); err != nil {
			fmt.Fprintln(stderr, "mtstat: stdin:", err)
			return 1
		}
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "mtstat:", err)
			return 1
		}
		err = a.read(f, filter)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "mtstat: %s: %v\n", path, err)
			return 1
		}
	}

	// An empty table would pass silently, hiding a wrong file, a typo'd
	// -run regexp, or a run without any of the streams.
	if a.empty() {
		if filter != nil {
			fmt.Fprintf(stderr, "mtstat: no pfreport, cpistack or span records match -run %q\n", *runPat)
		} else {
			fmt.Fprintln(stderr, "mtstat: no pfreport, cpistack or span records in input (was the run started with -pfreport, -cpistack or -spans?)")
		}
		return 1
	}
	if err := a.render(stdout, *detail); err != nil {
		fmt.Fprintln(stderr, "mtstat:", err)
		return 1
	}
	return 0
}

// aggregate accumulates the three streams' records across the input.
type aggregate struct {
	stderr io.Writer // unknown-source warnings

	// pfreport: a per-source rollup for the summary table and a rebuilt
	// report for the per-(source, PC) table.
	pfSrc  map[string]*obs.PFCounts
	pfRep  *obs.PFReport
	pfRuns map[string]bool // runs whose pfsummary trailer was read
	demand uint64          // coverage denominator summed over runs

	// cpistack: per-run, per-core lifetime buckets.
	cpiRuns map[string]*cpiRun

	// spans: a cross-run waterfall and one per run.
	spans    uint64
	spanSrc  map[string]*obs.SpanRow
	spanRuns map[string]map[string]*obs.SpanRow
}

// cpiRun accumulates one run's CPI stack. Rows are keyed by core id, so
// memory follows the records read rather than the largest id.
type cpiRun struct {
	cores  map[int]*[obs.NumBuckets]uint64
	totals [obs.NumBuckets]uint64
}

func newAggregate(stderr io.Writer) *aggregate {
	return &aggregate{
		stderr:   stderr,
		pfSrc:    make(map[string]*obs.PFCounts),
		pfRep:    obs.NewPFReport(),
		pfRuns:   make(map[string]bool),
		cpiRuns:  make(map[string]*cpiRun),
		spanSrc:  make(map[string]*obs.SpanRow),
		spanRuns: make(map[string]map[string]*obs.SpanRow),
	}
}

// read aggregates one JSONL stream, keeping the runs filter matches (nil
// keeps all). Lines may be of any length; blank lines are skipped.
func (a *aggregate) read(r io.Reader, filter *regexp.Regexp) error {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return err
		}
		if len(bytes.TrimSpace(line)) > 0 {
			if lerr := a.line(line, filter); lerr != nil {
				return lerr
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}

// line decodes one record into the type internal/obs encodes it from
// and aggregates it.
func (a *aggregate) line(line []byte, filter *regexp.Regexp) error {
	var probe struct {
		Record string `json:"record"`
		Run    string `json:"run"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return fmt.Errorf("bad JSONL line: %w", err)
	}
	if filter != nil && !filter.MatchString(probe.Run) {
		return nil
	}
	switch probe.Record {
	case "pfreport":
		return decode(line, a.addPF)
	case "pfsummary":
		return decode(line, a.addPFSummary)
	case "cpistack":
		return decode(line, a.addCPI)
	case "span":
		return decode(line, a.addSpan)
	}
	return nil
}

func decode[T any](line []byte, add func(*T) error) error {
	var rec T
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("bad JSONL line: %w", err)
	}
	return add(&rec)
}

func (a *aggregate) addPF(rec *obs.PFRecord) error {
	s := a.pfSrc[rec.Source]
	src, known := memreq.ParseSource(rec.Source)
	if s == nil {
		s = &obs.PFCounts{}
		a.pfSrc[rec.Source] = s
		if !known {
			// A newer writer's source still rolls up per source; only
			// the per-PC table needs the enum.
			fmt.Fprintf(a.stderr, "mtstat: unknown source %q (the per-PC table omits it)\n", rec.Source)
		}
	}
	s.Add(rec.PFCounts)
	if known {
		a.pfRep.Add(obs.PFKey{Source: src, PC: rec.PC}, rec.PFCounts)
	}
	return nil
}

func (a *aggregate) addPFSummary(rec *obs.PFSummary) error {
	a.pfRuns[rec.Run] = true
	a.demand += rec.DemandTransactions
	a.pfRep.AddDemandTransactions(rec.DemandTransactions)
	return nil
}

func (a *aggregate) addCPI(rec *obs.CPICoreRecord) error {
	if rec.Core < 0 {
		return fmt.Errorf("bad cpistack line: negative core %d", rec.Core)
	}
	r := a.cpiRuns[rec.Run]
	if r == nil {
		r = &cpiRun{cores: make(map[int]*[obs.NumBuckets]uint64)}
		a.cpiRuns[rec.Run] = r
	}
	c := r.cores[rec.Core]
	if c == nil {
		c = new([obs.NumBuckets]uint64)
		r.cores[rec.Core] = c
	}
	for b, v := range rec.CPIBuckets.Array() {
		c[b] += v
		r.totals[b] += v
	}
	return nil
}

func (a *aggregate) addSpan(rec *obs.SpanRecord) error {
	a.spans++
	term, st := terminal(rec.Terminal), rec.Stages()
	row(a.spanSrc, rec.Source).Add(term, st, rec.Total)
	perSrc := a.spanRuns[rec.Run]
	if perSrc == nil {
		perSrc = make(map[string]*obs.SpanRow)
		a.spanRuns[rec.Run] = perSrc
	}
	row(perSrc, rec.Source).Add(term, st, rec.Total)
	return nil
}

// terminal maps a span's "terminal" name back to the enum; an unknown
// name maps to TermNone, which no waterfall column counts.
func terminal(name string) memreq.SpanTerminal {
	for t := memreq.TermFill; t < memreq.NumSpanTerminals; t++ {
		if t.String() == name {
			return t
		}
	}
	return memreq.TermNone
}

// row returns m's row for source, adding an empty one if needed.
func row(m map[string]*obs.SpanRow, source string) *obs.SpanRow {
	r := m[source]
	if r == nil {
		r = &obs.SpanRow{}
		m[source] = r
	}
	return r
}

// empty reports whether no section has a record to show.
func (a *aggregate) empty() bool {
	return !a.hasPF() && len(a.cpiRuns) == 0 && a.spans == 0
}

func (a *aggregate) hasPF() bool { return len(a.pfRuns) > 0 || len(a.pfSrc) > 0 }

// render writes one section per stream present, in the order pfreport,
// cpistack, spans, with a blank line between sections. The sections
// write through one bufio.Writer, which keeps the first write error and
// returns it from Flush, so only calls that return an error of their
// own are checked along the way.
func (a *aggregate) render(out io.Writer, detail bool) error {
	w := bufio.NewWriter(out)
	sections := []struct {
		present bool
		write   func(*bufio.Writer, bool) error
	}{
		{a.hasPF(), a.writePF},
		{len(a.cpiRuns) > 0, a.writeCPI},
		{a.spans > 0, a.writeSpans},
	}
	first := true
	for _, s := range sections {
		if !s.present {
			continue
		}
		if !first {
			fmt.Fprintln(w)
		}
		first = false
		if err := s.write(w, detail); err != nil {
			return err
		}
	}
	return w.Flush()
}

// writePF renders the per-source attribution rollup and, with detail,
// the per-(source, PC) table.
func (a *aggregate) writePF(w *bufio.Writer, detail bool) error {
	fmt.Fprintf(w, "%d run(s), %d demand transactions\n", len(a.pfRuns), a.demand)
	fmt.Fprintf(w, "%-10s %10s %10s %8s %8s %8s %8s %8s %9s %9s %7s\n",
		"source", "generated", "issued", "useful", "late", "early", "accuracy",
		"coverage", "mergeratio", "earlyrate", "degree")
	for _, n := range sortedKeys(a.pfSrc) {
		c := a.pfSrc[n]
		used := c.Useful + c.Late
		fmt.Fprintf(w, "%-10s %10d %10d %8d %8d %8d %8s %8s %9s %9s %7s\n",
			n, c.Generated, c.Issued, c.Useful, c.Late, c.EarlyEvicted,
			ratio(used, c.Issued), ratio(c.Hits, a.demand),
			ratio(c.DemandMerges, c.Issued), ratio(c.EarlyEvicted, used),
			mean(c.DegreeSum, c.Issued))
	}
	if !detail {
		return nil
	}
	fmt.Fprintln(w)
	return a.pfRep.WriteTable(w)
}

// writeCPI renders one row per run: core count, total attributed cycles
// and each bucket's share of them; with detail, each run's raw per-core
// bucket counts follow.
func (a *aggregate) writeCPI(w *bufio.Writer, detail bool) error {
	runs := sortedKeys(a.cpiRuns)
	fmt.Fprintf(w, "%d run(s)\n", len(runs))
	fmt.Fprintf(w, "%-36s %5s %14s", "run", "cores", "cycles")
	for b := obs.Bucket(0); b < obs.NumBuckets; b++ {
		fmt.Fprintf(w, " %11s", b.String()+"%")
	}
	fmt.Fprintln(w)
	for _, k := range runs {
		r := a.cpiRuns[k]
		total := sum(&r.totals)
		fmt.Fprintf(w, "%-36s %5d %14d", k, len(r.cores), total)
		for _, v := range r.totals {
			fmt.Fprintf(w, " %11s", pct(v, total))
		}
		fmt.Fprintln(w)
	}
	if !detail {
		return nil
	}
	for _, k := range runs {
		r := a.cpiRuns[k]
		fmt.Fprintf(w, "\n%s\n%-5s %14s", k, "core", "cycles")
		for b := obs.Bucket(0); b < obs.NumBuckets; b++ {
			fmt.Fprintf(w, " %12s", b)
		}
		fmt.Fprintln(w)
		ids := make([]int, 0, len(r.cores))
		for id := range r.cores {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			c := r.cores[id]
			fmt.Fprintf(w, "%-5d %14d", id, sum(c))
			for _, v := range c {
				fmt.Fprintf(w, " %12d", v)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// writeSpans renders the cross-run waterfall and, with detail, one
// waterfall per run.
func (a *aggregate) writeSpans(w *bufio.Writer, detail bool) error {
	fmt.Fprintf(w, "%d run(s), %d sampled span(s)\n", len(a.spanRuns), a.spans)
	if err := obs.WriteWaterfall(w, a.spanSrc); err != nil || !detail {
		return err
	}
	for _, k := range sortedKeys(a.spanRuns) {
		fmt.Fprintf(w, "\n%s\n", k)
		if err := obs.WriteWaterfall(w, a.spanRuns[k]); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sum(b *[obs.NumBuckets]uint64) uint64 {
	var n uint64
	for _, v := range b {
		n += v
	}
	return n
}

// ratio formats n/d to three decimals, "-" for an empty denominator.
func ratio(n, d uint64) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(n)/float64(d))
}

// mean formats sum/n to two decimals, "-" for no samples.
func mean(sum, n uint64) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(sum)/float64(n))
}

// pct formats v/total as a percentage to one decimal, "-" for an empty
// total.
func pct(v, total uint64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(v)/float64(total)*100)
}
