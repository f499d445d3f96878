// Command benchjson converts `go test -bench` text output (read from
// stdin) into deterministic JSON on stdout, so benchmark results can be
// archived as CI artifacts (`make bench-core` → BENCH_core.json) and
// diffed across commits without parsing the text format downstream.
//
// Usage:
//
//	go test -bench=. -run=^$ . | go run ./cmd/benchjson > BENCH.json
//	go test -bench=CoreAlloc -benchmem -run=^$ . | go run ./cmd/benchjson -budget ci/alloc_budget.json > BENCH_alloc.json
//
// Each "Benchmark..." result line becomes one object carrying the
// benchmark name, iteration count, ns/op, the -benchmem B/op and
// allocs/op columns when present, and every custom b.ReportMetric pair
// (e.g. cycles/s, %skipped, speedup) under "metrics". Cycle-accounting
// metrics with a "cpi%<bucket>" unit are grouped into a nested
// "cpi_stack" object keyed by bucket name. The goos/goarch/pkg/cpu
// header lines are captured once at the top level. Lines that are not
// benchmark results (PASS, ok, warnings) are ignored.
//
// The document records the host parallelism (`gomaxprocs`, `num_cpu`)
// alongside the results.
//
// With -budget FILE, the file is parsed as JSON mapping benchmark name
// to the maximum allowed allocs/op; after writing the document, any
// result over its budget (or any budgeted benchmark missing from the
// results — a rename must not silently disable the gate) fails the run
// with exit status 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// result is one benchmark line.
type result struct {
	Name        string             `json:"name"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// CPIStack collects the cycle-accounting metrics the core benchmarks
	// report with a "cpi%<bucket>" unit, keyed by bucket name, so the
	// per-bucket stall percentages form one nested object instead of
	// being scattered through Metrics.
	CPIStack map[string]float64 `json:"cpi_stack,omitempty"`
}

// output is the whole document.
type output struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GOMAXPROCS and NumCPU describe the host the benchmarks ran on;
	// wall-clock comparisons across hosts are meaningless without them.
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Results    []result `json:"results"`
}

// checkBudget compares each result's allocs/op against the committed
// per-benchmark budget and returns one violation message per breach.
// Budgeted benchmarks missing from the results are violations too.
func checkBudget(out *output, budget map[string]float64) []string {
	var bad []string
	seen := map[string]bool{}
	for _, r := range out.Results {
		max, ok := budget[r.Name]
		if !ok {
			continue
		}
		seen[r.Name] = true
		if r.AllocsPerOp == nil {
			bad = append(bad, fmt.Sprintf("%s: no allocs/op column (run with -benchmem)", r.Name))
			continue
		}
		if *r.AllocsPerOp > max {
			bad = append(bad, fmt.Sprintf("%s: %.0f allocs/op exceeds budget %.0f", r.Name, *r.AllocsPerOp, max))
		}
	}
	for name := range budget {
		if !seen[name] {
			bad = append(bad, fmt.Sprintf("%s: budgeted benchmark missing from results", name))
		}
	}
	return bad
}

// parseLine parses one "BenchmarkName-8  	 123  	 456 ns/op ..." line.
// The unit of each value follows it as the next field; custom metrics
// use the same "value unit" convention.
func parseLine(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return result{}, false
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: f[0], Runs: runs}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix ("-8") if the tail is numeric.
		if _, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name = r.Name[:i]
		}
	}
	seenNs := false
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return result{}, false
		}
		unit := f[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp = val
			seenNs = true
		case "B/op":
			v := val
			r.BytesPerOp = &v
		case "allocs/op":
			v := val
			r.AllocsPerOp = &v
		default:
			if bucket, ok := strings.CutPrefix(unit, "cpi%"); ok {
				if r.CPIStack == nil {
					r.CPIStack = map[string]float64{}
				}
				r.CPIStack[bucket] = val
				continue
			}
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = val
		}
	}
	if !seenNs {
		return result{}, false
	}
	return r, true
}

func main() {
	budgetFile := flag.String("budget", "", "JSON file mapping benchmark name to max allocs/op; breaches fail with exit 1")
	flag.Parse()
	out := output{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			out.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if r, ok := parseLine(line); ok {
				out.Results = append(out.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *budgetFile != "" {
		// The document is already written, so a failing gate still
		// leaves the artifact for inspection.
		data, err := os.ReadFile(*budgetFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var budget map[string]float64
		if err := json.Unmarshal(data, &budget); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parse %s: %v\n", *budgetFile, err)
			os.Exit(1)
		}
		if bad := checkBudget(&out, budget); len(bad) > 0 {
			for _, m := range bad {
				fmt.Fprintln(os.Stderr, "benchjson: allocation budget:", m)
			}
			os.Exit(1)
		}
	}
}
