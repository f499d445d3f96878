// Command bench is the repository benchmark: it runs the workloads named
// in BENCHMARK.json, each in a child process of its own, checks that the
// simulator's outputs are correct, and prints every metric by name with
// its unit. The last line of its standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload W|all] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-json FILE] [-traced DIR]
//
// -trace 1 (or -traced DIR) adds a traced run of each workload after its
// timed run; the JSON line then carries the per-layer metrics instead of
// the end-to-end ones. -json appends one record per workload to FILE for
// bench/compare. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mtprefetch/bench/record"
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed the workloads' inputs are made from")
	seconds := fs.Int("seconds", 25, "seconds each workload measures for")
	trace := fs.Int("trace", 0, "1: add a traced run and report per-layer metrics")
	jsonPath := fs.String("json", "", "append one run record per workload to this file")
	tracedDir := fs.String("traced", "", "directory for the traced runs' profiles and per-layer metrics (implies -trace 1)")
	child := fs.Bool("child", false, "internal: run one workload in this process")
	profile := fs.String("profile", "", "internal: with -child, trace the run and write its CPU profile here")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	budget := time.Duration(*seconds) * time.Second
	if *child {
		if err := runChild(os.Stdout, *name, *seed, budget, *profile); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	names := workloadOrder
	if *name != "all" {
		if _, ok := workloads[*name]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		names = []string{*name}
	}
	traced := *trace == 1 || *tracedDir != ""
	if traced && *tracedDir == "" {
		root, err := repoRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		*tracedDir = filepath.Join(root, ".bench_build", "traced")
	}
	if traced {
		if err := os.MkdirAll(*tracedDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	host := hostInfo()
	fmt.Printf("host: %d CPUs (GOMAXPROCS %d), %s, %s\n", host.NProc, host.GOMAXPROCS, host.CPU, host.GoVersion)
	var runs []*record.Run
	for _, w := range names {
		run, err := runWorkload(w, *seed, *seconds, traced, *tracedDir, host)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			os.Exit(1)
		}
		printRun(os.Stdout, run)
		if *jsonPath != "" {
			if err := record.Append(*jsonPath, run); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		runs = append(runs, run)
	}
	out := summary(runs, traced)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// runWorkload measures one workload: a timed child process for the
// end-to-end metrics and, when traced, a second child for the per-layer
// ones, whose profile and metrics go to dir. The two split the time
// budget.
func runWorkload(name string, seed uint64, seconds int, traced bool, dir string, host record.Host) (*record.Run, error) {
	budget := seconds
	if traced {
		budget = max(seconds/2, 1)
	}
	timed, err := spawn(name, seed, budget, "")
	if err != nil {
		return nil, err
	}
	var tr *childResult
	if traced {
		if tr, err = spawn(name, seed, budget, filepath.Join(dir, name+".pprof")); err != nil {
			return nil, err
		}
	}
	run := &record.Run{Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Host: host}
	if err := assemble(run, timed, tr); err != nil {
		return nil, err
	}
	if !traced {
		return run, nil
	}
	layers := map[string]record.Metric{}
	for _, d := range perLayer {
		layers[d.name] = run.Metrics[d.name]
	}
	data, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return nil, err
	}
	return run, os.WriteFile(filepath.Join(dir, name+"-layers.json"), append(data, '\n'), 0o644)
}

// assemble fills run from its timed child's result and, when traced is
// non-nil, its traced child's.
func assemble(run *record.Run, timed, traced *childResult) error {
	run.Attempted, run.Failed = timed.Attempted, timed.Failed
	run.Metrics = map[string]record.Metric{}
	for _, d := range endToEnd {
		if err := addMetric(run, d, timed); err != nil {
			return err
		}
	}
	if traced != nil {
		run.Attempted += traced.Attempted + 1
		run.Failed += traced.Failed
		if traced.Digest != timed.Digest {
			run.Failed++
			fmt.Fprintf(os.Stderr, "bench: %s: traced run's results differ from the timed run's\n", run.Workload)
		}
		traced.Samples["trace.overhead_pct"] = []float64{
			100 * (traced.Values["wall_s"]/timed.Values["wall_s"] - 1)}
		for _, d := range perLayer {
			if err := addMetric(run, d, traced); err != nil {
				return err
			}
		}
	}
	run.Correct = run.Failed == 0
	return nil
}

// addMetric summarises a metric into run: its value (the median of its
// samples unless the child reported one) and its samples' quartiles.
// Per-layer metrics of layers the workload does not use have no samples
// and read 0.
func addMetric(run *record.Run, d metricDef, res *childResult) error {
	xs := res.Samples[d.name]
	if len(xs) == 0 && d.bound > 0 {
		return fmt.Errorf("no samples of %s", d.name)
	}
	q1, med, q3 := record.Quartiles(xs)
	if v, ok := res.Values[d.name]; ok {
		med = v
	}
	run.Metrics[d.name] = record.Metric{Value: med, Unit: d.unit, Better: d.better, Bound: d.bound,
		Exact: d.exact, Q1: q1, Q3: q3, N: len(xs)}
	return nil
}

// spawn runs one workload in a child process of this executable and
// returns its result. The child inherits stderr.
func spawn(name string, seed uint64, seconds int, profile string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds)}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	// A hung child is killed well inside the caller's patience; a pass
	// is never more than a few times the budget.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(3*seconds+120)*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &res, nil
}

func hostInfo() record.Host {
	h := record.Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// printRun prints a workload's metrics, one per line, with their units.
func printRun(w io.Writer, run *record.Run) {
	fmt.Fprintf(w, "== %s (seed %d, %d s) correct=%v attempted=%d failed=%d\n",
		run.Workload, run.Seed, run.Seconds, run.Correct, run.Attempted, run.Failed)
	for _, d := range append(endToEnd, perLayer...) {
		m, ok := run.Metrics[d.name]
		if !ok {
			continue
		}
		v := fmt.Sprintf("%.6g", m.Value)
		if d.exact {
			v = strconv.FormatFloat(m.Value, 'f', -1, 64)
		}
		fmt.Fprintf(w, "  %-30s %14s %-9s", d.name, v, m.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, " samples: q1 %.6g  q3 %.6g  n %d", m.Q1, m.Q3, m.N)
		}
		fmt.Fprintln(w)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary folds the runs into the last line: the end-to-end metrics, or
// the per-layer ones when traced. With several workloads, each metric is
// prefixed by its workload's name.
func summary(runs []*record.Run, traced bool) result {
	out := result{Correct: true, Metrics: map[string]resultValue{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, r := range runs {
		out.Correct = out.Correct && r.Failed == 0
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, d := range defs {
			key := d.name
			if len(runs) > 1 {
				key = r.Workload + "." + d.name
			}
			m := r.Metrics[d.name]
			out.Metrics[key] = resultValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}
