// Command mtpref regenerates the evaluation of "Many-Thread Aware
// Prefetching Mechanisms for GPGPU Applications" (Lee et al., MICRO 2010):
// every table and figure of the paper maps to one experiment id.
//
// Usage:
//
//	mtpref list                 # show all experiments
//	mtpref run <id> [...]       # run selected experiments
//	mtpref all                  # run everything
//
// Flags (accepted before or after the subcommand and ids):
//
//	-waves N        scale benchmarks to ~N occupancy waves per core, at
//	                least 1 (default 2)
//	-full           run sensitivity sweeps over the full suite, not the subset
//	-j N            run up to N simulations concurrently per experiment, at
//	                least 1 (default GOMAXPROCS; -j 1 is strictly sequential,
//	                and any setting produces byte-identical tables)
//	-csv DIR        additionally write each table as <DIR>/<exp>-<n>.csv
//	-metrics FILE   write per-epoch time series as JSONL (one line per run per epoch)
//	-trace FILE     write a Chrome trace-event JSON (load in Perfetto / chrome://tracing)
//	-pfreport FILE  write per-run prefetch attribution (per-source/per-PC
//	                outcome counts) as JSONL
//	-cpistack FILE  write per-run CPI stacks (cycle accounting: where every
//	                core-cycle went) and latency-tolerance snapshots as JSONL
//	-spans FILE     write request-level span records (a deterministic sample
//	                of memory requests with per-stage latency decomposition:
//	                MRQ wait, NoC transit, DRAM queueing and service) as
//	                JSONL. With -trace, the trace additionally carries one
//	                flow arc per sampled fill
//	-span-every N   span sampling divisor: one in N eligible requests is
//	                sampled, at least 1 (default 32); sampling is
//	                deterministic and independent of -j and -noskip
//	-http ADDR      serve live sweep introspection on ADDR (e.g. :6060):
//	                "/" per-run progress JSON, "/metrics" Prometheus text,
//	                "/healthz" run-state JSON, "/store" result-store
//	                statistics, "/tolerance" live per-core latency-tolerance
//	                snapshots, "/spans" live per-source latency waterfalls,
//	                "/debug/pprof" Go profiling
//	-http-snapshots N
//	                keep the metrics snapshots of the last N finished runs
//	                on the debug server, not negative (default 32)
//	-sample N       epoch length in cycles for -metrics sampling and
//	                -cpistack epochs, at least 1 (default 10000)
//	-crashdir DIR   write a per-run crash-dump bundle for every failed simulation
//	-noskip         visit every cycle instead of event-driven skipping (slower;
//	                output is byte-identical either way —
//	                TestCycleSkipDeterminism enforces it)
//	-store DIR      persist every completed run in a crash-safe
//	                content-addressed result store under DIR; reruns and
//	                resumed sweeps serve matching runs from disk
//	                byte-identically instead of re-simulating
//	                (TestStoreKillAndResume enforces it, killing a sweep
//	                mid-flight). Corrupt entries are quarantined and
//	                re-simulated.
//	-run-timeout D  wall-clock deadline per simulation (e.g. 5m; 0 = none),
//	                complementing the cycle-domain livelock watchdog
//	-cpuprofile F   write a pprof CPU profile of the whole invocation to F
//	-memprofile F   write a pprof heap profile (taken at exit) to F
//
// cmd/mtstat post-processes the -pfreport, -cpistack and -spans files.
//
// The first SIGTERM/SIGINT drains gracefully: no new simulations start,
// in-flight ones cancel at their next poll barrier, results completed so
// far are committed to -store, and the aborted run keys are listed; a
// second signal exits immediately. Re-running the same command resumes
// from exactly the missing runs.
//
// Exit codes: 0 all experiments clean; 1 fatal error (nothing usable was
// produced); 2 usage error; 3 degraded (every experiment printed its
// tables, but some runs failed and rendered as ERR cells); 4 drained (a
// signal interrupted the sweep; completed results were committed).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mtprefetch/internal/harness"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/store"
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: mtpref [-waves N] [-full] [-j N] [-csv DIR] [-metrics FILE] [-trace FILE] [-pfreport FILE] [-cpistack FILE] [-spans FILE] [-span-every N] [-http ADDR] [-http-snapshots N] [-sample N] [-crashdir DIR] [-noskip] [-store DIR] [-run-timeout D] [-cpuprofile FILE] [-memprofile FILE] {list | run <id>... | all}\n")
	os.Exit(2)
}

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"mtpref:"}, args...)...)
	stopProfiles()
	os.Exit(1)
}

// stopProfiles finalises -cpuprofile/-memprofile output. It is a
// package-level variable because fatal exits the process directly, so
// every exit path (normal, degraded, fatal) must flush through it; it
// replaces itself with a no-op on first call so a fatal inside a
// finaliser cannot recurse.
var stopProfiles = func() {}

// startProfiles begins CPU profiling and arranges the heap snapshot,
// installing the combined finaliser into stopProfiles.
func startProfiles(cpuPath, memPath string) {
	var stops []func()
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		})
	}
	if memPath != "" {
		stops = append(stops, func() {
			f, err := os.Create(memPath)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		})
	}
	if len(stops) == 0 {
		return
	}
	stopProfiles = func() {
		stopProfiles = func() {}
		for _, stop := range stops {
			stop()
		}
	}
}

// cliFlags holds every mtpref flag value after parsing.
type cliFlags struct {
	waves       int
	workers     int
	full        bool
	csvDir      string
	metricsPath string
	tracePath   string
	pfPath      string
	cpiPath     string
	spanPath    string
	spanEvery   uint64
	httpAddr    string
	httpSnaps   int
	sample      uint64
	crashDir    string
	noSkip      bool
	storeDir    string
	runTimeout  time.Duration
	cpuProfile  string
	memProfile  string
}

// defineFlags registers the mtpref flags on fs and returns the value
// struct they populate.
func defineFlags(fs *flag.FlagSet) *cliFlags {
	c := &cliFlags{}
	fs.IntVar(&c.waves, "waves", 2, "occupancy waves per core when scaling benchmarks (at least 1)")
	fs.IntVar(&c.workers, "j", runtime.GOMAXPROCS(0), "concurrent simulations per experiment (at least 1; 1 = sequential)")
	fs.BoolVar(&c.full, "full", false, "run sensitivity sweeps on the full suite")
	fs.StringVar(&c.csvDir, "csv", "", "directory to write per-table CSV files into")
	fs.StringVar(&c.metricsPath, "metrics", "", "JSONL file for per-epoch metric samples")
	fs.StringVar(&c.tracePath, "trace", "", "Chrome trace-event JSON file")
	fs.StringVar(&c.pfPath, "pfreport", "", "JSONL file for per-run prefetch attribution (see cmd/mtstat)")
	fs.StringVar(&c.cpiPath, "cpistack", "", "JSONL file for per-run CPI stacks and latency tolerance (see cmd/mtstat)")
	fs.StringVar(&c.spanPath, "spans", "", "JSONL file for per-run request span records (see cmd/mtstat)")
	fs.Uint64Var(&c.spanEvery, "span-every", obs.DefaultSpanEvery, "span sampling divisor: one in N eligible requests is sampled (at least 1)")
	fs.StringVar(&c.httpAddr, "http", "", "address for the live-introspection debug server (e.g. :6060)")
	fs.IntVar(&c.httpSnaps, "http-snapshots", harness.DefaultSnapshotKeep, "finished-run metrics snapshots kept on the debug server")
	fs.Uint64Var(&c.sample, "sample", 10_000, "epoch length in cycles for -metrics sampling and -cpistack epochs (at least 1)")
	fs.StringVar(&c.crashDir, "crashdir", "", "directory for per-run crash-dump bundles on failure")
	fs.BoolVar(&c.noSkip, "noskip", false, "visit every cycle instead of event-driven skipping")
	fs.StringVar(&c.storeDir, "store", "", "directory for the crash-safe persistent result store (resumes sweeps byte-identically)")
	fs.DurationVar(&c.runTimeout, "run-timeout", 0, "wall-clock deadline per simulation (0 = none)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a pprof heap profile (at exit) to this file")
	return c
}

// validate rejects flag values that parse but mean nothing. The
// library would silently replace each of them with its default, or
// clamp it (a negative snapshot count keeps none).
func (c *cliFlags) validate() error {
	switch {
	case c.sample == 0:
		return errors.New("-sample must be at least 1")
	case c.spanEvery == 0:
		return errors.New("-span-every must be at least 1")
	case c.waves < 1:
		return errors.New("-waves must be at least 1")
	case c.workers < 1:
		return errors.New("-j must be at least 1")
	case c.runTimeout < 0:
		return errors.New("-run-timeout must not be negative")
	case c.httpSnaps < 0:
		return errors.New("-http-snapshots must not be negative")
	}
	return nil
}

// parseIntermixed handles flags appearing after positional arguments
// (`mtpref run fig12 -sample 1000 -metrics m.jsonl`): the standard flag
// package stops at the first non-flag, so re-parse the remainder after
// collecting each positional. With flag.ExitOnError a bad flag exits;
// with flag.ContinueOnError (tests) the first parse error is returned.
func parseIntermixed(fs *flag.FlagSet, args []string) ([]string, error) {
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var pos []string
	rest := fs.Args()
	for len(rest) > 0 {
		pos = append(pos, rest[0])
		if err := fs.Parse(rest[1:]); err != nil {
			return nil, err
		}
		rest = fs.Args()
	}
	return pos, nil
}

// outFile wraps a created file in a buffered writer; nil path gives nil
// writer (disabling that output).
type outFile struct {
	f  *os.File
	bw *bufio.Writer
}

func newOutFile(path string) (*outFile, io.Writer) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	o := &outFile{f: f, bw: bufio.NewWriter(f)}
	return o, o.bw
}

func (o *outFile) close() {
	if o == nil {
		return
	}
	if err := o.bw.Flush(); err != nil {
		fatal(err)
	}
	if err := o.f.Close(); err != nil {
		fatal(err)
	}
}

func main() {
	fs := flag.NewFlagSet("mtpref", flag.ExitOnError)
	fs.Usage = usage
	cli := defineFlags(fs)
	args, err := parseIntermixed(fs, os.Args[1:])
	if err != nil {
		usage()
	}
	if err := cli.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "mtpref:", err)
		usage()
	}
	if len(args) == 0 {
		usage()
	}

	subset := !cli.full
	cfg := harness.Config{Waves: cli.waves, Subset: &subset, Workers: cli.workers,
		CrashDir: cli.crashDir, NoCycleSkip: cli.noSkip, RunTimeout: cli.runTimeout}
	startProfiles(cli.cpuProfile, cli.memProfile)

	if cli.storeDir != "" {
		st, err := store.Open(cli.storeDir)
		if err != nil {
			fatal(err)
		}
		cfg.Store = st
	}

	// Graceful drain: the first SIGTERM/SIGINT stops new simulations and
	// cancels in-flight ones at their next poll barrier; completed
	// results stay committed to -store, so re-running resumes exactly
	// the aborted cells. A second signal exits immediately.
	lc := harness.NewLifecycle()
	cfg.Lifecycle = lc
	stopSignals := lc.HandleSignals()
	defer stopSignals()

	mf, mw := newOutFile(cli.metricsPath)
	tf, tw := newOutFile(cli.tracePath)
	pf, pw := newOutFile(cli.pfPath)
	cf, cw := newOutFile(cli.cpiPath)
	sf, sw := newOutFile(cli.spanPath)
	sink, err := obs.NewSink(mw, tw, pw, cw, sw, obs.Config{SampleEvery: cli.sample, SpanEvery: cli.spanEvery})
	if err != nil {
		fatal(err)
	}
	cfg.Obs = sink

	if cli.httpAddr != "" {
		ds, err := harness.NewDebugServer(cli.httpAddr)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		ds.SetSnapshotKeep(cli.httpSnaps)
		ds.SetStore(cfg.Store)
		fmt.Fprintf(os.Stderr, "mtpref: debug server listening on http://%s\n", ds.Addr())
		cfg.Debug = ds
	}

	// Experiments degraded by failed runs (ERR cells) are collected and
	// reported after everything else has had its chance to complete; a
	// nil-table failure aborts immediately.
	var degraded []error
	runExp := func(e *harness.Experiment) {
		err := runOne(e, cfg, cli.csvDir)
		if err == nil {
			return
		}
		var se *harness.SweepError
		if errors.As(err, &se) {
			degraded = append(degraded, err)
			return
		}
		fatal(err)
	}

	switch args[0] {
	case "list":
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %-12s %s\n", e.ID, e.PaperRef, e.Title)
		}
	case "all":
		for _, e := range harness.Experiments() {
			runExp(&e)
		}
	case "run":
		if len(args) < 2 {
			usage()
		}
		for _, id := range args[1:] {
			e := harness.ByID(id)
			if e == nil {
				fatal(fmt.Sprintf("unknown experiment %q (try 'mtpref list')", id))
			}
			runExp(e)
		}
	default:
		usage()
	}

	if err := sink.Close(); err != nil {
		fatal(err)
	}
	mf.close()
	tf.close()
	pf.close()
	cf.close()
	sf.close()
	stopProfiles()

	// A drain outranks the degraded exit: the aborted runs render as ERR
	// cells too, but they are interruptions to resume, not failures.
	if aborted := lc.Aborted(); len(aborted) > 0 {
		fmt.Fprintf(os.Stderr, "mtpref: drained: %d run(s) aborted:\n", len(aborted))
		for _, k := range aborted {
			fmt.Fprintf(os.Stderr, "  %s\n", k)
		}
		fmt.Fprintf(os.Stderr, "mtpref: completed results were committed; re-run with -store to resume\n")
		os.Exit(4)
	}
	if len(degraded) > 0 {
		fmt.Fprintf(os.Stderr, "mtpref: %d experiment(s) had failed runs:\n", len(degraded))
		for _, err := range degraded {
			fmt.Fprintf(os.Stderr, "  %v\n", err)
		}
		os.Exit(3)
	}
}

// runOne runs one experiment and prints its tables. A degraded sweep
// (tables plus a *harness.SweepError) still prints everything — failed
// cells show as ERR — and returns the error for the exit-code summary;
// only a nil-table failure produced nothing printable.
func runOne(e *harness.Experiment, cfg harness.Config, csvDir string) error {
	start := time.Now()
	tables, err := e.Run(cfg)
	if err != nil && tables == nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Printf("== %s (%s) ==\n", e.ID, e.PaperRef)
	for i, t := range tables {
		fmt.Println(t)
		if csvDir == "" {
			continue
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		name := e.ID
		if len(tables) > 1 {
			name = fmt.Sprintf("%s-%d", e.ID, i+1)
		}
		path := filepath.Join(csvDir, name+".csv")
		content := "# " + strings.ReplaceAll(t.Title(), "\n", " ") + "\n" + t.CSV()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
	}
	if err != nil {
		// "with failed runs" keeps the "completed in ..." normalisation
		// of TestStoreKillAndResume and bench/ from matching a degraded
		// run.
		fmt.Printf("[%s completed with failed runs in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Printf("[%s completed in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}
