// Package harness regenerates the paper's evaluation: one experiment per
// table and figure, each returning text tables whose rows/series mirror
// what the paper reports. The cmd/mtpref CLI is a thin wrapper around
// this registry, and the paper-sweep and observed-store workloads of
// bench/ time it.
package harness

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"mtprefetch/internal/config"
	"mtprefetch/internal/core"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/stats"
	"mtprefetch/internal/store"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

// throttlePeriod replaces the Table II 100k-cycle throttling period in
// every harness run: 100k cycles is far longer than a scaled-down run.
const throttlePeriod = 10_000

// Config controls experiment scale. The zero value is usable and selects
// the defaults noted per field.
type Config struct {
	// Waves scales each benchmark's grid down to roughly this many full
	// occupancy waves per core (default 2). Larger values run longer and
	// reduce warm-up noise; the shapes are stable across scales.
	Waves int
	// Subset restricts the expensive sensitivity sweeps (Figs. 16-18) to
	// a representative benchmark subset instead of the full suite
	// (default true).
	Subset *bool
	// Obs, when non-nil, streams every simulation's epoch samples and
	// trace events into the sink's shared output files (cmd/mtpref's
	// -metrics/-trace/-sample flags). Memoised runs are recorded once,
	// under the key of their first execution.
	Obs *obs.Sink
	// Workers bounds how many simulations one experiment runs
	// concurrently (default GOMAXPROCS). Simulations are independent, so
	// any setting produces byte-identical tables: experiments submit
	// their full run set up front and assemble rows from the completed
	// futures in registration order. 1 reproduces strictly sequential
	// execution.
	Workers int
	// CrashDir, when non-empty, receives a per-run crash-dump bundle
	// (machine config, metrics snapshot, trace tail, stack) for every
	// failed simulation; see crashdump.go. Empty disables dumping.
	CrashDir string
	// NoCycleSkip forces every simulation to visit every cycle instead
	// of event-driven skipping (core.Options.NoCycleSkip). Tables are
	// byte-identical either way (TestCycleSkipDeterminism); the CLI's
	// -noskip flag relies on that.
	NoCycleSkip bool
	// Debug, when non-nil, receives per-run progress and end-of-run
	// registry snapshots for live introspection over HTTP (cmd/mtpref's
	// -http flag); see NewDebugServer. It never affects results.
	Debug *DebugServer
	// Store, when non-nil, is the persistent content-addressed result
	// store (cmd/mtpref's -store flag): runs whose fingerprint is
	// already committed are served from disk (their sink artifacts
	// replayed byte-identically), and completed runs are committed for
	// later invocations. Chaos-injected and tracing runs bypass it; see
	// runner.storeEnabled.
	Store *store.Store
	// RunTimeout, when positive, bounds each simulation in wall clock
	// (core.Options.Ctx), complementing the cycle-domain livelock
	// watchdog: a run that exceeds it fails with context.
	// DeadlineExceeded wrapped in *core.CanceledError. Zero disables
	// the deadline.
	RunTimeout time.Duration
	// Lifecycle, when non-nil, coordinates graceful drain: once its
	// Drain fires (typically from SIGTERM via HandleSignals), queued
	// runs abort with ErrDrained, in-flight runs cancel at their next
	// poll barrier, and the aborted keys are recorded for the exit
	// summary. Completed results already committed to Store survive, so
	// re-running the sweep resumes from exactly the missing cells.
	Lifecycle *Lifecycle
}

func (c Config) waves() int {
	if c.Waves <= 0 {
		return 2
	}
	return c.Waves
}

func (c Config) subset() bool {
	if c.Subset == nil {
		return true
	}
	return *c.Subset
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Run      func(Config) ([]*stats.Table, error)
}

var registry []Experiment

func register(id, title, ref string, run func(Config) ([]*stats.Table, error)) {
	// Every experiment depends on the lazily-built workload suite; a
	// suite-construction failure surfaces here, once, instead of as an
	// empty sweep.
	wrapped := func(c Config) ([]*stats.Table, error) {
		if _, err := workload.Load(); err != nil {
			return nil, err
		}
		return run(c)
	}
	registry = append(registry, Experiment{ID: id, Title: title, PaperRef: ref, Run: wrapped})
}

// Experiments lists the registry in registration (paper) order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment; nil when absent.
func ByID(id string) *Experiment {
	for i := range registry {
		if registry[i].ID == id {
			return &registry[i]
		}
	}
	return nil
}

// runner executes simulations with memoisation, so experiments sharing
// baselines (Figs. 10-15 all normalise to the no-prefetching run) do not
// repeat them. It is safe for concurrent use: submissions for the same
// key are collapsed singleflight-style onto one execution (racing
// goroutines wait for the first), and distinct keys run concurrently on a
// bounded worker pool of Config.Workers goroutines.
type runner struct {
	c   Config
	sem chan struct{} // worker-pool slots; acquired for each execution

	mu    sync.Mutex
	tasks map[string]*task
}

// task is one memoised execution; done is closed once res/err are set.
type task struct {
	done chan struct{}
	res  *core.Result
	err  error
}

// future is a handle on a submitted simulation; wait blocks until its
// task completes.
type future struct{ t *task }

func (f *future) wait() (*core.Result, error) {
	<-f.t.done
	return f.t.res, f.t.err
}

// res waits and returns the result, or nil when the run failed; table
// assembly uses it so one failed run degrades to ERR cells while its
// siblings' cells are untouched. The failure itself is reported by
// runner.failures.
func (f *future) res() *core.Result {
	r, _ := f.wait()
	return r
}

func newRunner(c Config) *runner {
	return &runner{
		c:     c,
		sem:   make(chan struct{}, c.workers()),
		tasks: make(map[string]*task),
	}
}

// spec scales a benchmark to the configured number of waves, computed
// against the baseline 14-core machine so sweeps stay comparable. The
// factor rounds to nearest (min 1): truncation would run a benchmark
// with Blocks just under a multiple of the target at up to ~2x the
// intended waves, and one with Blocks < target entirely unscaled.
func (r *runner) spec(s *workload.Spec) *workload.Spec {
	target := 14 * s.MaxBlocksPerCore * r.c.waves()
	f := (s.Blocks + target/2) / target
	if f < 1 {
		f = 1
	}
	return s.Scaled(f)
}

// machine returns the baseline config with the scaled throttle period.
func (r *runner) machine() *config.Config {
	cfg := config.Baseline()
	cfg.ThrottlePeriod = throttlePeriod
	return cfg
}

// submit schedules one simulation (or joins the in-flight/completed
// execution memoised under key) and returns its future. key must
// uniquely identify the configuration; the options of later submissions
// with the same key are ignored.
func (r *runner) submit(key string, o core.Options) *future {
	r.mu.Lock()
	t, ok := r.tasks[key]
	if !ok {
		t = &task{done: make(chan struct{})}
		r.tasks[key] = t
		go r.execute(key, t, o)
	}
	r.mu.Unlock()
	return &future{t}
}

// execute runs one simulation on a worker-pool slot and completes t.
// Under a drain, queued executions abort instead of starting (waiting
// for a slot counts as queued), and in-flight cancellations are
// recorded as aborted rather than failed.
func (r *runner) execute(key string, t *task, o core.Options) {
	defer close(t.done)
	select {
	case r.sem <- struct{}{}:
	case <-r.c.Lifecycle.drainingC():
		t.err = r.abortDrained(key, o)
		return
	}
	defer func() { <-r.sem }()
	if r.c.Lifecycle.Draining() { // won the slot race, but too late
		t.err = r.abortDrained(key, o)
		return
	}
	r.c.Debug.RunStarted(key)
	t.res, t.err = r.runOne(key, o)
	if t.err != nil && errors.Is(t.err, core.ErrCanceled) && r.c.Lifecycle.Draining() {
		r.c.Lifecycle.noteAborted(key)
	}
}

// abortDrained fails a run that never started because of a drain.
func (r *runner) abortDrained(key string, o core.Options) error {
	r.c.Lifecycle.noteAborted(key)
	err := &RunError{Key: key, Fingerprint: fingerprint(o), Err: ErrDrained}
	r.c.Debug.RunFinished(key, nil, err)
	return err
}

// runOne resolves one simulation: a store hit replays the committed
// result and artifacts without simulating; otherwise the run executes
// once (attempt) — a deterministic simulation that fails would fail the
// same way again — and the outcome is published and, on success,
// committed to the store.
//
// A Finish error is returned alongside the result, not instead of it:
// the simulation completed, so its table cells stay valid.
func (r *runner) runOne(key string, o core.Options) (*core.Result, error) {
	fp := r.storeFingerprint(key, o)
	if res, ok, err := r.storeGet(key, fp); ok {
		return res, err
	}
	res, ob, snap, err := r.attempt(key, o)
	r.c.Debug.RunFinished(key, snap, err)
	if err != nil {
		return nil, err
	}
	artifacts, err := r.c.Obs.Finish(key, ob)
	if err != nil {
		return res, fmt.Errorf("%s: %w", key, err)
	}
	r.storePut(key, fp, artifacts, res)
	return res, nil
}

// attempt executes one simulation with panic isolation: a panic
// anywhere in the simulator becomes a *RunError carrying the run key,
// an options fingerprint, and the stack, so one poisoned run costs its
// own table cells and nothing else. Run/New errors are wrapped the same
// way, and either path writes a crash dump when Config.CrashDir is set.
// The run gets a fresh observer and its own deadline-bounded context;
// snap is nil after a panic (the simulator may be mid-mutation).
func (r *runner) attempt(key string, o core.Options) (res *core.Result, ob *obs.Observer, snap []obs.SnapshotEntry, err error) {
	var sim *core.Simulator
	defer func() {
		if p := recover(); p != nil {
			re := &RunError{Key: key, Fingerprint: fingerprint(o), Panic: p, Stack: debug.Stack()}
			re.DumpPath = r.dump(re, o, sim)
			res, snap, err = nil, nil, re
		}
	}()
	ctx, cancel := r.runCtx()
	if cancel != nil {
		defer cancel()
	}
	o.Ctx = ctx
	o.Obs = r.c.Obs.Observer()
	o.NoCycleSkip = r.c.NoCycleSkip
	if o.Obs != nil {
		// Live telemetry: CPIStack publishes epoch snapshots and SpanSet
		// aggregates finished spans under their own mutexes, so
		// /tolerance and /spans reads are safe while the run is in
		// flight.
		r.c.Debug.RunLive(key, o.Obs.CPI, o.Obs.Spans)
	}
	if o.Obs == nil && r.c.CrashDir != "" {
		// No sink, but crash dumps are wanted: attach a private tracer so
		// a failure's dump includes the event tail leading up to it.
		o.Obs = obs.New(obs.Config{TraceCapacity: obs.DefaultTraceCapacity})
	}
	sim, err = core.New(o)
	if err == nil {
		res, err = sim.Run()
	}
	if err != nil {
		re := &RunError{Key: key, Fingerprint: fingerprint(o), Err: err}
		re.DumpPath = r.dump(re, o, sim)
		return nil, o.Obs, snapshotOf(sim), re
	}
	return res, o.Obs, snapshotOf(sim), nil
}

// snapshotOf freezes a simulator's registry for the debug server; nil
// when the simulator was never built (a New error).
func snapshotOf(sim *core.Simulator) []obs.SnapshotEntry {
	if sim == nil {
		return nil
	}
	return sim.Registry().Snapshot()
}

// fingerprint summarises the options that define a run, for failure
// reports (the memo key is compact but drops the machine shape).
func fingerprint(o core.Options) string {
	cfg := o.Config
	if cfg == nil {
		cfg = config.Baseline()
	}
	bench := "<nil>"
	if o.Workload != nil {
		bench = o.Workload.Name
	}
	hw := "none"
	if o.Hardware != nil {
		hw = "set"
	}
	return fmt.Sprintf("bench=%s cores=%d sw=%v hw=%s throttle=%v filter=%v pmem=%v",
		bench, cfg.NumCores, o.Software, hw, o.Throttle, o.PollutionFilter, o.PerfectMemory)
}

// failures aggregates every failed completed run into a *SweepError
// (nil when all completed runs succeeded). Experiments call it after
// assembling their tables, so a degraded sweep returns both the tables
// (with ERR cells) and the damage report.
func (r *runner) failures() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var keys []string
	for k, t := range r.tasks {
		select {
		case <-t.done:
			if t.err != nil {
				keys = append(keys, k)
			}
		default: // still running (not part of this experiment's wait set)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Strings(keys)
	se := &SweepError{Failed: len(keys), Total: len(r.tasks)}
	for _, k := range keys {
		se.Errs = append(se.Errs, r.tasks[k].err)
	}
	return se
}

// run executes (or recalls) one simulation synchronously.
func (r *runner) run(key string, o core.Options) (*core.Result, error) {
	return r.submit(key, o).wait()
}

// baselineF submits the no-prefetching binary for a benchmark.
func (r *runner) baselineF(s *workload.Spec) *future {
	return r.submit("base/"+s.Name, core.Options{
		Config:   r.machine(),
		Workload: r.spec(s),
	})
}

// baseline is the synchronous form of baselineF.
func (r *runner) baseline(s *workload.Spec) (*core.Result, error) {
	return r.baselineF(s).wait()
}

// softwareF submits a software-prefetching configuration.
func (r *runner) softwareF(s *workload.Spec, m swpref.Mode, throttle bool) *future {
	key := fmt.Sprintf("sw/%s/%v/%v", s.Name, m, throttle)
	return r.submit(key, core.Options{
		Config:   r.machine(),
		Workload: r.spec(s),
		Software: m,
		Throttle: throttle,
	})
}

// hardwareF submits a hardware-prefetching configuration.
func (r *runner) hardwareF(s *workload.Spec, name string, f func() prefetch.Prefetcher, throttle bool) *future {
	key := fmt.Sprintf("hw/%s/%s/%v", s.Name, name, throttle)
	return r.submit(key, core.Options{
		Config:   r.machine(),
		Workload: r.spec(s),
		Hardware: f,
		Throttle: throttle,
	})
}

// suite returns the memory-intensive benchmarks in Table III order.
func suite() []*workload.Spec { return workload.MemoryIntensive() }

// sensitivitySubset is the representative set used by Figs. 16-18: two
// stride winners, the sliding-window benchmark, the pathological
// late-prefetch case, and two uncoalesced filters.
var sensitivitySubset = []string{"mersenne", "monte", "conv", "stream", "cfd", "sepia"}

func (r *runner) sweepSuite() []*workload.Spec {
	if !r.c.subset() {
		return suite()
	}
	var out []*workload.Spec
	for _, n := range sensitivitySubset {
		out = append(out, workload.ByName(n))
	}
	return out
}

// Named hardware-prefetcher factories (Table V + the paper's MT-HWP).
type namedHW struct {
	name string
	make func() prefetch.Prefetcher
}

func hwStrideRPT(warpAware bool) namedHW {
	n := "stride"
	if warpAware {
		n = "stride+wid"
	}
	return namedHW{n, func() prefetch.Prefetcher {
		return prefetch.NewStrideRPT(prefetch.StrideRPTOptions{WarpAware: warpAware})
	}}
}

func hwStridePC(warpAware, throttled bool) namedHW {
	n := "stridepc"
	if warpAware {
		n += "+wid"
	}
	if throttled {
		n += "+T"
	}
	return namedHW{n, func() prefetch.Prefetcher {
		return prefetch.NewStridePC(prefetch.StridePCOptions{WarpAware: warpAware, Throttled: throttled})
	}}
}

func hwStream(warpAware bool) namedHW {
	n := "stream"
	if warpAware {
		n = "stream+wid"
	}
	return namedHW{n, func() prefetch.Prefetcher {
		return prefetch.NewStream(prefetch.StreamOptions{WarpAware: warpAware})
	}}
}

func hwGHB(warpAware, feedback bool) namedHW {
	n := "ghb"
	if warpAware {
		n += "+wid"
	}
	if feedback {
		n += "+F"
	}
	return namedHW{n, func() prefetch.Prefetcher {
		return prefetch.NewGHB(prefetch.GHBOptions{WarpAware: warpAware, Feedback: feedback})
	}}
}

func hwMTHWP(gs, ip bool, distance int) namedHW {
	n := "pws"
	if gs {
		n += "+gs"
	}
	if ip {
		n += "+ip"
	}
	if distance > 1 {
		n += fmt.Sprintf("/d%d", distance)
	}
	return namedHW{n, func() prefetch.Prefetcher {
		return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: gs, EnableIP: ip, Distance: distance})
	}}
}

// errCell marks a table cell whose run failed; fmtCell renders it.
func errCell() float64 { return math.NaN() }

// fmtCell renders one numeric table cell, with failed runs as ERR.
func fmtCell(v float64) string {
	if math.IsNaN(v) {
		return "ERR"
	}
	return stats.FormatFloat(v)
}

// geomeanColumn computes the per-column geomean of a speedup matrix,
// skipping failed (NaN) cells; all-failed columns stay NaN (ERR).
func geomeanColumn(rows [][]float64, col int) float64 {
	var xs []float64
	for _, r := range rows {
		if col < len(r) && !math.IsNaN(r[col]) {
			xs = append(xs, r[col])
		}
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Geomean(xs)
}
