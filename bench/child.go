package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mtprefetch/internal/core"
	"mtprefetch/internal/workload"
)

// childResult is what a workload's child process reports to the parent,
// as one JSON line on its standard output.
type childResult struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Samples   map[string][]float64 `json:"samples"`
	// Values overrides the median of Samples as a metric's reported
	// value; see bench.fastest.
	Values map[string]float64 `json:"values"`
	// Digest fingerprints the simulation results where they must agree
	// across processes (synth-lowocc: untraced and traced runs).
	Digest string `json:"digest,omitempty"`
}

// bench is one workload run inside a child process.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration
	profile  string // CPU profile of the timed phase; empty when not traced
	smoke    bool   // a few benchmarks instead of the workload's inputs
	root     string // repository root: results_reference.txt lives here
	work     string // scratch directory, removed when the run ends
	log      io.Writer

	res childResult
	// best holds, per metric and unit of work, the unit's fastest time.
	best map[string]map[string]float64
	// simRuns counts simulations executed in the timed phase, the
	// denominator of the per-run allocation metrics.
	simRuns int
}

// workloads maps each workload name to its body.
var workloads = map[string]func(*bench) error{
	"paper-sweep":    (*bench).paperSweep,
	"suite-base":     (*bench).suiteBase,
	"synth-lowocc":   (*bench).synthLowOcc,
	"observed-store": (*bench).observedStore,
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"paper-sweep", "suite-base", "synth-lowocc", "observed-store"}

// runChild runs one workload in this process and writes its result to w.
// profile, when set, names the CPU profile of the timed phase the traced
// run writes.
func runChild(w io.Writer, name string, seed uint64, budget time.Duration, profile string) error {
	res, err := measure(name, seed, budget, profile, false)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(res)
}

// measure runs one workload. smoke shrinks its inputs to a few
// benchmarks, for the smoke test.
func measure(name string, seed uint64, budget time.Duration, profile string, smoke bool) (*childResult, error) {
	body, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(scratch, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{
		workload: name, seed: seed, budget: budget, profile: profile, smoke: smoke,
		root: root, work: work, log: os.Stderr,
		res:  childResult{Samples: map[string][]float64{}, Values: map[string]float64{}},
		best: map[string]map[string]float64{},
	}
	if err := body(b); err != nil {
		return nil, err
	}
	for metric, units := range b.best {
		for _, s := range units {
			b.res.Values[metric] += s
		}
	}
	if b.traced() {
		if err := b.cpuProfileShares(); err != nil {
			return nil, err
		}
	}
	return &b.res, nil
}

// repoRoot finds the repository root: the working directory when the
// benchmark runs from it, its parent when run from bench/ (go test).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "results_reference.txt")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("results_reference.txt not found: run from the repository root")
}

func (b *bench) traced() bool { return b.profile != "" }

// smokeBenchmarks is how many benchmarks or kernels a smoke run keeps.
const smokeBenchmarks = 3

// trim cuts a workload's inputs down in a smoke run.
func trim[T any](b *bench, xs []T) []T {
	if b.smoke && len(xs) > smokeBenchmarks {
		return xs[:smokeBenchmarks]
	}
	return xs
}

func (b *bench) sample(name string, v float64) {
	b.res.Samples[name] = append(b.res.Samples[name], v)
}

// set records a metric measured once per run.
func (b *bench) set(name string, v float64) { b.res.Samples[name] = []float64{v} }

// fastest records one timing of a unit of work (a simulation, an
// experiment) towards metric, whose reported value becomes the sum over
// its units of each one's fastest time in the run. A shared host's speed
// drifts in phases: on a 2-CPU KVM guest (Intel Xeon, Sapphire Rapids)
// one simulation took from 1x to 1.7x its best time from one repetition
// to the next, and whole minutes ran 20% slow. Noise only adds time, so
// a unit's fastest repetition measures the code and the others mostly
// measure the neighbours.
func (b *bench) fastest(metric, unit string, d time.Duration) {
	units := b.best[metric]
	if units == nil {
		units = map[string]float64{}
		b.best[metric] = units
	}
	if s, ok := units[unit]; !ok || d.Seconds() < s {
		units[unit] = d.Seconds()
	}
}

// check counts one correctness check; a failed one is logged.
func (b *bench) check(ok bool, format string, args ...any) {
	b.res.Attempted++
	if !ok {
		b.res.Failed++
		fmt.Fprintf(b.log, "bench: %s: FAILED: %s\n", b.workload, fmt.Sprintf(format, args...))
	}
}

// Set-up is repeated at least setupReps times and for at least
// setupWarm, which also brings the CPU up to speed before the timed
// passes: on the same guest, a process's first half second ran
// simulations 1.5x slower.
const (
	setupReps = 25
	setupWarm = time.Second
)

// setup measures the workload's set-up, setup_s: once (the one-time input
// preparation, timed by the caller) plus preparing the per-run inputs and
// building one simulator for every option set opts gives, the set-up
// every simulation pays. Each step's fastest repetition counts, which
// also leaves out the garbage collections the builds trigger (each
// allocates about 0.6 MB).
func (b *bench) setup(once time.Duration, opts func() ([]core.Options, error)) error {
	b.res.Values["setup_s"] = once.Seconds()
	warm := setupWarm
	if b.smoke {
		warm = 0
	}
	start := time.Now()
	for i := 0; i < setupReps || time.Since(start) < warm; i++ {
		t := time.Now()
		list, err := opts()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		prep := time.Since(t)
		b.fastest("setup_s", "inputs", prep)
		total := once + prep
		for j, o := range list {
			t := time.Now()
			if _, err := core.New(o); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			d := time.Since(t)
			b.fastest("setup_s", fmt.Sprint(j), d)
			total += d
		}
		b.sample("setup_s", total.Seconds())
	}
	return nil
}

// loadSuite times the one-time construction of the built-in benchmark
// suite.
func (b *bench) loadSuite() (time.Duration, error) {
	t := time.Now()
	_, err := workload.Load()
	d := time.Since(t)
	b.set("workload.load_s", d.Seconds())
	return d, err
}

// unit is one piece of a timed pass: a simulation, an experiment, a sweep.
type unit struct {
	key string
	run func() error
}

// timed runs the workload's passes until its budget is spent. pass(i)
// gives pass i's units. After the first pass, the loop stops before any
// unit whose last run would overrun the budget, so the last pass may be
// cut short; endPass(i), when set, runs after each complete pass, and so
// does a peak_rss_mb sample: the pass's peak resident set. With tracing,
// the passes run under the CPU profiler and the runtime's allocation and
// GC counters.
func (b *bench) timed(pass func(i int) []unit, endPass func(i int)) error {
	stop, err := b.startTracing()
	if err != nil {
		return err
	}
	start := time.Now()
	last := map[string]time.Duration{}
	passes := 0
	err = func() error {
		for i := 0; ; i++ {
			if err := resetPeakRSS(); err != nil {
				return err
			}
			for _, u := range pass(i) {
				if i > 0 && time.Since(start)+last[u.key] > b.budget {
					return nil
				}
				t := time.Now()
				if err := u.run(); err != nil {
					return err
				}
				last[u.key] = time.Since(t)
			}
			passes++
			rss, err := peakRSS()
			if err != nil {
				return err
			}
			b.sample("peak_rss_mb", rss)
			if endPass != nil {
				endPass(i)
			}
		}
	}()
	stop(passes)
	return err
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) from its
// current resident set, so that each pass's peak is its own rather than
// the highest of the run: a garbage collection that starts late once can
// leave a peak 20% above the usual one.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// peakRSS reads the process's peak resident set, VmHWM, in MiB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// startTracing begins the traced run's measurements of the timed phase;
// the returned function ends them.
func (b *bench) startTracing() (stop func(passes int), err error) {
	if !b.traced() {
		return func(int) {}, nil
	}
	f, err := os.Create(b.profile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readCPUClasses()
	return func(passes int) {
		pprof.StopCPUProfile()
		f.Close()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		cpu1 := readCPUClasses()
		runs := float64(max(b.simRuns, 1))
		b.set("runtime.allocs_per_run", float64(m1.Mallocs-m0.Mallocs)/runs)
		b.set("runtime.bytes_per_run", float64(m1.TotalAlloc-m0.TotalAlloc)/runs)
		b.set("runtime.gc_count", float64(m1.NumGC-m0.NumGC)/float64(max(passes, 1)))
		if total := cpu1[1] - cpu0[1]; total > 0 {
			b.set("runtime.gc_share", (cpu1[0]-cpu0[0])/total)
		}
	}, nil
}

// readCPUClasses reads the runtime's GC and total CPU-seconds estimates.
func readCPUClasses() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// cpuProfileShares reports each layer's share of the timed phase's CPU
// profile.
func (b *bench) cpuProfileShares() error {
	stacks, err := readProfile(b.profile)
	if err != nil {
		return err
	}
	shares := cpuShares(stacks)
	for _, l := range []string{"harness", "store", "obs", "smcore", "mrq", "noc", "dram",
		"prefetch", "cache", "workload", layerRuntime, layerOther} {
		b.set(l+".cpu_share", shares[l])
	}
	b.set("core.loop_share", shares[layerLoop])
	b.set("core.calendar_share", shares[layerCalendar])
	return nil
}

// setCounts records per-layer counts derived from registry sums.
func (b *bench) setCounts(sums map[string]float64) {
	for k, v := range layerCounts(sums) {
		b.set(k, v)
	}
}
