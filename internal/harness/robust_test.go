package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtprefetch/internal/core"
	"mtprefetch/internal/faults"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/stats"
	"mtprefetch/internal/workload"
)

// poisonTable runs a two-benchmark, one-column speedup sweep where the
// mersenne run's prefetcher factory panics, and returns the rendered
// table plus the runner's failure report.
func poisonTable(c Config) (*stats.Table, error) {
	specs := []*workload.Spec{workload.ByName("mersenne"), workload.ByName("stream")}
	good := hwStrideRPT(true)
	bases := make([]*future, len(specs))
	runs := make([][]*future, len(specs))
	r := newRunner(c)
	for i, s := range specs {
		bases[i] = r.baselineF(s)
		h := good
		if s.Name == "mersenne" {
			h = namedHW{"poisoned", func() prefetch.Prefetcher {
				panic("poisoned prefetcher factory")
			}}
		}
		runs[i] = append(runs[i], r.hardwareF(s, h.name, h.make, false))
	}
	return speedupTable("poison test", specs, []string{"hw"}, speedupMatrix(bases, runs)), r.failures()
}

// TestPoisonedRunIsolated checks the panic-isolation contract: one
// panicking run in a parallel sweep renders as an ERR cell, every
// sibling's cell is byte-identical to a clean sequential sweep, and the
// failure surfaces as a *RunError carrying the panic and its stack.
func TestPoisonedRunIsolated(t *testing.T) {
	par, perr := poisonTable(Config{Waves: 1, Workers: 8})
	seq, serr := poisonTable(Config{Waves: 1, Workers: 1})
	if par.String() != seq.String() {
		t.Fatalf("8-worker table differs from sequential table:\n%s\nvs\n%s", par, seq)
	}
	rendered := par.String()
	if !strings.Contains(rendered, "ERR") {
		t.Fatalf("poisoned run did not render an ERR cell:\n%s", rendered)
	}
	var streamRow string
	for _, line := range strings.Split(rendered, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "stream") {
			streamRow = line
		}
	}
	if streamRow == "" || strings.Contains(streamRow, "ERR") {
		t.Fatalf("sibling stream row damaged by the poisoned run: %q", streamRow)
	}

	for _, err := range []error{perr, serr} {
		var se *SweepError
		if !errors.As(err, &se) {
			t.Fatalf("failures() returned %v (%T), want *SweepError", err, err)
		}
		if se.Failed != 1 {
			t.Fatalf("SweepError reports %d failures, want 1: %v", se.Failed, se)
		}
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("SweepError does not unwrap to a *RunError: %v", err)
		}
		if re.Panic == nil || len(re.Stack) == 0 {
			t.Fatalf("RunError missing panic payload or stack: %+v", re)
		}
		if !strings.Contains(re.Key, "poisoned") {
			t.Fatalf("RunError key %q does not identify the poisoned run", re.Key)
		}
	}
}

// TestCrashDumpBundle injects a livelock under a CrashDir-configured
// runner and checks the dump bundle: error text with the options
// fingerprint, machine config, metrics snapshot, the watchdog's machine
// snapshot, and the obs trace tail.
func TestCrashDumpBundle(t *testing.T) {
	dir := t.TempDir()
	r := newRunner(Config{Waves: 1, CrashDir: dir})
	spec := workload.ByName("stream").Scaled(16)
	_, err := r.run("chaos/livelock", core.Options{
		Workload:       spec,
		MaxCycles:      50_000_000,
		WatchdogWindow: 100_000,
		Inject:         faults.StallIssue(0, 1000),
	})
	if !errors.Is(err, core.ErrLivelock) {
		t.Fatalf("injected livelock returned %v, want ErrLivelock", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v (%T) is not a *RunError", err, err)
	}
	if re.DumpPath == "" {
		t.Fatal("RunError has no crash-dump path despite CrashDir")
	}
	for _, f := range []string{"error.txt", "config.json", "metrics.json", "livelock.json", "trace.json"} {
		if _, err := os.Stat(filepath.Join(re.DumpPath, f)); err != nil {
			t.Errorf("crash dump missing %s: %v", f, err)
		}
	}
	msg, err := os.ReadFile(filepath.Join(re.DumpPath, "error.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(msg), "bench=stream") {
		t.Fatalf("error.txt lacks the options fingerprint:\n%s", msg)
	}
	raw, err := os.ReadFile(filepath.Join(re.DumpPath, "livelock.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap core.DiagSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("livelock.json: %v", err)
	}
	if len(snap.DRAMParked) == 0 || len(snap.DRAMParked) != len(snap.DRAMQueues) {
		t.Fatalf("livelock.json has %d dram_parked depths for %d channels:\n%s",
			len(snap.DRAMParked), len(snap.DRAMQueues), raw)
	}
}

// panicAfterPF panics inside Observe after n trainings, in the middle
// of Run's core-stepping phase.
type panicAfterPF struct{ n int }

func (p *panicAfterPF) Observe(tr prefetch.Train, out []prefetch.Candidate) []prefetch.Candidate {
	p.n--
	if p.n <= 0 {
		panic("prefetcher exploded mid-phase")
	}
	return out
}

// TestPoisonedMidRunPanicIsolated: a panic raised inside Run, not just
// while the simulator is built (TestPoisonedRunIsolated), must surface
// through the harness's per-run panic isolation — a *RunError with the
// payload, a stack, and a crash dump — instead of killing the process.
func TestPoisonedMidRunPanicIsolated(t *testing.T) {
	dir := t.TempDir()
	r := newRunner(Config{Waves: 1, CrashDir: dir})
	_, err := r.run("chaos/mid-run-panic", core.Options{
		Workload: workload.ByName("stream").Scaled(16),
		Hardware: func() prefetch.Prefetcher { return &panicAfterPF{n: 100} },
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("mid-run panic surfaced as %v (%T), want *RunError", err, err)
	}
	if re.Panic == nil || len(re.Stack) == 0 {
		t.Fatalf("RunError missing panic payload or stack: %+v", re)
	}
	if payload := fmt.Sprint(re.Panic); !strings.Contains(payload, "prefetcher exploded mid-phase") {
		t.Errorf("panic payload %q lost the original panic value", payload)
	}
	if re.DumpPath == "" {
		t.Error("RunError has no crash-dump path despite CrashDir")
	}
}

// TestRunErrorTaxonomy checks that errors.Is/As see through the
// harness wrapper to the core sentinel types.
func TestRunErrorTaxonomy(t *testing.T) {
	r := newRunner(Config{Waves: 1})
	_, err := r.run("chaos/invariant", core.Options{
		Workload:   workload.ByName("stream").Scaled(16),
		MaxCycles:  50_000_000,
		Checks:     true,
		CheckEvery: 512,
		Inject:     faults.DropNthCompletion(1),
	})
	if !errors.Is(err, core.ErrInvariant) {
		t.Fatalf("wrapped invariant error not matched by errors.Is: %v", err)
	}
	var ie *core.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("wrapped invariant error not matched by errors.As: %v", err)
	}

	_, err = r.run("chaos/options", core.Options{})
	var oe *core.OptionError
	if !errors.As(err, &oe) || oe.Field != "Workload" {
		t.Fatalf("nil-workload run returned %v, want *OptionError{Field: Workload}", err)
	}
}
