package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"mtprefetch/internal/core"
	"mtprefetch/internal/faults"
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/simerr"
	"mtprefetch/internal/store"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

// resilientOptions is a small real run the lifecycle tests execute.
func resilientOptions(t *testing.T, scale int) core.Options {
	t.Helper()
	s := workload.ByName("stream")
	if s == nil {
		t.Fatal("workload suite missing stream")
	}
	return core.Options{Workload: s.Scaled(scale)}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRetryTransientConverges: a run that transiently flakes under a
// retry budget must succeed, be counted as retried, and return a
// Result byte-identical to a never-faulted run.
func TestRetryTransientConverges(t *testing.T) {
	clean, err := newRunner(Config{}).run("k", resilientOptions(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r := newRunner(Config{Retries: 2, RetryBackoff: time.Millisecond, Debug: d})
	o := resilientOptions(t, 8)
	flake := &faults.FlakeRun{FailCycle: 1000, Fails: 2}
	o.Inject = flake
	got, err := r.run("k", o)
	if err != nil {
		t.Fatalf("run failed despite a sufficient retry budget: %v", err)
	}
	if g, c := mustJSON(t, got), mustJSON(t, clean); g != c {
		t.Fatalf("retried result diverges from fault-free:\ngot  %s\nwant %s", g, c)
	}
	d.mu.Lock()
	retried, st := d.retried, d.runs["k"]
	d.mu.Unlock()
	if retried != 2 || st == nil || st.Retries != 2 {
		t.Fatalf("debug retry accounting: total=%d run=%+v, want 2 retries", retried, st)
	}
	if st.Status != "done" || st.Error != "" {
		t.Fatalf("recovered run state = %+v, want done with cleared error", st)
	}
}

// TestRetryBudgetExhausted: a flake outliving the budget fails with the
// typed transient error after exactly 1+Retries attempts.
func TestRetryBudgetExhausted(t *testing.T) {
	r := newRunner(Config{Retries: 1, RetryBackoff: time.Millisecond})
	o := resilientOptions(t, 8)
	flake := &faults.FlakeRun{FailCycle: 1000, Fails: 10}
	o.Inject = flake
	_, err := r.run("k", o)
	if err == nil {
		t.Fatal("run succeeded with the flake still armed")
	}
	if !simerr.IsTransient(err) {
		t.Fatalf("exhausted-retries error %v is not typed transient", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Key != "k" {
		t.Fatalf("error %v is not a *RunError for k", err)
	}
}

// TestNonTransientNoRetry: a permanent failure (livelock) must not
// consume the retry budget.
func TestNonTransientNoRetry(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r := newRunner(Config{Retries: 5, RetryBackoff: time.Millisecond, Debug: d})
	o := resilientOptions(t, 8)
	o.MaxCycles = 50_000_000
	o.WatchdogWindow = 100_000
	o.Inject = faults.StallIssue(0, 1000)
	if _, err := r.run("k", o); !errors.Is(err, core.ErrLivelock) {
		t.Fatalf("stalled run returned %v, want ErrLivelock", err)
	}
	d.mu.Lock()
	retried := d.retried
	d.mu.Unlock()
	if retried != 0 {
		t.Fatalf("permanent failure consumed %d retries, want 0", retried)
	}
}

// TestRunTimeoutDeadline: RunTimeout bounds a simulation in wall clock;
// the failure is a canceled-run error carrying DeadlineExceeded, not a
// transient one (retrying a deterministic timeout cannot help). The
// deadline is 1ns — already expired at the first poll barrier — so the
// test does not race the simulator (event-driven skipping finishes
// even large runs in well under a millisecond).
func TestRunTimeoutDeadline(t *testing.T) {
	r := newRunner(Config{RunTimeout: time.Nanosecond, Retries: 3})
	_, err := r.run("k", resilientOptions(t, 8))
	if err == nil {
		t.Fatal("an expired deadline did not abort the run")
	}
	if !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error %v missing ErrCanceled/DeadlineExceeded", err)
	}
	var ce *core.CanceledError
	if !errors.As(err, &ce) || ce.Benchmark != "stream" {
		t.Fatalf("error %v is not a *CanceledError for stream", err)
	}
	if simerr.IsTransient(err) {
		t.Fatal("deadline error is typed transient; it would retry pointlessly")
	}
}

// TestStoreResumeByteIdentical is the persistence contract end to end:
// a warm sweep (fresh process, same store directory) must simulate
// nothing, serve every run from disk, and emit byte-identical results
// and sink streams.
func TestStoreResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"base/stream", "sw/stream/mt-swp/true"}
	sweep := func() (map[string]string, string, *store.Store) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var metrics, cpis bytes.Buffer
		sink, err := obs.NewSink(&metrics, nil, nil, &cpis, nil, obs.Config{SampleEvery: 5000})
		if err != nil {
			t.Fatal(err)
		}
		r := newRunner(Config{Store: st, Obs: sink, Workers: 1})
		out := make(map[string]string)
		for _, k := range keys {
			o := resilientOptions(t, 8)
			if strings.HasPrefix(k, "sw/") {
				o.Software = swpref.MTSWP
				o.Throttle = true
			}
			res, err := r.run(k, o)
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			out[k] = mustJSON(t, res)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return out, metrics.String() + "\x00" + cpis.String(), st
	}

	cold, coldStreams, st1 := sweep()
	if got := st1.Stats(); got.Commits != int64(len(keys)) || got.Hits != 0 {
		t.Fatalf("cold sweep stats = %+v, want %d commits and no hits", got, len(keys))
	}
	warm, warmStreams, st2 := sweep()
	if got := st2.Stats(); got.Hits != int64(len(keys)) || got.Commits != 0 {
		t.Fatalf("warm sweep stats = %+v, want %d hits and no commits", got, len(keys))
	}
	for _, k := range keys {
		if cold[k] != warm[k] {
			t.Fatalf("%s: warm result diverges:\ncold %s\nwarm %s", k, cold[k], warm[k])
		}
	}
	if coldStreams != warmStreams {
		t.Fatalf("warm sink streams diverge from cold:\ncold:\n%s\nwarm:\n%s", coldStreams, warmStreams)
	}
}

// TestStoreReplaysOnlyMatchingSettings: a stored run's stream artifacts
// were shaped by the observer settings of the sweep that committed
// them — the sample period (metrics and CPI epochs) and the span
// divisor. A sweep at other settings must simulate and write what a
// storeless run writes, not replay the stored records.
func TestStoreReplaysOnlyMatchingSettings(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(st *store.Store, cfg obs.Config) string {
		var metrics, cpis, spans bytes.Buffer
		sink, err := obs.NewSink(&metrics, nil, nil, &cpis, &spans, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newRunner(Config{Obs: sink, Store: st, Workers: 1}).run("base/stream", resilientOptions(t, 8)); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return metrics.String() + "\x00" + cpis.String() + "\x00" + spans.String()
	}
	first := obs.Config{SampleEvery: 1000, SpanEvery: 8}
	second := obs.Config{SampleEvery: 5000, SpanEvery: 64}
	sweep(st, first)
	got := sweep(st, second)
	if s := st.Stats(); s.Hits != 0 || s.Commits != 2 {
		t.Fatalf("store stats = %+v, want the second sweep to miss and commit", s)
	}
	if want := sweep(nil, second); got != want {
		t.Fatalf("second sweep replayed the first sweep's streams:\ngot:\n%.400s\nwant:\n%.400s", got, want)
	}
	if sweep(st, second) != got {
		t.Fatal("a third sweep at the second settings diverged from the second")
	}
	if s := st.Stats(); s.Hits != 1 {
		t.Fatalf("store stats = %+v, want the third sweep to hit", s)
	}
}

// TestStoreSkippedForInjectedRuns: chaos-injected runs must bypass the
// store entirely — their results may deliberately diverge and must
// never poison (or be served from) the fault-free cache.
func TestStoreSkippedForInjectedRuns(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(Config{Store: st, Retries: 1, RetryBackoff: time.Millisecond})
	o := resilientOptions(t, 8)
	o.Inject = &faults.FlakeRun{FailCycle: 1000, Fails: 1}
	if _, err := r.run("k", o); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Commits != 0 || s.Hits != 0 || s.Misses != 0 || st.Len() != 0 {
		t.Fatalf("injected run touched the store: %+v", s)
	}
}

// TestDrainAbortsQueuedRuns: once a drain begins, submitted runs fail
// with ErrDrained without simulating, and the lifecycle reports their
// keys sorted.
func TestDrainAbortsQueuedRuns(t *testing.T) {
	lc := NewLifecycle()
	lc.Drain()
	r := newRunner(Config{Lifecycle: lc, Workers: 1})
	for _, k := range []string{"b", "a"} {
		if _, err := r.run(k, resilientOptions(t, 8)); !errors.Is(err, ErrDrained) {
			t.Fatalf("%s under drain returned %v, want ErrDrained", k, err)
		}
	}
	if got := lc.Aborted(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Aborted() = %v, want [a b]", got)
	}
}

// drainAt is a test injector that fires a lifecycle drain from inside
// the simulation at a fixed cycle (perturbing nothing else), so the
// in-flight-cancellation test is deterministic instead of racing the
// simulator's wall clock.
type drainAt struct {
	lc    *Lifecycle
	cycle uint64
}

func (d *drainAt) StallCore(uint64, int) bool { return false }
func (d *drainAt) OnResponse(uint64, *memreq.Request) core.ResponseAction {
	return core.DeliverResponse
}
func (d *drainAt) NextEvent(cyc uint64) uint64 {
	if cyc < d.cycle {
		return d.cycle
	}
	return ^uint64(0)
}
func (d *drainAt) RunFault(cyc uint64) error {
	if cyc >= d.cycle {
		d.lc.Drain()
	}
	return nil
}

// TestDrainCancelsInFlight: a drain mid-simulation cancels the run at
// its next poll barrier with a canceled-run error, and the key lands in
// the aborted set.
func TestDrainCancelsInFlight(t *testing.T) {
	lc := NewLifecycle()
	r := newRunner(Config{Lifecycle: lc})
	o := resilientOptions(t, 64)
	o.Inject = &drainAt{lc: lc, cycle: 1000}
	_, err := r.run("big", o)
	if err == nil {
		t.Fatal("drained in-flight run completed (run shorter than a poll interval?)")
	}
	if !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("drained run returned %v, want ErrCanceled wrapping context.Canceled", err)
	}
	var ce *core.CanceledError
	if !errors.As(err, &ce) || ce.Cycle <= 1000 {
		t.Fatalf("error %v did not cancel at a post-drain poll barrier", err)
	}
	if got := lc.Aborted(); len(got) != 1 || got[0] != "big" {
		t.Fatalf("Aborted() = %v, want [big]", got)
	}
}

// TestLifecycleNilSafe: the zero configuration (no lifecycle) must
// behave exactly as before the lifecycle existed.
func TestLifecycleNilSafe(t *testing.T) {
	var lc *Lifecycle
	if lc.Draining() || lc.Aborted() != nil || lc.Context() == nil {
		t.Fatal("nil lifecycle misbehaves")
	}
	lc.Drain()
	lc.noteAborted("x")
	stop := lc.HandleSignals()
	stop()
	if _, err := newRunner(Config{}).run("k", resilientOptions(t, 8)); err != nil {
		t.Fatal(err)
	}
}

// TestRetryDelayDeterministic: the backoff schedule is a pure function
// of (key, attempt, base) — identical across executions — exponential,
// jittered within [base<<n/2, base<<n), and capped.
func TestRetryDelayDeterministic(t *testing.T) {
	base := 100 * time.Millisecond
	for attempt := 0; attempt < 10; attempt++ {
		a := retryDelay("sw/stream/mt-swp/true", attempt, base)
		b := retryDelay("sw/stream/mt-swp/true", attempt, base)
		if a != b {
			t.Fatalf("attempt %d: nondeterministic delay %v vs %v", attempt, a, b)
		}
		shift := attempt
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		hi := base << shift
		if a < hi/2 || a >= hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, a, hi/2, hi)
		}
	}
	if retryDelay("a", 0, base) == retryDelay("b", 0, base) {
		t.Fatal("different keys share a jitter (suspicious seeding)")
	}
	if retryDelay("k", 0, 0) == 0 {
		t.Fatal("zero base did not fall back to the default backoff")
	}
}

// TestSanitizeKeyCollisionResistant: keys that flatten to the same
// readable name must still map to distinct dump directories.
func TestSanitizeKeyCollisionResistant(t *testing.T) {
	a, b := sanitizeKey("sw/a_b"), sanitizeKey("sw/a/b")
	if a == b {
		t.Fatalf("distinct keys share a dump directory: %q", a)
	}
	for _, s := range []string{a, b} {
		if !strings.HasPrefix(s, "sw_a_b-") {
			t.Errorf("sanitized name %q lost its readable prefix", s)
		}
		if strings.ContainsAny(s, "/\\:") {
			t.Errorf("sanitized name %q is not filesystem-safe", s)
		}
	}
	if sanitizeKey("sw/a_b") != a {
		t.Fatal("sanitizeKey is not deterministic")
	}
}
