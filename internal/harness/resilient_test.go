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

// TestRunTimeoutDeadline: RunTimeout bounds a simulation in wall clock;
// the failure is a canceled-run error carrying DeadlineExceeded. The
// deadline is 1ns — already expired at the first poll barrier — so the
// test does not race the simulator (event-driven skipping finishes
// even large runs in well under a millisecond).
func TestRunTimeoutDeadline(t *testing.T) {
	r := newRunner(Config{RunTimeout: time.Nanosecond})
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
// them — the sample period (metrics) and the span divisor. A sweep at
// other settings must simulate and write what a storeless run writes,
// not replay the stored records.
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
	r := newRunner(Config{Store: st})
	o := resilientOptions(t, 8)
	o.Inject = faults.New()
	if _, err := r.run("k", o); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Commits != 0 || s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
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
