package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mtprefetch/internal/core"
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/store"
)

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestDebugServerEndpoints(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	d.RunStarted("base/monte")
	d.RunStarted("hw/monte/stride/true")
	d.RunFinished("base/monte", []obs.SnapshotEntry{
		{Name: "smcore.demand_transactions", Core: 0, Component: "smcore", Value: 42},
	}, nil)
	d.RunFinished("hw/monte/stride/true", nil, errors.New("boom"))

	var runs struct {
		Running int `json:"running"`
		Done    int `json:"done"`
		Failed  int `json:"failed"`
		Runs    []struct {
			Key    string `json:"key"`
			Status string `json:"status"`
			Error  string `json:"error"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(get(t, base+"/")), &runs); err != nil {
		t.Fatal(err)
	}
	if runs.Running != 0 || runs.Done != 1 || runs.Failed != 1 || len(runs.Runs) != 2 {
		t.Errorf("progress = %+v", runs)
	}
	if runs.Runs[0].Key != "base/monte" || runs.Runs[0].Status != "done" {
		t.Errorf("first run = %+v, want base/monte done", runs.Runs[0])
	}
	if runs.Runs[1].Status != "failed" || !strings.Contains(runs.Runs[1].Error, "boom") {
		t.Errorf("second run = %+v, want failed with error", runs.Runs[1])
	}

	metrics := get(t, base+"/metrics")
	for _, want := range []string{
		`mtpref_runs{status="done"} 1`,
		`mtpref_runs{status="failed"} 1`,
		`sim_smcore_demand_transactions{run="base/monte",core="0",component="smcore"} 42`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	if body := get(t, base+"/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline endpoint empty")
	}
}

// stalledWriter is an http.ResponseWriter whose client stops reading
// after pass writes: every later Write blocks until release is closed.
type stalledWriter struct {
	pass    int
	header  http.Header
	entered chan struct{} // closed by the first blocked Write
	release chan struct{}
	body    strings.Builder
}

func newStalledWriter(pass int) *stalledWriter {
	return &stalledWriter{pass: pass, header: http.Header{},
		entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	if w.pass > 0 {
		w.pass--
		return w.body.Write(p)
	}
	select {
	case <-w.entered:
	default:
		close(w.entered)
	}
	<-w.release
	return w.body.Write(p)
}

// TestDebugServerStalledMetricsClient: a /metrics client that stops
// reading must not block the publish hooks the harness workers call
// while they hold their pool slots.
func TestDebugServerStalledMetricsClient(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.RunStarted("a")
	w := newStalledWriter(0)
	served := make(chan struct{})
	go func() {
		d.serveMetrics(w, httptest.NewRequest("GET", "/metrics", nil))
		close(served)
	}()
	<-w.entered
	finished := make(chan struct{})
	go func() {
		d.RunFinished("a", nil, nil)
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Error("RunFinished blocked behind a stalled /metrics client")
	}
	close(w.release)
	<-served
	<-finished
	if !strings.Contains(w.body.String(), `mtpref_runs{status="running"} 1`) {
		t.Errorf("/metrics body:\n%s", w.body.String())
	}
}

// TestDebugServerStalledSpansClient: a /spans client that stops
// reading partway through the response must not stall the simulation
// whose waterfall it was sent.
func TestDebugServerStalledSpansClient(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ss := obs.NewSpanSet(1) // sample everything
	d.RunStarted("live")
	d.RunLive("live", nil, ss)
	w := newStalledWriter(1)
	served := make(chan struct{})
	go func() {
		d.serveSpans(w, httptest.NewRequest("GET", "/spans", nil))
		close(served)
	}()
	select {
	case <-w.entered:
	case <-served:
	}
	finished := make(chan struct{})
	go func() {
		r := &memreq.Request{CoreID: 2, WarpID: 5}
		ss.Start(r, 0, 100)
		ss.Finish(r, 110, memreq.TermDropped)
		d.RunFinished("live", nil, nil)
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Error("span recording blocked behind a stalled /spans client")
	}
	close(w.release)
	<-served
	<-finished
	if !strings.Contains(w.body.String(), "live (running): 0/0 spans finished") {
		t.Errorf("/spans body:\n%s", w.body.String())
	}
}

// TestDebugServerSnapshotEviction: only the newest DefaultSnapshotKeep finished
// runs keep snapshots; older runs keep their progress line but drop the
// per-instrument payload from /metrics.
func TestDebugServerSnapshotEviction(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < DefaultSnapshotKeep+5; i++ {
		key := fmt.Sprintf("run-%03d", i)
		d.RunStarted(key)
		d.RunFinished(key, []obs.SnapshotEntry{{Name: "x", Component: "c", Value: float64(i)}}, nil)
	}
	metrics := get(t, "http://"+d.Addr()+"/metrics")
	if strings.Contains(metrics, `run="run-000"`) {
		t.Error("evicted run still in /metrics")
	}
	if !strings.Contains(metrics, fmt.Sprintf(`run="run-%03d"`, DefaultSnapshotKeep+4)) {
		t.Error("newest run missing from /metrics")
	}
	if !strings.Contains(metrics, fmt.Sprintf(`mtpref_runs{status="done"} %d`, DefaultSnapshotKeep+5)) {
		t.Error("done count wrong after eviction")
	}
}

// TestDebugServerHealthz: the liveness endpoint reports run-state counts
// and degrades once a run fails.
func TestDebugServerHealthz(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	var h struct {
		Status        string  `json:"status"`
		Running       int     `json:"running"`
		Done          int     `json:"done"`
		Failed        int     `json:"failed"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	read := func() {
		t.Helper()
		if err := json.Unmarshal([]byte(get(t, base+"/healthz")), &h); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if h.Status != "ok" || h.Running != 0 || h.UptimeSeconds < 0 {
		t.Errorf("idle healthz = %+v", h)
	}
	d.RunStarted("a")
	d.RunStarted("b")
	d.RunFinished("a", nil, nil)
	read()
	if h.Status != "ok" || h.Running != 1 || h.Done != 1 {
		t.Errorf("healthz after one finish = %+v", h)
	}
	d.RunFinished("b", nil, errors.New("boom"))
	read()
	if h.Status != "degraded" || h.Failed != 1 {
		t.Errorf("healthz after failure = %+v", h)
	}
}

// TestDebugServerTolerance: runs that attach live cycle accounting via
// RunLive serve their latest per-core tolerance snapshot; runs without
// it are skipped.
func TestDebugServerTolerance(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	d.RunStarted("plain")
	d.RunStarted("live")
	cpi := obs.NewCPIStack()
	cpi.Core(0)
	cpi.CloseEpoch(100, []obs.Tolerance{{Core: 0, ReadyWarps: 4, MRQFree: 6, OldestFillAge: 17}}, nil)
	d.RunLive("live", cpi, nil)

	var tol struct {
		Runs []struct {
			Key    string          `json:"key"`
			Status string          `json:"status"`
			Cycle  uint64          `json:"cycle"`
			Cores  []obs.Tolerance `json:"cores"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(get(t, base+"/tolerance")), &tol); err != nil {
		t.Fatal(err)
	}
	if len(tol.Runs) != 1 || tol.Runs[0].Key != "live" {
		t.Fatalf("tolerance runs = %+v, want only the live run", tol.Runs)
	}
	r := tol.Runs[0]
	if r.Cycle != 100 || len(r.Cores) != 1 || r.Cores[0].ReadyWarps != 4 ||
		r.Cores[0].OldestFillAge != 17 {
		t.Errorf("tolerance snapshot = %+v", r)
	}
}

// TestDebugServerSetSnapshotKeep: shrinking the cap evicts the oldest
// retained snapshots immediately, and a zero cap drops them all.
func TestDebugServerSetSnapshotKeep(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("run-%d", i)
		d.RunStarted(key)
		d.RunFinished(key, []obs.SnapshotEntry{{Name: "x", Component: "c", Value: float64(i)}}, nil)
	}
	d.SetSnapshotKeep(2)
	metrics := get(t, "http://"+d.Addr()+"/metrics")
	for i := 0; i < 4; i++ {
		if strings.Contains(metrics, fmt.Sprintf(`run="run-%d"`, i)) {
			t.Errorf("run-%d snapshot survived shrink to 2", i)
		}
	}
	for i := 4; i < 6; i++ {
		if !strings.Contains(metrics, fmt.Sprintf(`run="run-%d"`, i)) {
			t.Errorf("run-%d snapshot evicted despite keep=2", i)
		}
	}
	d.SetSnapshotKeep(-1) // clamps to zero: no snapshots at all
	d.RunStarted("late")
	d.RunFinished("late", []obs.SnapshotEntry{{Name: "x", Component: "c", Value: 9}}, nil)
	metrics = get(t, "http://"+d.Addr()+"/metrics")
	if strings.Contains(metrics, `run="`) {
		t.Errorf("snapshots served with keep=0:\n%s", metrics)
	}
}

// TestDebugServerNilSafe: a nil server (introspection disabled) accepts
// the runner's publish hooks without panicking.
func TestDebugServerNilSafe(t *testing.T) {
	var d *DebugServer
	d.RunStarted("x")
	d.RunLive("x", obs.NewCPIStack(), nil)
	d.RunFinished("x", nil, nil)
	d.SetSnapshotKeep(5)
	if d.Addr() != "" {
		t.Error("nil Addr not empty")
	}
	if err := d.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}

// TestDebugServerClosedHooksInert: after Close every publish hook is a
// no-op — stragglers from a draining sweep must not mutate a closed
// server's counters or run list.
func TestDebugServerClosedHooksInert(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.RunStarted("early")
	d.RunFinished("early", nil, nil)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d.RunStarted("late")
	d.RunLive("late", obs.NewCPIStack(), nil)
	d.RunCached("late")
	d.RunFinished("late", []obs.SnapshotEntry{{Name: "x", Component: "c"}}, nil)
	d.RunFinished("early", nil, errors.New("double-report"))

	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.runs) != 1 || d.runs["late"] != nil {
		t.Fatalf("closed server accepted runs: %d tracked", len(d.runs))
	}
	if d.done != 1 || d.failed != 0 || d.cached != 0 {
		t.Fatalf("closed server mutated counters: done=%d failed=%d cached=%d",
			d.done, d.failed, d.cached)
	}
	if st := d.runs["early"]; st.Status != "done" || st.Error != "" {
		t.Fatalf("closed server rewrote a finished run: %+v", st)
	}
}

// TestDebugServerStoreEndpoint: /store reports attachment, the cached
// run count, and the store's own statistics.
func TestDebugServerStoreEndpoint(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	var out struct {
		Attached bool `json:"attached"`
		Cached   int  `json:"cached_runs"`
		Stats    struct {
			Entries int   `json:"entries"`
			Commits int64 `json:"commits"`
		} `json:"stats"`
	}
	read := func() {
		t.Helper()
		if err := json.Unmarshal([]byte(get(t, base+"/store")), &out); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if out.Attached {
		t.Fatalf("/store reports attached with no store: %+v", out)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.SetStore(st)
	if err := st.Put(&storeTestEntry); err != nil {
		t.Fatal(err)
	}
	d.RunCached("a")
	read()
	if !out.Attached || out.Cached != 1 {
		t.Fatalf("/store = %+v, want attached with 1 cached", out)
	}
	if out.Stats.Entries != 1 || out.Stats.Commits != 1 {
		t.Fatalf("/store stats = %+v, want 1 entry / 1 commit", out.Stats)
	}
}

// TestDebugServerHealthzStoreDegraded: /healthz carries the store
// section and answers 503 while the store's most recent commit attempt
// failed, recovering to 200 once a commit succeeds.
func TestDebugServerHealthzStoreDegraded(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	url := "http://" + d.Addr() + "/healthz"

	ffs := &failingStoreFS{FS: store.OSFS()}
	st, err := store.Open(t.TempDir(), store.WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	d.SetStore(st)

	fetch := func() (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := fetch(); code != http.StatusOK || !strings.Contains(body, `"degraded": false`) {
		t.Fatalf("healthy store healthz = %d:\n%s", code, body)
	}

	ffs.fail = true
	if err := st.Put(&storeTestEntry); err == nil {
		t.Fatal("Put succeeded under an injected fault")
	}
	code, body := fetch()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded-store healthz = %d, want 503", code)
	}
	if !strings.Contains(body, `"status": "degraded"`) || !strings.Contains(body, "injected") {
		t.Fatalf("degraded-store healthz body:\n%s", body)
	}

	ffs.fail = false
	if err := st.Put(&storeTestEntry); err != nil {
		t.Fatal(err)
	}
	if code, _ := fetch(); code != http.StatusOK {
		t.Fatalf("healed-store healthz = %d, want 200", code)
	}
}

// failingStoreFS fails every write while fail is set.
type failingStoreFS struct {
	store.FS
	fail bool
}

func (f *failingStoreFS) WriteFile(path string, data []byte) error {
	if f.fail {
		return fmt.Errorf("injected: no space left on device")
	}
	return f.FS.WriteFile(path, data)
}

// storeTestEntry is a minimal valid entry (the fingerprint is a
// literal: debug tests exercise plumbing, not fingerprinting).
var storeTestEntry = store.Entry{
	Key:         "k",
	Fingerprint: strings.Repeat("ab", 32),
	Result:      &core.Result{Benchmark: "stream", Cycles: 1},
}

// TestDebugServerSpans: runs that attach live span tracing via RunLive
// serve their current waterfall snapshot; runs without it are skipped.
func TestDebugServerSpans(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	d.RunStarted("plain")
	d.RunStarted("live")
	d.RunLive("live", nil, filledSpanSet(t))

	body := get(t, base+"/spans")
	if strings.Contains(body, "plain") {
		t.Errorf("/spans lists a run without span tracing:\n%s", body)
	}
	for _, want := range []string{"live (running): 1/1 spans finished", "dramsvc%", "none"} {
		if !strings.Contains(body, want) {
			t.Errorf("/spans missing %q:\n%s", want, body)
		}
	}
}

// filledSpanSet returns a span set holding one finished fill span.
func filledSpanSet(t *testing.T) *obs.SpanSet {
	t.Helper()
	ss := obs.NewSpanSet(1) // sample everything
	r := &memreq.Request{CoreID: 2, WarpID: 5}
	ss.Start(r, 0, 100)
	if r.Span == nil {
		t.Fatal("1-in-1 sampling attached no span")
	}
	r.StampSpan(memreq.SpanMRQEnqueue, 101)
	r.StampSpan(memreq.SpanMRQDequeue, 104)
	r.StampSpan(memreq.SpanNoCReqInject, 104)
	r.StampSpan(memreq.SpanNoCReqDeliver, 124)
	r.StampSpan(memreq.SpanDRAMArrive, 124)
	r.StampSpan(memreq.SpanDRAMSched, 140)
	r.StampSpan(memreq.SpanDRAMActivate, 142)
	r.StampSpan(memreq.SpanDRAMDone, 190)
	r.StampSpan(memreq.SpanNoCRespInject, 190)
	r.StampSpan(memreq.SpanNoCRespDeliver, 210)
	r.StampSpan(memreq.SpanFill, 210)
	ss.Finish(r, 210, memreq.TermFill)
	return ss
}

// TestDebugServerFinishedRunDropsLiveState: once a run finishes, the
// server holds neither its span set nor its CPI stack, and /spans and
// /tolerance still print what they printed for it while it ran.
func TestDebugServerFinishedRunDropsLiveState(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	d.RunStarted("live")
	cpi := obs.NewCPIStack()
	cpi.Core(0)
	cpi.CloseEpoch(100, []obs.Tolerance{{Core: 0, ReadyWarps: 4, OldestFillAge: 17}}, nil)
	d.RunLive("live", cpi, filledSpanSet(t))
	running := get(t, base+"/spans")
	runningTol := get(t, base+"/tolerance")
	d.RunFinished("live", nil, nil)

	d.mu.Lock()
	st := d.runs["live"]
	if st.spans != nil || st.cpi != nil {
		t.Errorf("finished run still holds its live state: spans %v, cpi %v", st.spans != nil, st.cpi != nil)
	}
	d.mu.Unlock()
	if got, want := get(t, base+"/spans"), strings.Replace(running, "(running)", "(done)", 1); got != want {
		t.Errorf("/spans after finish:\n%s\nwant:\n%s", got, want)
	}
	if got, want := get(t, base+"/tolerance"), strings.Replace(runningTol, `"running"`, `"done"`, 1); got != want {
		t.Errorf("/tolerance after finish:\n%s\nwant:\n%s", got, want)
	}
}
