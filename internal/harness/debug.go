// Live sweep introspection: an optional HTTP debug server the CLI can
// attach to a harness invocation (mtpref -http :6060). It exposes
//
//	/            JSON summary: per-run progress in submission order
//	/metrics     Prometheus text exposition: harness progress gauges plus
//	             the final registry snapshot of recently finished runs
//	/healthz     liveness JSON: run-state counts, uptime, result-store
//	             health, and a status that degrades when any run has
//	             failed; HTTP 503 while the store cannot commit
//	/store       result-store statistics (hits, misses, quarantined,
//	             commit errors) plus the count of runs it served
//	/tolerance   live per-core latency-tolerance snapshots (ready warps,
//	             MRQ headroom, oldest-fill age) of running simulations
//	             with cycle accounting attached
//	/spans       live per-source latency waterfalls (plain text, one
//	             table per run) of simulations with span tracing attached
//	/debug/pprof the standard Go profiling endpoints
//
// The server only reads run states the runner publishes at start/finish
// boundaries (plus each finished run's frozen registry snapshot), so it
// never races with a simulation's hot loop and never perturbs results.
package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"mtprefetch/internal/obs"
	"mtprefetch/internal/store"
)

// DefaultSnapshotKeep bounds how many finished runs keep their full
// registry snapshot for /metrics; older runs keep only their progress
// line. A big sweep has hundreds of runs with hundreds of instruments
// each, and the recent tail is what live debugging looks at. Override
// per server with SetSnapshotKeep.
const DefaultSnapshotKeep = 32

// runState is one simulation's progress entry as served by the debug
// endpoints.
type runState struct {
	Key     string  `json:"key"`
	Status  string  `json:"status"` // "running", "done", "cached", "failed"
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`

	started time.Time
	snap    []obs.SnapshotEntry // non-nil only for recent finished runs
	cpi     *obs.CPIStack       // live cycle accounting while running
	spans   *obs.SpanSet        // live span aggregation while running

	// A finished run keeps only what /tolerance and /spans print for it:
	// RunFinished takes its last tolerance snapshot and renders its
	// waterfall, then drops cpi and spans, so a sweep does not hold
	// every span record it has sampled until it exits.
	tol       *tolRun
	waterfall []byte
}

// tolRun is one run's /tolerance entry.
type tolRun struct {
	Key    string          `json:"key"`
	Status string          `json:"status"`
	Cycle  uint64          `json:"cycle"`
	Cores  []obs.Tolerance `json:"cores"`
}

// DebugServer is the optional live-introspection HTTP server. A nil
// *DebugServer is disabled: the runner's publish hooks do nothing, so the
// harness carries no conditionals.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server

	mu     sync.Mutex
	closed bool     // Close called: publish hooks become inert
	order  []string // submission order, for stable listings
	runs   map[string]*runState
	snaps  []string // keys of finished runs still holding snapshots
	keep   int      // snapshot cap (DefaultSnapshotKeep unless overridden)
	failed int
	done   int
	cached int // runs served from the result store
	st     *store.Store

	started time.Time
}

// NewDebugServer starts the server on addr (":0" picks a free port; see
// Addr). Close shuts it down.
func NewDebugServer(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{ln: ln, runs: make(map[string]*runState),
		keep: DefaultSnapshotKeep, started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/", d.serveRuns)
	mux.HandleFunc("/metrics", d.serveMetrics)
	mux.HandleFunc("/healthz", d.serveHealthz)
	mux.HandleFunc("/store", d.serveStore)
	mux.HandleFunc("/tolerance", d.serveTolerance)
	mux.HandleFunc("/spans", d.serveSpans)
	// net/http/pprof registers on http.DefaultServeMux; with a private mux
	// the handlers must be wired explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d.srv = &http.Server{Handler: mux}
	go d.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return d, nil
}

// Addr reports the listening address (useful with ":0").
func (d *DebugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Close shuts the server down. The publish hooks (RunStarted,
// RunFinished, RunLive, RunCached) become inert, so stragglers from a
// draining sweep cannot mutate a closed server's state mid-report.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	return d.srv.Close()
}

// SetStore attaches the persistent result store whose statistics
// /store and /healthz report; nil detaches.
func (d *DebugServer) SetStore(s *store.Store) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.st = s
	d.mu.Unlock()
}

// SetSnapshotKeep overrides how many finished runs keep their registry
// snapshot (negative values clamp to zero, dropping snapshots entirely).
// Shrinking below the currently retained count evicts the oldest
// snapshots immediately.
func (d *DebugServer) SetSnapshotKeep(n int) {
	if d == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.keep = n
	for len(d.snaps) > d.keep {
		d.runs[d.snaps[0]].snap = nil
		d.snaps = d.snaps[1:]
	}
}

// RunLive attaches a running simulation's observability state so
// /tolerance can serve its latest latency-tolerance snapshot and /spans
// its latency waterfall while the run is in flight. CPIStack publishes
// epoch snapshots and SpanSet aggregates finished spans under their own
// mutexes, so reads never touch the simulation's hot loop. Nil
// arguments (features not enabled) are ignored individually.
func (d *DebugServer) RunLive(key string, cpi *obs.CPIStack, spans *obs.SpanSet) {
	if d == nil || (cpi == nil && spans == nil) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	st := d.runs[key]
	if st == nil {
		st = &runState{Key: key, Status: "running", started: time.Now()}
		d.order = append(d.order, key)
		d.runs[key] = st
	}
	st.cpi = cpi
	st.spans = spans
}

// RunStarted publishes that the runner began executing key.
func (d *DebugServer) RunStarted(key string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if _, ok := d.runs[key]; ok {
		return
	}
	d.order = append(d.order, key)
	d.runs[key] = &runState{Key: key, Status: "running", started: time.Now()}
}

// RunCached publishes that key was served from the result store
// without simulating.
func (d *DebugServer) RunCached(key string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	st := d.runs[key]
	if st == nil {
		st = &runState{Key: key, started: time.Now()}
		d.order = append(d.order, key)
		d.runs[key] = st
	}
	st.Status = "cached"
	st.Seconds = time.Since(st.started).Seconds()
	d.done++
	d.cached++
}

// RunFinished publishes a run's completion, its error (nil on success),
// and its frozen end-of-run registry snapshot (may be nil, e.g. after a
// panic). It drops the run's live CPIStack and SpanSet and keeps only
// what /tolerance and /spans print for it.
func (d *DebugServer) RunFinished(key string, snap []obs.SnapshotEntry, err error) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	st := d.runs[key]
	if st == nil {
		st = &runState{Key: key, started: time.Now()}
		d.order = append(d.order, key)
		d.runs[key] = st
	}
	st.Seconds = time.Since(st.started).Seconds()
	if err != nil {
		st.Status = "failed"
		st.Error = err.Error()
		d.failed++
	} else {
		st.Status = "done"
		d.done++
	}
	if st.cpi != nil {
		cyc, tol := st.cpi.Tolerances()
		st.tol = &tolRun{Key: key, Status: st.Status, Cycle: cyc, Cores: tol}
		st.cpi = nil
	}
	if st.spans != nil {
		var b bytes.Buffer
		writeWaterfall(&b, key, st.Status, st.spans)
		st.waterfall = b.Bytes()
		st.spans = nil
	}
	if snap != nil && d.keep > 0 {
		st.snap = snap
		d.snaps = append(d.snaps, key)
		if len(d.snaps) > d.keep {
			d.runs[d.snaps[0]].snap = nil
			d.snaps = d.snaps[1:]
		}
	}
}

// serveRuns renders the JSON progress summary.
func (d *DebugServer) serveRuns(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" && r.URL.Path != "/runs" {
		http.NotFound(w, r)
		return
	}
	d.mu.Lock()
	out := struct {
		Running int        `json:"running"`
		Done    int        `json:"done"`
		Failed  int        `json:"failed"`
		Runs    []runState `json:"runs"`
	}{Done: d.done, Failed: d.failed}
	for _, k := range d.order {
		st := d.runs[k]
		row := *st
		if row.Status == "running" {
			row.Seconds = time.Since(st.started).Seconds()
			out.Running++
		}
		out.Runs = append(out.Runs, row)
	}
	d.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // client went away
}

// serveMetrics renders the Prometheus text exposition: harness progress
// gauges plus every retained finished run's registry snapshot, labelled
// by run key, core, and component. The exposition is rendered into a
// buffer and written after the lock is released, so a client that
// stops reading cannot block the workers' publish hooks.
func (d *DebugServer) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	var b bytes.Buffer
	d.mu.Lock()
	running := 0
	for _, st := range d.runs {
		if st.Status == "running" {
			running++
		}
	}
	fmt.Fprintf(&b, "# TYPE mtpref_runs gauge\n")
	fmt.Fprintf(&b, "mtpref_runs{status=%q} %d\n", "running", running)
	fmt.Fprintf(&b, "mtpref_runs{status=%q} %d\n", "done", d.done)
	fmt.Fprintf(&b, "mtpref_runs{status=%q} %d\n", "failed", d.failed)
	for _, key := range d.snaps {
		for _, e := range d.runs[key].snap {
			fmt.Fprintf(&b, "sim_%s{run=%q,core=%q,component=%q} %g\n",
				promName(e.Name), key, fmt.Sprint(e.Core), e.Component, e.Value)
		}
	}
	d.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(b.Bytes()) //nolint:errcheck // client went away
}

// serveHealthz renders the liveness summary: overall status ("ok", or
// "degraded" once any run has failed or the result store cannot
// commit), run-state counts, store health, and uptime. A store stuck
// degraded — its most recent commit attempt failed — additionally
// answers HTTP 503, so external probes catch a sweep silently losing
// its persistence (failed runs alone stay 200: the process is healthy
// and the damage is already reported per run).
func (d *DebugServer) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	running := 0
	for _, st := range d.runs {
		if st.Status == "running" {
			running++
		}
	}
	out := struct {
		Status        string       `json:"status"`
		Running       int          `json:"running"`
		Done          int          `json:"done"`
		Failed        int          `json:"failed"`
		UptimeSeconds float64      `json:"uptime_seconds"`
		Store         *store.Stats `json:"store,omitempty"`
	}{
		Status:        "ok",
		Running:       running,
		Done:          d.done,
		Failed:        d.failed,
		UptimeSeconds: time.Since(d.started).Seconds(),
	}
	if d.failed > 0 {
		out.Status = "degraded"
	}
	code := http.StatusOK
	if d.st != nil {
		s := d.st.Stats()
		out.Store = &s
		if s.Degraded {
			out.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
	}
	d.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // client went away
}

// serveStore renders the result store's statistics plus the harness's
// cached run count; attached=false (and zero stats) when no store is
// configured.
func (d *DebugServer) serveStore(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	out := struct {
		Attached bool        `json:"attached"`
		Cached   int         `json:"cached_runs"`
		Stats    store.Stats `json:"stats"`
	}{Attached: d.st != nil, Cached: d.cached}
	if d.st != nil {
		out.Stats = d.st.Stats()
	}
	d.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // client went away
}

// serveTolerance renders the latest latency-tolerance snapshot of every
// run that attached live cycle accounting (RunLive), in submission
// order. Finished runs keep their final snapshot.
func (d *DebugServer) serveTolerance(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	var runs []tolRun
	for _, k := range d.order {
		switch st := d.runs[k]; {
		case st.cpi != nil:
			cyc, tol := st.cpi.Tolerances()
			runs = append(runs, tolRun{Key: k, Status: st.Status, Cycle: cyc, Cores: tol})
		case st.tol != nil:
			runs = append(runs, *st.tol)
		}
	}
	d.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Runs []tolRun `json:"runs"`
	}{runs}) //nolint:errcheck // client went away
}

// serveSpans renders the live latency waterfall of every run that
// attached span tracing (RunLive), in submission order, as plain text —
// the per-source table cmd/mtstat renders from the JSONL, through the
// same obs.WriteWaterfall. Finished runs keep their final waterfall.
func (d *DebugServer) serveSpans(w http.ResponseWriter, _ *http.Request) {
	type spanRun struct {
		key, status string
		spans       *obs.SpanSet // nil once the run finished
		waterfall   []byte       // the finished run's rendering
	}
	d.mu.Lock()
	var runs []spanRun
	for _, k := range d.order {
		if st := d.runs[k]; st.spans != nil || st.waterfall != nil {
			runs = append(runs, spanRun{k, st.Status, st.spans, st.waterfall})
		}
	}
	d.mu.Unlock()
	// WriteTable locks the SpanSet itself, so a mid-run snapshot is
	// consistent without holding the server mutex. The running
	// simulation takes that lock for every finished span, so render into
	// memory and write after: a client that stops reading must not hold
	// it.
	var b bytes.Buffer
	for _, r := range runs {
		if r.spans == nil {
			b.Write(r.waterfall)
			continue
		}
		writeWaterfall(&b, r.key, r.status, r.spans)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(b.Bytes()) //nolint:errcheck // client went away
}

// writeWaterfall renders one run's /spans entry: a header line with its
// span counts, its per-source waterfall, and a blank line.
func writeWaterfall(b *bytes.Buffer, key, status string, ss *obs.SpanSet) {
	fmt.Fprintf(b, "%s (%s): %d/%d spans finished\n", key, status, ss.Finished(), ss.Started())
	ss.WriteTable(b) //nolint:errcheck // a bytes.Buffer write cannot fail
	fmt.Fprintln(b)
}

// promName sanitises a registry metric name ("smcore.demand_latency")
// into the Prometheus name charset [a-zA-Z0-9_:].
func promName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, s)
}
