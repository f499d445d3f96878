package obs

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// jsonlStreams lists the per-run JSONL streams in output order: each
// one's name, the setting that shapes its bytes (nil when none does),
// and how it renders a finished run's observer into w (ok is false when
// the observer kept no record of the stream).
var jsonlStreams = [...]struct {
	name    string
	setting func(c *Config) uint64
	render  func(o *Observer, w io.Writer, runKey string) (ok bool, err error)
}{
	{"metrics", func(c *Config) uint64 { return c.SampleEvery }, func(o *Observer, w io.Writer, runKey string) (bool, error) {
		return o.Sampler != nil, o.Sampler.WriteJSONL(w, map[string]string{"run": runKey})
	}},
	{"pfreport", nil, func(o *Observer, w io.Writer, runKey string) (bool, error) {
		return o.PF != nil, o.PF.WriteJSONL(w, runKey)
	}},
	{"cpistack", func(c *Config) uint64 { return c.CPIEpoch }, func(o *Observer, w io.Writer, runKey string) (bool, error) {
		return o.CPI != nil, o.CPI.WriteJSONL(w, runKey)
	}},
	{"spans", func(c *Config) uint64 { return c.SpanEvery }, func(o *Observer, w io.Writer, runKey string) (bool, error) {
		return o.Spans != nil, o.Spans.WriteJSONL(w, runKey)
	}},
}

// Sink fans a sequence of simulation runs into shared output files: one
// file per JSONL stream (metrics, pfreport, cpistack, spans; one record
// set per run) and a single Chrome trace file in which each run is one
// process. The experiment harness holds one Sink per invocation and
// attaches an Observer to every simulation it launches.
//
// Sink is safe for concurrent use: the parallel harness finishes runs
// from many goroutines. Each run's streams are rendered into buffers and
// each buffer is flushed as one write, and its trace events are appended
// under the sink lock, so concurrent runs never interleave inside each
// other's records. Finish is idempotent per run key — a retried or
// duplicated completion records nothing the second time.
//
// A nil *Sink is fully disabled: Observer returns nil (which in turn
// disables sampling and tracing inside the simulator) and Finish/Close do
// nothing, so the harness carries no conditionals.
type Sink struct {
	cfg Config

	mu     sync.Mutex
	jsonl  [len(jsonlStreams)]io.Writer // indexed like jsonlStreams; nil disables a stream
	names  [len(jsonlStreams)]string    // each stream's artifact name in a stored run
	trace  *TraceWriter
	runs   int
	done   map[string]bool
	closed bool
}

// NewSink builds a sink. metrics, trace, pfreport, cpistack, and spans
// may each be nil to disable that output; when all are nil the sink
// itself is nil (disabled).
func NewSink(metrics, trace, pfreport, cpistack, spans io.Writer, cfg Config) (*Sink, error) {
	if metrics == nil && trace == nil && pfreport == nil && cpistack == nil && spans == nil {
		return nil, nil
	}
	s := &Sink{cfg: cfg, jsonl: [...]io.Writer{metrics, pfreport, cpistack, spans}, done: make(map[string]bool)}
	// Resolve the defaults before the sampler may be dropped: the sample
	// period sets the CPI epochs whether or not metrics are written.
	if s.cfg.CPIEpoch == 0 {
		s.cfg.CPIEpoch = s.cfg.SampleEvery
	}
	if s.cfg.CPIEpoch == 0 {
		s.cfg.CPIEpoch = DefaultCPIEpoch
	}
	if s.cfg.SpanEvery == 0 {
		s.cfg.SpanEvery = DefaultSpanEvery
	}
	// A stored run names each blob after the setting that shaped it, so
	// a store hit replays only records made at this sink's settings.
	for i, st := range jsonlStreams {
		s.names[i] = st.name
		if st.setting != nil {
			s.names[i] += "@" + strconv.FormatUint(st.setting(&s.cfg), 10)
		}
	}
	if metrics == nil {
		s.cfg.SampleEvery = 0
	}
	if trace != nil {
		if s.cfg.TraceCapacity == 0 {
			s.cfg.TraceCapacity = DefaultTraceCapacity
		}
		tw, err := NewTraceWriter(trace)
		if err != nil {
			return nil, err
		}
		s.trace = tw
	} else {
		s.cfg.TraceCapacity = 0
	}
	s.cfg.PFReport = pfreport != nil
	s.cfg.CPIStack = cpistack != nil
	s.cfg.Spans = spans != nil
	return s, nil
}

// Observer creates a fresh Observer for one run, or nil when the sink is
// disabled.
func (s *Sink) Observer() *Observer {
	if s == nil {
		return nil
	}
	return New(s.cfg)
}

// Streams names the artifacts of the JSONL streams this sink records —
// the blobs a stored run must carry before it can substitute for a live
// one. Tracing is excluded: it has no per-run replayable form (see
// NeedsLive). A nil sink records nothing.
func (s *Sink) Streams() []string {
	if s == nil {
		return nil
	}
	var out []string
	for i, w := range s.jsonl {
		if w != nil {
			out = append(out, s.names[i])
		}
	}
	return out
}

// NeedsLive reports whether this sink requires live simulations: the
// Chrome-trace stream serialises each run's event ring directly into a
// shared JSON array, which cannot be reproduced from stored artifacts,
// so a tracing sweep must bypass result-store reads to keep its trace
// complete.
func (s *Sink) NeedsLive() bool { return s != nil && s.trace != nil }

// render renders one finished run's enabled JSONL streams into named
// artifact blobs. A stream the observer kept no record of has no blob.
func (s *Sink) render(runKey string, o *Observer) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for i, st := range jsonlStreams {
		if s.jsonl[i] == nil {
			continue
		}
		var buf bytes.Buffer
		ok, err := st.render(o, &buf, runKey)
		if err != nil {
			return nil, fmt.Errorf("obs: %s for %s: %w", st.name, runKey, err)
		}
		if ok {
			out[s.names[i]] = buf.Bytes()
		}
	}
	return out, nil
}

// write appends a run's artifact blobs to the files of the streams this
// sink records. The caller holds s.mu.
func (s *Sink) write(runKey string, artifacts map[string][]byte) error {
	for i, w := range s.jsonl {
		if b := artifacts[s.names[i]]; w != nil && len(b) > 0 {
			if _, err := w.Write(b); err != nil {
				return fmt.Errorf("obs: %s for %s: %w", jsonlStreams[i].name, runKey, err)
			}
		}
	}
	return nil
}

// FinishStored records a run from previously rendered artifacts — the
// store-hit path — under the same per-key idempotency and post-Close
// inertness as Finish. Only streams this sink has enabled are written;
// the caller guarantees those are present (store.Get's need parameter).
func (s *Sink) FinishStored(runKey string, artifacts map[string][]byte) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.done[runKey] {
		return nil
	}
	s.done[runKey] = true
	if err := s.write(runKey, artifacts); err != nil {
		return err
	}
	s.runs++
	return nil
}

// Finish renders one completed run's observer and records it into the
// shared files, tagging its JSONL records and trace process with the
// run key. A key that was already recorded (or a Finish after Close)
// records nothing, so memoised runs are recorded exactly once, under the
// key of their first completed execution.
//
// Either way Finish returns the run's rendered JSONL streams as named
// artifact blobs — byte for byte what it appends, or would append, to
// each stream's file — for committing alongside the Result in a
// persistent store, from which FinishStored replays them.
func (s *Sink) Finish(runKey string, o *Observer) (map[string][]byte, error) {
	if s == nil || o == nil {
		return nil, nil
	}
	artifacts, err := s.render(runKey, o)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.done[runKey] {
		return artifacts, nil
	}
	// Mark before writing: a failed write aborts the harness, and a
	// retry must not append a second partial record to the shared files.
	s.done[runKey] = true
	if err := s.write(runKey, artifacts); err != nil {
		return nil, err
	}
	if s.trace != nil && o.Tracer != nil {
		if err := s.trace.AddRun(s.runs, runKey, o.Tracer); err != nil {
			return nil, fmt.Errorf("obs: trace for %s: %w", runKey, err)
		}
	}
	if s.trace != nil && o.Spans != nil {
		// Flow events come from the span records, never from the Tracer
		// ring: enabling spans changes nothing in the ring, it only
		// appends this extra flow section per run.
		if err := s.trace.AddSpanFlows(s.runs, o.Spans); err != nil {
			return nil, fmt.Errorf("obs: span flows for %s: %w", runKey, err)
		}
	}
	s.runs++
	return artifacts, nil
}

// Close finalizes the trace file's JSON array. Later Finish calls are
// no-ops, so stragglers from an aborted parallel experiment cannot write
// past the closing bracket.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.trace.Close()
}
