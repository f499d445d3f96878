package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mtprefetch/internal/memreq"
)

// EventKind enumerates the structured simulation events the tracer
// records.
type EventKind uint8

const (
	// EvPrefetchIssued: a prefetch entered the MRQ. Arg = block address,
	// Arg2 = generating PC.
	EvPrefetchIssued EventKind = iota
	// EvPrefetchThrottled: a candidate was dropped by the throttle
	// engine. Arg = block address, Arg2 = current degree.
	EvPrefetchThrottled
	// EvEarlyEviction: a prefetched block was evicted before first use.
	// Arg = victim block address.
	EvEarlyEviction
	// EvLatePrefetch: a prefetch completed after a demand merged into it.
	// Arg = block address.
	EvLatePrefetch
	// EvThrottleDegree: a throttle period closed. Arg = new degree,
	// Arg2 = previous degree. Emitted every period so the Chrome trace
	// renders a step-function counter track.
	EvThrottleDegree
	// EvStridePromotion: MT-HWP promoted a (PC, stride) pair into the GS
	// table. Arg = PC, Arg2 = stride.
	EvStridePromotion
	// EvCPIBucket: a CPI-stack epoch closed. Arg = cycles the bucket
	// absorbed during the epoch, Arg2 = the Bucket, Track = core. Emitted
	// per bucket per core so the Chrome trace renders per-core counter
	// tracks of where cycles go.
	EvCPIBucket
)

var eventNames = [...]string{
	EvPrefetchIssued:    "prefetch issued",
	EvPrefetchThrottled: "prefetch throttled",
	EvEarlyEviction:     "early eviction",
	EvLatePrefetch:      "late prefetch",
	EvThrottleDegree:    "throttle degree",
	EvStridePromotion:   "stride promotion",
	EvCPIBucket:         "cpi bucket",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one ring entry; Track is the per-core trace lane.
type Event struct {
	Cycle uint64
	Arg   uint64
	Arg2  int64
	Track int32
	Kind  EventKind
}

// Tracer is a fixed-capacity event ring: when full, the oldest events are
// overwritten, so the export holds the newest window of the run. A nil
// Tracer drops every Emit — instrumentation sites need no branching
// beyond the implicit nil check.
type Tracer struct {
	ring    []Event
	next    int
	dropped uint64
}

// NewTracer builds a tracer with the given ring capacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		return nil
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// Emit records one event, overwriting the oldest when the ring is full;
// nil tracers ignore the call.
func (t *Tracer) Emit(kind EventKind, cycle uint64, track int, arg uint64, arg2 int64) {
	if t == nil {
		return
	}
	e := Event{Cycle: cycle, Arg: arg, Arg2: arg2, Track: int32(track), Kind: kind}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.next] = e
	t.next = (t.next + 1) % len(t.ring)
	t.dropped++
}

// Dropped reports how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the retained events in cycle order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, len(t.ring))
	copy(out, t.ring[t.next:])
	copy(out[len(t.ring)-t.next:], t.ring[:t.next])
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return out
}

// Count reports retained events, for tests.
func (t *Tracer) Count() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// TraceWriter streams one or more runs' events as a single Chrome
// trace-event JSON array (the format chrome://tracing and Perfetto load).
// Each run becomes one "process" (pid) whose name is the run key; each
// core becomes one "thread" (tid) within it, giving per-core tracks.
type TraceWriter struct {
	w      io.Writer
	wrote  bool
	closed bool
}

// NewTraceWriter starts the JSON array on w.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return nil, err
	}
	return &TraceWriter{w: w}, nil
}

func (tw *TraceWriter) emit(obj map[string]any) error {
	b, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	sep := ",\n"
	if !tw.wrote {
		sep = ""
		tw.wrote = true
	}
	if _, err := io.WriteString(tw.w, sep); err != nil {
		return err
	}
	_, err = tw.w.Write(b)
	return err
}

// AddRun appends one tracer's events under pid with the given process
// name, one named thread per core track. A nil tracer adds nothing.
func (tw *TraceWriter) AddRun(pid int, name string, t *Tracer) error {
	if tw == nil || t == nil {
		return nil
	}
	events := t.Events()
	if err := tw.emit(map[string]any{
		"name": "process_name", "ph": "M", "pid": pid,
		"args": map[string]any{"name": name},
	}); err != nil {
		return err
	}
	seen := map[int32]bool{}
	var tracks []int32
	for i := range events {
		if tr := events[i].Track; !seen[tr] {
			seen[tr] = true
			tracks = append(tracks, tr)
		}
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })
	for _, tid := range tracks {
		if err := tw.emit(map[string]any{
			"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
			"args": map[string]any{"name": fmt.Sprintf("core %d", tid)},
		}); err != nil {
			return err
		}
	}
	if t.Dropped() > 0 {
		if err := tw.emit(map[string]any{
			"name": fmt.Sprintf("ring wrapped: %d oldest events dropped", t.Dropped()),
			"ph":   "i", "s": "g", "ts": tsOf(events), "pid": pid, "tid": 0,
		}); err != nil {
			return err
		}
	}
	for i := range events {
		if err := tw.emit(eventJSON(pid, &events[i])); err != nil {
			return err
		}
	}
	return nil
}

// AddSpanFlows appends one flow-event chain per filled span under pid:
// a flow start ("ph":"s") at issue, a step ("ph":"t") at each stage
// boundary the span crossed, and a binding end ("ph":"f") at the fill.
// Loaded in Perfetto alongside the run's event tracks, the arrows
// visualise where each sampled request spent its latency. Records come
// from SpanSet.Records (sorted by id), so the section is byte-stable
// across -j and -noskip; it never touches the Tracer ring.
func (tw *TraceWriter) AddSpanFlows(pid int, ss *SpanSet) error {
	if tw == nil || ss == nil {
		return nil
	}
	steps := []memreq.SpanSite{
		memreq.SpanMRQDequeue, memreq.SpanNoCReqDeliver,
		memreq.SpanDRAMSched, memreq.SpanDRAMDone,
	}
	for _, rec := range ss.Records() {
		if rec.Term != memreq.TermFill {
			continue
		}
		id := fmt.Sprintf("0x%x", rec.ID)
		flow := func(ph string, site memreq.SpanSite) map[string]any {
			return map[string]any{
				"name": "memspan", "cat": "span", "ph": ph, "id": id,
				"ts": rec.Stamp[site], "pid": pid, "tid": rec.Core,
			}
		}
		start := flow("s", memreq.SpanIssue)
		start["args"] = map[string]any{
			"source": rec.Source.String(), "warp": rec.Warp, "pc": rec.PC,
		}
		if err := tw.emit(start); err != nil {
			return err
		}
		for _, site := range steps {
			if !rec.has(site) {
				continue
			}
			if err := tw.emit(flow("t", site)); err != nil {
				return err
			}
		}
		end := flow("f", memreq.SpanFill)
		end["bp"] = "e"
		if err := tw.emit(end); err != nil {
			return err
		}
	}
	return nil
}

// tsOf returns the first event's timestamp (0 when empty), anchoring
// metadata instants at the window start.
func tsOf(events []Event) uint64 {
	if len(events) == 0 {
		return 0
	}
	return events[0].Cycle
}

// eventJSON maps one Event to a trace-event object. Timestamps are in
// "microseconds", which we equate with core cycles — units in the viewer
// are nominal.
func eventJSON(pid int, e *Event) map[string]any {
	obj := map[string]any{
		"name": e.Kind.String(),
		"ts":   e.Cycle,
		"pid":  pid,
		"tid":  e.Track,
	}
	switch e.Kind {
	case EvThrottleDegree:
		// Counter events render as a per-core step-function track.
		obj["name"] = fmt.Sprintf("throttle degree c%d", e.Track)
		obj["ph"] = "C"
		obj["args"] = map[string]any{"degree": e.Arg}
	case EvCPIBucket:
		obj["name"] = fmt.Sprintf("cpi %s c%d", Bucket(e.Arg2), e.Track)
		obj["ph"] = "C"
		obj["args"] = map[string]any{"cycles": e.Arg}
	case EvStridePromotion:
		obj["ph"] = "i"
		obj["s"] = "t"
		obj["args"] = map[string]any{"pc": e.Arg, "stride": e.Arg2}
	case EvPrefetchThrottled:
		obj["ph"] = "i"
		obj["s"] = "t"
		obj["args"] = map[string]any{"addr": hexAddr(e.Arg), "degree": e.Arg2}
	default:
		obj["ph"] = "i"
		obj["s"] = "t"
		obj["args"] = map[string]any{"addr": hexAddr(e.Arg), "pc": e.Arg2}
	}
	return obj
}

func hexAddr(a uint64) string { return fmt.Sprintf("0x%x", a) }

// Close terminates the JSON array. The TraceWriter must not be used
// afterwards.
func (tw *TraceWriter) Close() error {
	if tw == nil || tw.closed {
		return nil
	}
	tw.closed = true
	_, err := io.WriteString(tw.w, "\n]\n")
	return err
}
