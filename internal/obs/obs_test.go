package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/stats"
)

func TestRegistryAggregation(t *testing.T) {
	r := NewRegistry()
	c0, c1 := uint64(10), uint64(32)
	r.Counter("cache.hits", Labels{Core: 0, Component: "cache"}, func() uint64 { return c0 })
	r.Counter("cache.hits", Labels{Core: 1, Component: "cache"}, func() uint64 { return c1 })
	if got := r.Sum("cache.hits"); got != 42 {
		t.Errorf("Sum = %d, want 42", got)
	}
	c1 = 40
	if got := r.Sum("cache.hits"); got != 50 {
		t.Errorf("Sum after update = %d, want 50 (closures must read live state)", got)
	}
	if got := r.Sum("cache.misses"); got != 0 {
		t.Errorf("unknown counter Sum = %d, want 0", got)
	}

	g := 3.0
	r.Gauge("throttle.degree", Labels{Core: 0, Component: "throttle"}, func() float64 { return g })
	r.Gauge("throttle.degree", Labels{Core: 1, Component: "throttle"}, func() float64 { return 1 })
	if got := r.GaugeSum("throttle.degree"); got != 4 {
		t.Errorf("GaugeSum = %v, want 4", got)
	}
	if got := r.GaugeMean("throttle.degree"); got != 2 {
		t.Errorf("GaugeMean = %v, want 2", got)
	}

	var h0, h1 stats.Histogram
	h0.Add(10)
	h1.Add(1000)
	r.Histogram("lat", Labels{Core: 0}, func() stats.Histogram { return h0 })
	r.Histogram("lat", Labels{Core: 1}, func() stats.Histogram { return h1 })
	m := r.MergedHistogram("lat")
	if m.Count != 2 || m.Max != 1000 || m.Sum != 1010 {
		t.Errorf("merged histogram = %+v", m)
	}

	names := r.Names()
	if len(names) != 3 {
		t.Errorf("Names = %v, want 3 entries", names)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("x", Labels{}, func() uint64 { return 1 })
	r.Gauge("y", Labels{}, func() float64 { return 1 })
	if r.Sum("x") != 0 || r.GaugeMean("y") != 0 || r.Names() != nil {
		t.Error("nil registry must be inert")
	}
}

func TestSamplerEpochDeltas(t *testing.T) {
	r := NewRegistry()
	var instrs, cycles uint64
	r.Counter("instrs", Labels{}, func() uint64 { return instrs })
	s := NewSampler(r, 100)
	s.Define(
		SeriesDef{Name: "ipc", Kind: SeriesPerCycle, Num: []string{"instrs"}},
		SeriesDef{Name: "ratio", Kind: SeriesRatio, Num: []string{"instrs"}, Den: []string{"instrs"}},
	)
	for cycles = 0; cycles < 250; cycles++ {
		instrs += 2 // perfectly steady 2 IPC
		s.Tick(cycles)
	}
	s.Finish(cycles)
	pts := s.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3 (two epochs + final partial)", len(pts))
	}
	ipc, ratio := s.Series("ipc"), s.Series("ratio")
	for i := range pts {
		if ipc[i] < 1.9 || ipc[i] > 2.1 {
			t.Errorf("point %d ipc = %v, want ~2", i, ipc[i])
		}
		if ratio[i] != 1 {
			t.Errorf("point %d self-ratio = %v, want 1", i, ratio[i])
		}
	}
	if got := s.Series("ipc"); len(got) != 3 {
		t.Errorf("Series length = %d, want 3", len(got))
	}
}

func TestSamplerJSONL(t *testing.T) {
	r := NewRegistry()
	n := uint64(0)
	r.Counter("n", Labels{}, func() uint64 { return n })
	s := NewSampler(r, 10)
	s.Define(SeriesDef{Name: "rate", Kind: SeriesPerCycle, Num: []string{"n"}})
	n = 20
	s.Tick(10)
	n = 30
	s.Tick(20)
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf, map[string]string{"run": "unit"}); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines, err)
		}
		if obj["run"] != "unit" {
			t.Errorf("line %d missing run meta: %v", lines, obj)
		}
		if _, ok := obj["cycle"]; !ok {
			t.Errorf("line %d missing cycle", lines)
		}
		if _, ok := obj["rate"]; !ok {
			t.Errorf("line %d missing series value", lines)
		}
		lines++
	}
	if lines != 2 {
		t.Errorf("JSONL lines = %d, want 2", lines)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := uint64(0); i < 10; i++ {
		tr.Emit(EvPrefetchIssued, i, int(i%2), i*64, 7)
	}
	if tr.Count() != 4 {
		t.Errorf("ring holds %d events, want 4", tr.Count())
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("events out of order: %v", evs)
		}
	}
	if evs[0].Cycle != 6 || evs[3].Cycle != 9 {
		t.Errorf("ring kept cycles %d..%d, want 6..9", evs[0].Cycle, evs[3].Cycle)
	}
	var nilTr *Tracer
	nilTr.Emit(EvEarlyEviction, 0, 0, 0, 0) // must not panic
	if nilTr.Count() != 0 || nilTr.Events() != nil {
		t.Error("nil tracer must be inert")
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	tr := NewTracer(64)
	tr.Emit(EvPrefetchIssued, 100, 0, 0x1000, 3)
	tr.Emit(EvThrottleDegree, 200, 1, 4, 2)
	tr.Emit(EvEarlyEviction, 300, 0, 0x2000, 0)
	tr.Emit(EvStridePromotion, 400, 1, 5, 128)

	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.AddRun(0, "unit-run", tr); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a valid JSON array: %v\n%s", err, buf.String())
	}
	// 1 process_name + 2 thread_name + 4 events.
	if len(events) != 7 {
		t.Fatalf("trace has %d objects, want 7", len(events))
	}
	byPh := map[string]int{}
	for _, e := range events {
		ph, _ := e["ph"].(string)
		byPh[ph]++
		if _, ok := e["pid"]; !ok {
			t.Errorf("event missing pid: %v", e)
		}
	}
	if byPh["M"] != 3 {
		t.Errorf("metadata events = %d, want 3", byPh["M"])
	}
	if byPh["C"] != 1 {
		t.Errorf("counter events = %d, want 1", byPh["C"])
	}
	if byPh["i"] != 3 {
		t.Errorf("instant events = %d, want 3", byPh["i"])
	}
	if !strings.Contains(buf.String(), "unit-run") {
		t.Error("process name missing from trace")
	}
}

func TestSinkDisabled(t *testing.T) {
	var s *Sink
	if s.Observer() != nil {
		t.Error("nil sink must hand out nil observers")
	}
	if _, err := s.Finish("k", nil); err != nil {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	s2, err := NewSink(nil, nil, nil, nil, nil, Config{SampleEvery: 100})
	if err != nil || s2 != nil {
		t.Errorf("NewSink(nil, nil, nil) = %v, %v; want nil sink", s2, err)
	}
}

func TestSinkMultiRun(t *testing.T) {
	var mbuf, tbuf bytes.Buffer
	s, err := NewSink(&mbuf, &tbuf, nil, nil, nil, Config{SampleEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		o := s.Observer()
		if o == nil || o.Sampler == nil || o.Tracer == nil {
			t.Fatal("enabled sink must build full observers")
		}
		n := uint64(0)
		o.Registry.Counter("n", Labels{}, func() uint64 { return n })
		o.Sampler.Define(SeriesDef{Name: "rate", Kind: SeriesPerCycle, Num: []string{"n"}})
		n = 100
		o.Sampler.Tick(50)
		o.Tracer.Emit(EvPrefetchIssued, 10, 0, 0x40, 1)
		if _, err := s.Finish("run"+string(rune('A'+run)), o); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(mbuf.String(), "\n"); got != 2 {
		t.Errorf("metrics lines = %d, want 2", got)
	}
	var events []map[string]any
	if err := json.Unmarshal(tbuf.Bytes(), &events); err != nil {
		t.Fatalf("combined trace invalid: %v", err)
	}
	pids := map[float64]bool{}
	for _, e := range events {
		pids[e["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Errorf("trace pids = %v, want 2 distinct runs", pids)
	}
}

// sinkObserver builds an observer with one counter, a defined series, and
// one trace event, finished under the given key.
func sinkObserver(s *Sink, cycles uint64) *Observer {
	o := s.Observer()
	n := uint64(0)
	o.Registry.Counter("n", Labels{}, func() uint64 { return n })
	o.Sampler.Define(SeriesDef{Name: "rate", Kind: SeriesPerCycle, Num: []string{"n"}})
	n = cycles
	o.Sampler.Tick(cycles)
	o.Tracer.Emit(EvPrefetchIssued, cycles/2, 0, 0x80, 7)
	return o
}

// TestSinkFinishArtifactsMatchFiles pins the render-once contract the
// result store relies on: the blobs Finish hands back are byte for byte
// what it appended to each stream's file (a repeated key appends
// nothing but still gets them), and replaying them through FinishStored
// into a second sink reproduces every file.
func TestSinkFinishArtifactsMatchFiles(t *testing.T) {
	var live, replay [len(jsonlStreams)]bytes.Buffer
	newSink := func(b *[len(jsonlStreams)]bytes.Buffer) *Sink {
		s, err := NewSink(&b[0], nil, &b[1], &b[2], &b[3], Config{SampleEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ls, rs := newSink(&live), newSink(&replay)
	for run := 0; run < 2; run++ {
		key := fmt.Sprintf("run-%d", run)
		o := sinkObserver(ls, uint64(20*(run+1)))
		issueOne(o.PF, memreq.SrcPWS, int32(4+run), memreq.OutUseful)
		fill(o.CPI, 0, map[Bucket]uint64{BucketIssued: 6, BucketScoreboard: uint64(run)})
		r := startSampled(t, o.Spans, 1, 2, 100)
		o.Spans.Finish(r, stampFill(r, 100), memreq.TermFill)

		var before [len(jsonlStreams)]int
		for i := range live {
			before[i] = live[i].Len()
		}
		arts, err := ls.Finish(key, o)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range ls.names {
			wrote := live[i].Bytes()[before[i]:]
			if len(wrote) == 0 {
				t.Errorf("%s: %s wrote nothing", key, name)
			}
			if !bytes.Equal(arts[name], wrote) {
				t.Errorf("%s: %s artifact %q differs from the written %q", key, name, arts[name], wrote)
			}
		}
		again, err := ls.Finish(key, o)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range ls.names {
			if live[i].Len() != before[i]+len(arts[name]) {
				t.Errorf("%s: repeated Finish appended to %s", key, name)
			}
			if !bytes.Equal(again[name], arts[name]) {
				t.Errorf("%s: repeated Finish returned different %s bytes", key, name)
			}
		}
		if err := rs.FinishStored(key, arts); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range jsonlStreams {
		if !bytes.Equal(replay[i].Bytes(), live[i].Bytes()) {
			t.Errorf("%s: replayed file differs from the live one:\n%s\nvs\n%s", st.name, replay[i].Bytes(), live[i].Bytes())
		}
	}
}

func TestSinkConcurrentFinish(t *testing.T) {
	var mbuf, tbuf bytes.Buffer
	s, err := NewSink(&mbuf, &tbuf, nil, nil, nil, Config{SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 16
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := sinkObserver(s, uint64(10*(i+1)))
			_, errs[i] = s.Finish(fmt.Sprintf("run-%02d", i), o)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Every metrics line must be intact JSON with its own run key:
	// concurrent finishes may not interleave inside a run's records.
	keys := map[string]int{}
	sc := bufio.NewScanner(&mbuf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("metrics line corrupted: %v: %q", err, sc.Text())
		}
		keys[line["run"].(string)]++
	}
	if len(keys) != runs {
		t.Errorf("metrics cover %d runs, want %d: %v", len(keys), runs, keys)
	}
	// The combined trace must stay one valid JSON array with one distinct
	// pid per run.
	var events []map[string]any
	if err := json.Unmarshal(tbuf.Bytes(), &events); err != nil {
		t.Fatalf("combined trace invalid: %v", err)
	}
	pids := map[float64]bool{}
	for _, e := range events {
		pids[e["pid"].(float64)] = true
	}
	if len(pids) != runs {
		t.Errorf("trace pids = %d, want %d", len(pids), runs)
	}
}

func TestSinkFinishIdempotent(t *testing.T) {
	var mbuf, tbuf bytes.Buffer
	s, err := NewSink(&mbuf, &tbuf, nil, nil, nil, Config{SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Finish("same-key", sinkObserver(s, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(mbuf.String(), "\n"); got != 1 {
		t.Errorf("metrics lines = %d, want 1 (a single epoch from a single recorded run)", got)
	}
	var events []map[string]any
	if err := json.Unmarshal(tbuf.Bytes(), &events); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	pids := map[float64]bool{}
	for _, e := range events {
		pids[e["pid"].(float64)] = true
	}
	if len(pids) != 1 {
		t.Errorf("trace pids = %d, want 1 (duplicate finishes must not re-record)", len(pids))
	}
}

func TestSinkFinishAfterCloseIsNoop(t *testing.T) {
	var mbuf, tbuf bytes.Buffer
	s, err := NewSink(&mbuf, &tbuf, nil, nil, nil, Config{SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := tbuf.String()
	if _, err := s.Finish("late", sinkObserver(s, 20)); err != nil {
		t.Fatal(err)
	}
	if tbuf.String() != before || mbuf.Len() != 0 {
		t.Error("Finish after Close wrote to the shared files")
	}
}

// TestSamplerWriteJSONLMatchesMapMarshal pins the sampler's line format:
// one json.Marshal of a map holding the meta keys, then "cycle", then
// every series value, so on a key collision a series beats "cycle" and
// "cycle" beats meta. Random names, scales and meta values (including
// HTML-sensitive and invalid UTF-8 strings) exercise the escaping and
// float formatting.
func TestSamplerWriteJSONLMatchesMapMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		r := NewRegistry()
		var n uint64
		r.CounterU64("n", Labels{}, &n)
		s := NewSampler(r, 10)
		names := []string{"rate", "ipc<odd>", "run", "cycle", "z w"}
		defs := make([]SeriesDef, 1+rng.Intn(4))
		for i := range defs {
			defs[i] = SeriesDef{Name: names[rng.Intn(len(names))], Kind: SeriesPerCycle, Num: []string{"n"}, Scale: math.Ldexp(rng.Float64(), rng.Intn(40)-20)}
		}
		s.Define(defs...)
		meta := map[string]string{}
		for _, k := range []string{"run", "bench", "cycle", "odd\"key"} {
			if rng.Intn(2) == 0 {
				meta[k] = []string{"gstable", "a<b>&c", "x\xffy", ""}[rng.Intn(4)]
			}
		}
		epochs := 1 + rng.Intn(3)
		for e := 1; e <= epochs; e++ {
			n += uint64(rng.Intn(1000))
			s.Tick(uint64(10 * e))
		}

		var got bytes.Buffer
		if err := s.WriteJSONL(&got, meta); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		for _, p := range s.Points() {
			line := make(map[string]any, len(defs)+len(meta)+1)
			for k, v := range meta {
				line[k] = v
			}
			line["cycle"] = p.Cycle
			for i, d := range defs {
				line[d.Name] = p.Values[i]
			}
			b, err := json.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			want.Write(append(b, '\n'))
		}
		if got.String() != want.String() {
			t.Fatalf("trial %d: writer diverged from json.Marshal\n got: %s\nwant: %s", trial, got.String(), want.String())
		}
	}
}
