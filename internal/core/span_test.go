package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

// This file holds the differential and conservation tests for request
// span tracing: with -spans off, tracing must be invisible (Result and
// every other stream byte-identical); the span stream itself must not
// depend on cycle skipping or on which other observers run beside it;
// and every sampled request's stamp set must satisfy the per-terminal
// conservation rules under Options.Checks.

// spanConfigs names the equivConfigs the span differential tests sweep:
// baseline demand traffic plus prefetch-generating configurations, so
// spans cover both Kind values and the MRQ merge/reject paths.
var spanConfigs = map[string]bool{
	"baseline": true, "sw-stride": true, "mthwp-throttle": true, "ghb": true,
}

// runSpansOnly executes o with span tracing as the only observer and
// returns the Result and the span stream.
func runSpansOnly(t *testing.T, o Options, noskip bool) (*Result, string) {
	t.Helper()
	oo := o
	oo.NoCycleSkip = noskip
	oo.Obs = obs.New(obs.Config{Spans: true, SpanEvery: 8})
	s, err := New(oo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Spans().WriteJSONL(&buf, "run"); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

// TestSpansOffInvisible is the zero-cost contract: enabling span
// tracing must change nothing the simulation itself produces. Each
// configuration runs twice with identical observability except
// Config.Spans, and the Result structs and every pre-existing stream
// must be byte-identical.
func TestSpansOffInvisible(t *testing.T) {
	for _, tc := range equivConfigs(t) {
		if !spanConfigs[tc.name] {
			continue
		}
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			offRes, offStreams, _ := runStreams(t, tc.opts, false, false)
			onRes, onStreams, _ := runStreams(t, tc.opts, false, true)
			if !reflect.DeepEqual(offRes, onRes) {
				t.Errorf("results diverge with spans on\noff: %+v\non:  %+v", offRes, onRes)
			}
			for name, ref := range offStreams {
				if onStreams[name] != ref {
					t.Errorf("%s stream diverges with spans on", name)
				}
			}
			if onStreams["spans"] == "" {
				t.Error("spans-on run produced an empty span stream")
			}
		})
	}
}

// TestSpanEquivalenceMatrix is the determinism contract for the span
// stream itself: the sampler keys on (core, warp, per-core sequence)
// and stamps only at cycles the simulation already visits, so the span
// JSONL must be byte-identical whether span tracing runs alone or beside
// every other observer, with cycle skipping on or off. The full-bundle
// skip vs -noskip pair is TestSkipEquivalenceMatrix's.
func TestSpanEquivalenceMatrix(t *testing.T) {
	for _, tc := range equivConfigs(t) {
		if !spanConfigs[tc.name] {
			continue
		}
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			refRes, refStreams, _ := runStreams(t, tc.opts, false, true)
			if refStreams["spans"] == "" {
				t.Fatal("reference run produced an empty span stream")
			}
			for _, noskip := range []bool{false, true} {
				res, spans := runSpansOnly(t, tc.opts, noskip)
				if !reflect.DeepEqual(res, refRes) {
					t.Errorf("spans-only noskip=%v: Result diverges from the full-bundle reference", noskip)
				}
				if spans != refStreams["spans"] {
					t.Errorf("spans-only noskip=%v: span stream diverges from the full-bundle reference", noskip)
				}
			}
		})
	}
}

// spanLine mirrors the per-request "span" JSONL schema for
// cross-footing.
type spanLine struct {
	Record      string `json:"record"`
	Source      string `json:"source"`
	Terminal    string `json:"terminal"`
	MRQ         uint64 `json:"mrq"`
	NoCReq      uint64 `json:"noc_req"`
	DRAMQueue   uint64 `json:"dram_queue"`
	DRAMService uint64 `json:"dram_service"`
	NoCResp     uint64 `json:"noc_resp"`
	Total       uint64 `json:"total"`
	DRAMMerged  bool   `json:"dram_merged"`
}

// TestSpanStreamCrossFoots parses the JSONL a real run emits and
// re-checks the stage telescoping in the exported representation: for
// every filled span the five stages must sum exactly to the end-to-end
// total, and the stream holds one span line per finished span.
func TestSpanStreamCrossFoots(t *testing.T) {
	o := Options{Workload: tiny(t, "stream"), Software: swpref.Stride,
		Obs: obs.New(obs.Config{Spans: true, SpanEvery: 8})}
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Spans().WriteJSONL(&buf, "t"); err != nil {
		t.Fatal(err)
	}
	var spans, fills uint64
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec spanLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Record {
		case "span":
			spans++
			if rec.Terminal != "fill" {
				// Non-fill terminals report issue-to-terminal distance as
				// the total with every stage zero.
				if s := rec.MRQ + rec.NoCReq + rec.DRAMQueue + rec.DRAMService + rec.NoCResp; s != 0 {
					t.Errorf("non-fill span charged %d stage cycles: %s", s, sc.Text())
				}
				continue
			}
			fills++
			sum := rec.MRQ + rec.NoCReq + rec.DRAMQueue + rec.DRAMService + rec.NoCResp
			if sum != rec.Total {
				t.Errorf("stage sum %d != total %d: %s", sum, rec.Total, sc.Text())
			}
			if rec.DRAMMerged && rec.DRAMService != 0 {
				t.Errorf("merged rider charged dram_service %d: %s", rec.DRAMService, sc.Text())
			}
		default:
			t.Errorf("unexpected %q line in the span stream", rec.Record)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if spans == 0 || fills == 0 {
		t.Fatalf("run sampled %d spans (%d fills); sampler not exercising the stream", spans, fills)
	}
	if got := s.Spans().Finished(); got != spans {
		t.Errorf("SpanSet finished %d != %d exported span lines", got, spans)
	}
}

// TestSpanConservationTableII sweeps the full Table II suite with spans
// and Checks armed under an attributed hardware-prefetching
// configuration: the simulator aborts the run itself if any sampled
// request ends un-terminated, stamps a site out of order, or fails the
// stage-sum telescoping identity.
func TestSpanConservationTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep in -short mode")
	}
	suite, err := workload.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range suite {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			o := Options{
				Workload: tiny(t, spec.Name),
				Throttle: true,
				Hardware: func() prefetch.Prefetcher {
					return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
				},
				Checks: true,
				Obs:    obs.New(obs.Config{Spans: true, SpanEvery: 8}),
			}
			s, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if s.Spans().Finished() == 0 {
				t.Fatalf("%s sampled no spans; config not exercising tracing", spec.Name)
			}
			if started, finished := s.Spans().Started(), s.Spans().Finished(); started != finished {
				t.Errorf("span ledger open at drain: %d started, %d finished", started, finished)
			}
		})
	}
}

// TestSpanTableRenders smoke-tests the human-readable waterfall on a
// real run.
func TestSpanTableRenders(t *testing.T) {
	o := Options{Workload: tiny(t, "stream"), Software: swpref.Stride,
		Obs: obs.New(obs.Config{Spans: true, SpanEvery: 8})}
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Spans().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dramsvc%") || !strings.Contains(out, "none") {
		t.Errorf("waterfall missing expected content:\n%s", out)
	}
}
