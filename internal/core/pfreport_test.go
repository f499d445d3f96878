package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

// This file holds the differential and conservation tests for prefetch
// attribution: with -pfreport off, attribution must be invisible (Result
// and epoch JSONL byte-identical); with it on, per-(source, PC) outcome
// counts must sum exactly to the prefetches the simulator issued.

// attributedConfigs is the matrix both test groups sweep: software and
// hardware prefetch-generating mechanisms, with and without the throttle
// that drops candidates before issue.
func attributedConfigs(t *testing.T) []struct {
	name string
	opts Options
} {
	t.Helper()
	return []struct {
		name string
		opts Options
	}{
		{"sw-stride", Options{Workload: tiny(t, "stream"), Software: swpref.Stride}},
		{"mtswp-throttle", Options{Workload: tiny(t, "mersenne"), Software: swpref.MTSWP, Throttle: true}},
		{"mthwp", Options{Workload: tiny(t, "conv"), Hardware: func() prefetch.Prefetcher {
			return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
		}}},
		{"stride-rpt-throttle", Options{Workload: tiny(t, "monte"), Throttle: true,
			Hardware: func() prefetch.Prefetcher {
				return prefetch.NewStrideRPT(prefetch.StrideRPTOptions{WarpAware: true})
			}}},
		{"ghb", Options{Workload: tiny(t, "monte"),
			Hardware: func() prefetch.Prefetcher {
				return prefetch.NewGHB(prefetch.GHBOptions{WarpAware: true})
			}}},
		{"stream", Options{Workload: tiny(t, "cfd"), Hardware: func() prefetch.Prefetcher {
			return prefetch.NewStream(prefetch.StreamOptions{WarpAware: true})
		}}},
	}
}

// TestPFReportOffIsInvisible is the zero-cost contract: enabling nothing
// must change nothing. Each configuration runs twice with identical
// observability except Config.PFReport, and the Result structs and epoch
// JSONL streams must be byte-identical.
func TestPFReportOffIsInvisible(t *testing.T) {
	for _, tc := range attributedConfigs(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(pfOn bool) (*Result, []byte) {
				o := tc.opts
				o.Obs = obs.New(obs.Config{SampleEvery: 512, PFReport: pfOn})
				s, err := New(o)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := o.Obs.Sampler.WriteJSONL(&buf, map[string]string{"bench": res.Benchmark}); err != nil {
					t.Fatal(err)
				}
				return res, buf.Bytes()
			}
			off, offJSON := run(false)
			on, onJSON := run(true)
			if !reflect.DeepEqual(off, on) {
				t.Errorf("results diverge with attribution on\noff: %+v\non:  %+v", off, on)
			}
			if !bytes.Equal(offJSON, onJSON) {
				t.Errorf("epoch samples diverge with attribution on\noff: %s\non:  %s", offJSON, onJSON)
			}
		})
	}
}

// pfTotals parses a report's JSONL and cross-foots the bucket lines.
type pfTotals struct {
	generated, dropped, issued, terminals uint64
	perSource                             map[string]uint64 // issued per source
	summaryIssued                         uint64
}

func parsePF(t *testing.T, p *obs.PFReport) pfTotals {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf, "t"); err != nil {
		t.Fatal(err)
	}
	tot := pfTotals{perSource: make(map[string]uint64)}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec struct {
			Record           string `json:"record"`
			Source           string `json:"source"`
			Generated        uint64 `json:"generated"`
			DroppedThrottle  uint64 `json:"dropped_throttle"`
			DroppedFilter    uint64 `json:"dropped_filter"`
			DroppedInCache   uint64 `json:"dropped_in_cache"`
			DroppedQueueFull uint64 `json:"dropped_queue_full"`
			MergedMRQ        uint64 `json:"merged_mrq"`
			Issued           uint64 `json:"issued"`
			Late             uint64 `json:"late"`
			Redundant        uint64 `json:"redundant"`
			Useful           uint64 `json:"useful"`
			EarlyEvicted     uint64 `json:"early_evicted"`
			UnusedAtDrain    uint64 `json:"unused_at_drain"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Record {
		case "pfreport":
			if rec.Source == memreq.SrcNone.String() {
				t.Errorf("attributed bucket with source none: %s", sc.Text())
			}
			tot.generated += rec.Generated
			tot.dropped += rec.DroppedThrottle + rec.DroppedFilter + rec.DroppedInCache +
				rec.DroppedQueueFull + rec.MergedMRQ
			tot.issued += rec.Issued
			tot.terminals += rec.Late + rec.Redundant + rec.Useful + rec.EarlyEvicted + rec.UnusedAtDrain
			tot.perSource[rec.Source] += rec.Issued
		case "pfsummary":
			tot.summaryIssued = rec.Issued
		}
	}
	return tot
}

// TestPFReportConservationAcrossConfigs runs every attributed
// configuration with Checks on (so the simulator's own conservation
// sweep is armed) and additionally cross-foots the JSONL against the
// Result's prefetch counters: generated and issued must match the
// simulator's counts exactly, and the outcome terminals must partition
// the issued count.
func TestPFReportConservationAcrossConfigs(t *testing.T) {
	for _, tc := range attributedConfigs(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			o := tc.opts
			o.Obs = obs.New(obs.Config{PFReport: true})
			o.Checks = true
			s, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.PrefetchesGenerated == 0 {
				t.Fatalf("%s generated no prefetches; config not exercising attribution", tc.name)
			}
			tot := parsePF(t, s.PFReport())
			if tot.generated != res.PrefetchesGenerated {
				t.Errorf("attributed generated %d != simulator %d", tot.generated, res.PrefetchesGenerated)
			}
			if tot.issued != res.PrefetchesIssued {
				t.Errorf("attributed issued %d != simulator %d", tot.issued, res.PrefetchesIssued)
			}
			if tot.dropped+tot.issued != tot.generated {
				t.Errorf("generation ledger open: %d dropped + %d issued != %d generated",
					tot.dropped, tot.issued, tot.generated)
			}
			if tot.terminals != tot.issued {
				t.Errorf("outcome ledger open: %d terminals != %d issued", tot.terminals, tot.issued)
			}
			if tot.summaryIssued != tot.issued {
				t.Errorf("summary issued %d != bucket sum %d", tot.summaryIssued, tot.issued)
			}
		})
	}
}

// TestPFReportSourceAttribution pins the source tags end to end: an
// MT-HWP run attributes to its own tables only, a software-stride run to
// sw-stride, and the MT-SWP transform (which emits inter-warp prefetches
// for uncoalesced accesses) to sw-ip where the workload has them.
func TestPFReportSourceAttribution(t *testing.T) {
	run := func(t *testing.T, o Options) pfTotals {
		o.Obs = obs.New(obs.Config{PFReport: true})
		o.Checks = true
		s, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return parsePF(t, s.PFReport())
	}
	t.Run("mthwp-tables", func(t *testing.T) {
		tot := run(t, Options{Workload: tiny(t, "conv"), Hardware: func() prefetch.Prefetcher {
			return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
		}})
		hwp := tot.perSource["pws"] + tot.perSource["gs"] + tot.perSource["hw-ip"]
		if hwp == 0 || hwp != tot.issued {
			t.Errorf("MT-HWP run issued %d but tables account for %d (%v)",
				tot.issued, hwp, tot.perSource)
		}
	})
	t.Run("sw-stride", func(t *testing.T) {
		tot := run(t, Options{Workload: tiny(t, "stream"), Software: swpref.Stride})
		if tot.perSource["sw-stride"] != tot.issued || tot.issued == 0 {
			t.Errorf("software stride run issued %d, sw-stride %d (%v)",
				tot.issued, tot.perSource["sw-stride"], tot.perSource)
		}
	})
	t.Run("stride-rpt", func(t *testing.T) {
		tot := run(t, Options{Workload: tiny(t, "monte"), Hardware: func() prefetch.Prefetcher {
			return prefetch.NewStrideRPT(prefetch.StrideRPTOptions{WarpAware: true})
		}})
		if tot.perSource["stride-rpt"] != tot.issued || tot.issued == 0 {
			t.Errorf("stride-RPT run issued %d, stride-rpt %d (%v)",
				tot.issued, tot.perSource["stride-rpt"], tot.perSource)
		}
	})
}

// TestPFReportConservationTableII sweeps the full Table II suite under
// one attributed configuration each for hardware and software
// prefetching, with Checks armed: the simulator aborts the run itself if
// any bucket's ledger fails to balance.
func TestPFReportConservationTableII(t *testing.T) {
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
				Obs:    obs.New(obs.Config{PFReport: true}),
			}
			s, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			tot := parsePF(t, s.PFReport())
			if tot.generated != res.PrefetchesGenerated || tot.issued != res.PrefetchesIssued {
				t.Errorf("ledger totals (gen %d, issued %d) != simulator (%d, %d)",
					tot.generated, tot.issued, res.PrefetchesGenerated, res.PrefetchesIssued)
			}
			if tot.terminals != tot.issued {
				t.Errorf("outcome ledger open: %d terminals != %d issued", tot.terminals, tot.issued)
			}
		})
	}
}

// TestPFReportTableRenders smoke-tests the human-readable export on a
// real run.
func TestPFReportTableRenders(t *testing.T) {
	o := Options{Workload: tiny(t, "stream"), Software: swpref.Stride,
		Obs: obs.New(obs.Config{PFReport: true})}
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.PFReport().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sw-stride") || !strings.Contains(out, "accuracy") {
		t.Errorf("table missing expected content:\n%s", out)
	}
}
