package harness

import (
	"fmt"

	"mtprefetch/internal/config"
	"mtprefetch/internal/core"
	"mtprefetch/internal/model"
	"mtprefetch/internal/stats"
	"mtprefetch/internal/swpref"
)

func init() {
	register("thresholds", "Throttle threshold sensitivity (the study footnote 5 omits)",
		"Section V fn.5", runThresholds)
	register("mtaml", "MTAML model classification vs measured outcome",
		"Section IV / Figure 7", runMTAML)
}

// runThresholds reconstructs the experiment the paper says it ran but did
// not show: how sensitive the adaptive throttle is to its three
// thresholds. Each candidate setting is evaluated as the geomean MT-SWP+T
// speedup over the sensitivity subset; the paper's published values
// (0.02 / 0.01 / 15%) are marked.
func runThresholds(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	type setting struct {
		high, low, merge float64
	}
	settings := []setting{
		{0.08, 0.04, 0.15},
		{0.04, 0.02, 0.15},
		{0.02, 0.01, 0.15}, // the paper's choice
		{0.01, 0.005, 0.15},
		{0.02, 0.01, 0.05},
		{0.02, 0.01, 0.30},
		{0.005, 0.002, 0.05},
	}
	t := stats.NewTable("Throttle threshold sensitivity (geomean MT-SWP+T speedup, sensitivity subset)",
		"earlyHigh", "earlyLow", "mergeHigh", "geomean", "note")
	specs := r.sweepSuite()
	bases := make([]*future, len(specs))
	for i, spec := range specs {
		bases[i] = r.baselineF(spec)
	}
	runs := make([][]*future, len(settings)) // [setting][spec]
	for si, s := range settings {
		for _, spec := range specs {
			cfg := r.machine()
			cfg.EarlyHighThresh = s.high
			cfg.EarlyLowThresh = s.low
			cfg.MergeHighThresh = s.merge
			key := fmt.Sprintf("thr/%s/%v", spec.Name, s)
			runs[si] = append(runs[si], r.submit(key, core.Options{
				Config: cfg, Workload: r.spec(spec),
				Software: swpref.MTSWP, Throttle: true,
			}))
		}
	}
	for si, s := range settings {
		var sp []float64
		for i := range specs {
			base, res := bases[i].res(), runs[si][i].res()
			if base == nil || res == nil {
				continue
			}
			sp = append(sp, res.Speedup(base))
		}
		geo := errCell()
		if len(sp) > 0 {
			geo = stats.Geomean(sp)
		}
		note := ""
		if s.high == 0.02 && s.low == 0.01 && s.merge == 0.15 {
			note = "<- paper (Table I)"
		}
		t.AddRow(stats.FormatFloat(s.high), stats.FormatFloat(s.low),
			stats.FormatFloat(s.merge), fmtCell(geo), note)
	}
	return []*stats.Table{t}, r.failures()
}

// runMTAML validates the Section IV analytical model against simulation:
// for every memory-intensive benchmark, classify prefetch utility from
// Eqs. 1-4 and the measured latencies, then compare with the measured
// MT-SWP speedup.
func runMTAML(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	t := stats.NewTable("MTAML classification vs measured MT-SWP outcome",
		"bench", "warps", "MTAML", "MTAML_pref", "lat", "model says", "measured")
	issue := config.IssueCostALU
	specs := suite()
	type row struct{ base, pf *future }
	rows := make([]row, len(specs))
	for i, s := range specs {
		rows[i] = row{r.baselineF(s), r.softwareF(s, swpref.MTSWP, false)}
	}
	for i, s := range specs {
		base, pf := rows[i].base.res(), rows[i].pf.res()
		if base == nil || pf == nil {
			t.AddRow(s.Name, "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
			continue
		}
		a := model.Analyze(s, pf.Coverage)
		cls := a.ClassifyMeasured(base.AvgDemandLatency, pf.AvgDemandLatency, issue)
		t.AddRow(s.Name, fmt.Sprint(a.Warps),
			stats.FormatFloat(a.MTAML), stats.FormatFloat(a.MTAMLPref),
			stats.FormatFloat(base.AvgDemandLatency/float64(issue)),
			cls.String(), fmt.Sprintf("%.2fx", pf.Speedup(base)))
	}
	return []*stats.Table{t}, r.failures()
}
