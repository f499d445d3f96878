package harness

import (
	"fmt"

	"mtprefetch/internal/config"
	"mtprefetch/internal/core"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/stats"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

func init() {
	register("table2", "Baseline processor configuration", "Table II", runTable2)
	register("table3", "Memory-intensive benchmark characteristics", "Table III", runTable3)
	register("table4", "Non-memory-intensive benchmarks", "Table IV", runTable4)
	register("table5", "Evaluated hardware prefetchers", "Table V", runTable5)
	register("table6", "Hardware cost of MT-HWP", "Table VI", runTable6)
	register("fig8", "Normalized memory latency and accuracy under SW prefetching", "Figure 8", runFig8)
	register("fig10", "Software prefetching speedups", "Figure 10", runFig10)
	register("fig11", "MT-SWP with adaptive throttling", "Figure 11", runFig11)
	register("fig12", "Early prefetches and bandwidth under MT-SWP throttling", "Figure 12", runFig12)
	register("fig13", "Hardware prefetchers: naive vs warp-id training", "Figure 13", runFig13)
	register("fig14", "MT-HWP table ablation", "Figure 14", runFig14)
	register("fig15", "Hardware prefetching with feedback/throttling", "Figure 15", runFig15)
	register("fig16", "Prefetch cache size sensitivity", "Figure 16", runFig16)
	register("fig17", "Prefetch distance sensitivity (MT-HWP)", "Figure 17", runFig17)
	register("fig18", "Core count sensitivity", "Figure 18", runFig18)
	register("gstable", "GS-table PWS-access savings on stride-type", "Section VIII-B", runGSTable)
}

func runTable2(Config) ([]*stats.Table, error) {
	c := config.Baseline()
	t := stats.NewTable("Table II — baseline processor configuration", "parameter", "value")
	t.AddRow("cores", fmt.Sprintf("%d x %d-wide SIMD", c.NumCores, config.SIMDWidth))
	t.AddRow("warp size", fmt.Sprint(config.WarpSize))
	t.AddRow("issue occupancy (ALU/IMUL/FDIV)", fmt.Sprintf("%d/%d/%d cycles per warp-instruction",
		config.IssueCostALU, config.IssueCostIMul, config.IssueCostFDiv))
	t.AddRow("core / DRAM clock", fmt.Sprintf("%d / %d MHz", config.CoreClockMHz, config.DRAMClockMHz))
	t.AddRow("interconnect", fmt.Sprintf("%d-cycle fixed latency, 1 req per %d cores per cycle",
		config.NOCLatency, config.NOCCoresPerInject))
	t.AddRow("DRAM", fmt.Sprintf("%d channels x %d banks, %dB rows, tCL/tRCD/tRP = %d/%d/%d",
		config.DRAMChannels, config.DRAMBanks, config.DRAMRowBytes, config.DRAMtCL, config.DRAMtRCD, config.DRAMtRP))
	t.AddRow("peak bandwidth", fmt.Sprintf("%.1f GB/s", config.BandwidthGBs))
	t.AddRow("prefetch cache", fmt.Sprintf("%d KB, %d-way", c.PrefetchCacheBytes/1024, config.PrefetchCacheWays))
	t.AddRow("prefetch distance/degree", fmt.Sprintf("%d / %d", prefetch.Distance, prefetch.Degree))
	t.AddRow("scheduling priority", "demand over prefetch")
	return []*stats.Table{t}, nil
}

// pmemF submits the perfect-memory run for a benchmark.
func pmemF(r *runner, s *workload.Spec) *future {
	return r.submit("pmem/"+s.Name, core.Options{
		Config: r.machine(), Workload: r.spec(s), PerfectMemory: true,
	})
}

func runTable3(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	t := stats.NewTable("Table III — memory-intensive benchmark characteristics",
		"bench", "suite", "type", "warps", "blocks", "maxBlk/core",
		"baseCPI", "pmemCPI", "paperBase", "paperPMem", "DEL(S/IP)")
	specs := suite()
	bases := make([]*future, len(specs))
	pmems := make([]*future, len(specs))
	for i, s := range specs {
		bases[i] = r.baselineF(s)
		pmems[i] = pmemF(r, s)
	}
	for i, s := range specs {
		base, pm := bases[i].res(), pmems[i].res()
		baseCPI, pmCPI := errCell(), errCell()
		if base != nil {
			baseCPI = base.CPI
		}
		if pm != nil {
			pmCPI = pm.CPI
		}
		t.AddRow(s.Name, s.Suite, s.Class.String(),
			fmt.Sprint(s.TotalWarps), fmt.Sprint(s.Blocks), fmt.Sprint(s.MaxBlocksPerCore),
			fmtCell(baseCPI), fmtCell(pmCPI),
			stats.FormatFloat(s.PaperBaseCPI), stats.FormatFloat(s.PaperPMemCPI),
			fmt.Sprintf("%d/%d", s.DelStride, s.DelIP))
	}
	return []*stats.Table{t}, r.failures()
}

func runTable4(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	mt := hwMTHWP(true, true, 1)
	t := stats.NewTable("Table IV — non-memory-intensive benchmarks",
		"bench", "suite", "baseCPI", "pmemCPI", "hwpCPI", "paperBase", "paperPMem")
	specs := workload.NonIntensiveSpecs()
	type row struct{ base, pmem, hw *future }
	rows := make([]row, len(specs))
	for i, s := range specs {
		rows[i] = row{r.baselineF(s), pmemF(r, s), r.hardwareF(s, mt.name, mt.make, false)}
	}
	for i, s := range specs {
		base, pm, hw := rows[i].base.res(), rows[i].pmem.res(), rows[i].hw.res()
		baseCPI, pmCPI, hwCPI := errCell(), errCell(), errCell()
		if base != nil {
			baseCPI = base.CPI
		}
		if pm != nil {
			pmCPI = pm.CPI
		}
		if hw != nil {
			hwCPI = hw.CPI
		}
		t.AddRow(s.Name, s.Suite,
			fmtCell(baseCPI), fmtCell(pmCPI), fmtCell(hwCPI),
			stats.FormatFloat(s.PaperBaseCPI), stats.FormatFloat(s.PaperPMemCPI))
	}
	return []*stats.Table{t}, r.failures()
}

func runTable5(Config) ([]*stats.Table, error) {
	t := stats.NewTable("Table V — evaluated hardware prefetchers",
		"prefetcher", "description", "configuration")
	t.AddRow("Stride RPT", "region-based stride prefetcher [13]",
		fmt.Sprintf("%d-entry, %d region bits", prefetch.StrideRPTEntries, prefetch.StrideRPTRegionBits))
	t.AddRow("StridePC", "per-PC stride prefetcher [4,11]", fmt.Sprintf("%d-entry", prefetch.StridePCEntries))
	t.AddRow("Stream", "stream prefetcher [29]", fmt.Sprintf("%d-entry", prefetch.StreamEntries))
	t.AddRow("GHB AC/DC", "global history buffer prefetcher [14,21]",
		fmt.Sprintf("%d-entry GHB, %d-bit CZone, %d-entry index", prefetch.GHBEntries, prefetch.GHBCZoneBits, prefetch.GHBIndexEntries))
	t.AddRow("MT-HWP", "this paper", fmt.Sprintf("%d-entry PWS + %d-entry GS + %d-entry IP",
		prefetch.PWSEntries, prefetch.GSEntries, prefetch.IPEntries))
	return []*stats.Table{t}, nil
}

func runTable6(Config) ([]*stats.Table, error) {
	t := stats.NewTable("Table VI — hardware cost of MT-HWP",
		"table", "fields", "bits/entry", "entries", "total bits")
	total := 0
	for _, tc := range prefetch.MTHWPCost() {
		t.AddRow(tc.Name, tc.Fields, fmt.Sprint(tc.BitsPerEntry),
			fmt.Sprint(tc.Entries), fmt.Sprint(tc.TotalBits()))
		total += tc.TotalBits()
	}
	t.AddRow("total", "", "", "", fmt.Sprintf("%d bits = %d bytes", total, prefetch.MTHWPCostBytes()))
	return []*stats.Table{t}, nil
}

func runFig8(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	t := stats.NewTable("Figure 8 — normalized avg memory latency (bar) and prefetch accuracy (circle) under MT-SWP",
		"bench", "normLatency", "accuracy%")
	specs := suite()
	type row struct{ base, pf *future }
	rows := make([]row, len(specs))
	for i, s := range specs {
		rows[i] = row{r.baselineF(s), r.softwareF(s, swpref.MTSWP, false)}
	}
	for i, s := range specs {
		base, pf := rows[i].base.res(), rows[i].pf.res()
		norm, acc := errCell(), errCell()
		if base != nil && pf != nil {
			norm = stats.SafeDiv(pf.AvgDemandLatency, base.AvgDemandLatency)
			acc = pf.Accuracy * 100
		}
		t.AddRow(s.Name, fmtCell(norm), fmtCell(acc))
	}
	return []*stats.Table{t}, r.failures()
}

// speedupMatrix waits for a baseline-per-row plus a futures matrix and
// folds them into per-row speedup vectors, preserving submission order.
// Cells whose run (or baseline) failed are NaN, rendered as ERR.
func speedupMatrix(bases []*future, runs [][]*future) [][]float64 {
	matrix := make([][]float64, len(bases))
	for i := range bases {
		base := bases[i].res()
		row := make([]float64, 0, len(runs[i]))
		for _, f := range runs[i] {
			res := f.res()
			if base == nil || res == nil {
				row = append(row, errCell())
				continue
			}
			row = append(row, res.Speedup(base))
		}
		matrix[i] = row
	}
	return matrix
}

// speedupTable assembles the standard bench/type/columns speedup table
// (plus the geomean footer) from a completed matrix.
func speedupTable(title string, specs []*workload.Spec, cols []string, matrix [][]float64) *stats.Table {
	headers := append([]string{"bench", "type"}, cols...)
	t := stats.NewTable(title, headers...)
	for i, s := range specs {
		cells := []string{s.Name, s.Class.String()}
		for _, v := range matrix[i] {
			cells = append(cells, fmtCell(v))
		}
		t.AddRow(cells...)
	}
	cells := []string{"geomean", ""}
	for i := range cols {
		cells = append(cells, fmtCell(geomeanColumn(matrix, i)))
	}
	t.AddRow(cells...)
	return t
}

// swSpeedupTable renders one speedup column set for the software figures.
func swSpeedupTable(r *runner, title string, modes []swpref.Mode, names []string, throttleLast bool) *stats.Table {
	specs := suite()
	bases := make([]*future, len(specs))
	runs := make([][]*future, len(specs))
	for i, s := range specs {
		bases[i] = r.baselineF(s)
		for j, m := range modes {
			throttle := throttleLast && j == len(modes)-1
			runs[i] = append(runs[i], r.softwareF(s, m, throttle))
		}
	}
	return speedupTable(title, specs, names, speedupMatrix(bases, runs))
}

func runFig10(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	t := swSpeedupTable(r,
		"Figure 10 — software prefetching speedup over no-prefetching baseline",
		[]swpref.Mode{swpref.Register, swpref.Stride, swpref.IP, swpref.MTSWP},
		[]string{"register", "stride", "ip", "stride+ip"}, false)
	return []*stats.Table{t}, r.failures()
}

func runFig11(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	t := swSpeedupTable(r,
		"Figure 11 — MT-SWP with adaptive prefetch throttling (speedup over baseline)",
		[]swpref.Mode{swpref.Register, swpref.Stride, swpref.MTSWP, swpref.MTSWP},
		[]string{"register", "stride", "mt-swp", "mt-swp+T"}, true)
	return []*stats.Table{t}, r.failures()
}

func runFig12(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	early := stats.NewTable("Figure 12a — ratio of early prefetches",
		"bench", "mt-swp", "mt-swp+T")
	bw := stats.NewTable("Figure 12b — bandwidth consumption normalized to no-prefetching",
		"bench", "mt-swp", "mt-swp+T")
	specs := suite()
	type row struct{ base, pf, pfT *future }
	rows := make([]row, len(specs))
	for i, s := range specs {
		rows[i] = row{r.baselineF(s),
			r.softwareF(s, swpref.MTSWP, false),
			r.softwareF(s, swpref.MTSWP, true)}
	}
	for i, s := range specs {
		base, pf, pfT := rows[i].base.res(), rows[i].pf.res(), rows[i].pfT.res()
		earlyRatio := func(x *core.Result) float64 {
			if x == nil {
				return errCell()
			}
			return stats.Ratio(x.EarlyEvictions, x.PrefetchesIssued)
		}
		bwRatio := func(x *core.Result) float64 {
			if x == nil || base == nil {
				return errCell()
			}
			return stats.SafeDiv(float64(x.BytesTransferred), float64(base.BytesTransferred))
		}
		early.AddRow(s.Name, fmtCell(earlyRatio(pf)), fmtCell(earlyRatio(pfT)))
		bw.AddRow(s.Name, fmtCell(bwRatio(pf)), fmtCell(bwRatio(pfT)))
	}
	return []*stats.Table{early, bw}, r.failures()
}

// hwSpeedupTable renders one speedup table over the full suite for a list
// of hardware prefetchers.
func hwSpeedupTable(r *runner, title string, hws []namedHW, throttled []bool) *stats.Table {
	cols := make([]string, 0, len(hws))
	for i, h := range hws {
		n := h.name
		if throttled != nil && throttled[i] {
			n += "+T"
		}
		cols = append(cols, n)
	}
	specs := suite()
	bases := make([]*future, len(specs))
	runs := make([][]*future, len(specs))
	for i, s := range specs {
		bases[i] = r.baselineF(s)
		for j, h := range hws {
			thr := throttled != nil && throttled[j]
			runs[i] = append(runs[i], r.hardwareF(s, h.name, h.make, thr))
		}
	}
	return speedupTable(title, specs, cols, speedupMatrix(bases, runs))
}

func runFig13(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	naive := hwSpeedupTable(r,
		"Figure 13a — hardware prefetchers, original indexing (speedup over baseline)",
		[]namedHW{hwStrideRPT(false), hwStridePC(false, false), hwStream(false), hwGHB(false, false)}, nil)
	enhanced := hwSpeedupTable(r,
		"Figure 13b — hardware prefetchers, enhanced warp-id indexing (speedup over baseline)",
		[]namedHW{hwStrideRPT(true), hwStridePC(true, false), hwStream(true), hwGHB(true, false)}, nil)
	return []*stats.Table{naive, enhanced}, r.failures()
}

func runFig14(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	t := hwSpeedupTable(r,
		"Figure 14 — MT-HWP table ablation (speedup over baseline)",
		[]namedHW{
			hwGHB(true, false),
			hwMTHWP(false, false, 1), // PWS only (= enhanced StridePC at MT-HWP sizing)
			hwMTHWP(true, false, 1),  // PWS+GS
			hwMTHWP(false, true, 1),  // PWS+IP
			hwMTHWP(true, true, 1),   // PWS+GS+IP
		}, nil)
	return []*stats.Table{t}, r.failures()
}

func runFig15(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	t := hwSpeedupTable(r,
		"Figure 15 — feedback-driven and throttled hardware prefetching (speedup over baseline)",
		[]namedHW{
			hwGHB(true, false),
			hwGHB(true, true), // GHB+F
			hwStridePC(true, false),
			hwStridePC(true, true), // StridePC+T
			hwMTHWP(true, true, 1),
			hwMTHWP(true, true, 1), // MT-HWP+T (throttled flag below)
		},
		[]bool{false, false, false, false, false, true})
	return []*stats.Table{t}, r.failures()
}

// sweepModes are the four series the Fig. 16/18 sweeps plot.
var sweepModes = []struct {
	hw  bool
	thr bool
}{{true, false}, {true, true}, {false, false}, {false, true}}

func runFig16(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	sizes := []int{1, 2, 4, 8, 16, 32, 64, 128}
	t := stats.NewTable("Figure 16 — sensitivity to prefetch cache size (geomean speedup over baseline)",
		"sizeKB", "mt-hwp", "mt-hwp+T", "mt-swp", "mt-swp+T")
	mt := hwMTHWP(true, true, 1)
	specs := r.sweepSuite()
	bases := make([]*future, len(specs))
	for i, s := range specs {
		bases[i] = r.baselineF(s)
	}
	runs := make([][][]*future, len(sizes)) // [size][spec][mode]
	for si, kb := range sizes {
		cfg := r.machine()
		cfg.PrefetchCacheBytes = kb * 1024
		runs[si] = make([][]*future, len(specs))
		for i, s := range specs {
			for _, mode := range sweepModes {
				o := core.Options{Config: cfg, Workload: r.spec(s), Throttle: mode.thr}
				key := fmt.Sprintf("fig16/%s/%d/%v/%v", s.Name, kb, mode.hw, mode.thr)
				if mode.hw {
					o.Hardware = mt.make
				} else {
					o.Software = swpref.MTSWP
				}
				runs[si][i] = append(runs[si][i], r.submit(key, o))
			}
		}
	}
	for si, kb := range sizes {
		rows := speedupMatrix(bases, runs[si])
		t.AddRow(fmt.Sprint(kb),
			fmtCell(geomeanColumn(rows, 0)), fmtCell(geomeanColumn(rows, 1)),
			fmtCell(geomeanColumn(rows, 2)), fmtCell(geomeanColumn(rows, 3)))
	}
	return []*stats.Table{t}, r.failures()
}

func runFig17(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	distances := []int{1, 3, 5, 7, 9, 11, 13, 15}
	specs := r.sweepSuite()
	headers := []string{"bench"}
	for _, d := range distances {
		headers = append(headers, fmt.Sprintf("d=%d", d))
	}
	t := stats.NewTable("Figure 17 — MT-HWP prefetch distance sensitivity (speedup over baseline)", headers...)
	bases := make([]*future, len(specs))
	runs := make([][]*future, len(specs))
	for i, s := range specs {
		bases[i] = r.baselineF(s)
		for _, d := range distances {
			h := hwMTHWP(true, true, d)
			runs[i] = append(runs[i], r.hardwareF(s, h.name, h.make, false))
		}
	}
	matrix := speedupMatrix(bases, runs)
	for i, s := range specs {
		cells := []string{s.Name}
		for _, v := range matrix[i] {
			cells = append(cells, fmtCell(v))
		}
		t.AddRow(cells...)
	}
	cells := []string{"geomean"}
	for i := range distances {
		cells = append(cells, fmtCell(geomeanColumn(matrix, i)))
	}
	t.AddRow(cells...)
	return []*stats.Table{t}, r.failures()
}

func runFig18(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	t := stats.NewTable("Figure 18 — sensitivity to number of cores (geomean speedup over same-core baseline)",
		"cores", "mt-hwp", "mt-hwp+T", "mt-swp", "mt-swp+T")
	mt := hwMTHWP(true, true, 1)
	specs := r.sweepSuite()
	var coreCounts []int
	for cores := 8; cores <= 20; cores += 2 {
		coreCounts = append(coreCounts, cores)
	}
	bases := make([][]*future, len(coreCounts)) // [cores][spec]
	runs := make([][][]*future, len(coreCounts))
	for ci, cores := range coreCounts {
		cfg := r.machine()
		cfg.NumCores = cores
		bases[ci] = make([]*future, len(specs))
		runs[ci] = make([][]*future, len(specs))
		for i, s := range specs {
			spec := r.spec(s)
			bases[ci][i] = r.submit(fmt.Sprintf("fig18base/%s/%d", s.Name, cores),
				core.Options{Config: cfg, Workload: spec})
			for _, mode := range sweepModes {
				o := core.Options{Config: cfg, Workload: spec, Throttle: mode.thr}
				key := fmt.Sprintf("fig18/%s/%d/%v/%v", s.Name, cores, mode.hw, mode.thr)
				if mode.hw {
					o.Hardware = mt.make
				} else {
					o.Software = swpref.MTSWP
				}
				runs[ci][i] = append(runs[ci][i], r.submit(key, o))
			}
		}
	}
	for ci, cores := range coreCounts {
		rows := speedupMatrix(bases[ci], runs[ci])
		t.AddRow(fmt.Sprint(cores),
			fmtCell(geomeanColumn(rows, 0)), fmtCell(geomeanColumn(rows, 1)),
			fmtCell(geomeanColumn(rows, 2)), fmtCell(geomeanColumn(rows, 3)))
	}
	return []*stats.Table{t}, r.failures()
}

func runGSTable(c Config) ([]*stats.Table, error) {
	r := newRunner(c)
	t := stats.NewTable("Section VIII-B — PWS accesses saved by the GS table (stride-type)",
		"bench", "pwsAccesses(noGS)", "pwsAccesses(GS)", "gsHits", "saved%")
	specs := workload.ByClass(workload.Stride)
	type row struct{ noGS, withGS *future }
	rows := make([]row, len(specs))
	for i, s := range specs {
		noGS := hwMTHWP(false, false, 1)
		withGS := hwMTHWP(true, false, 1)
		rows[i] = row{r.hardwareF(s, noGS.name, noGS.make, false),
			r.hardwareF(s, withGS.name, withGS.make, false)}
	}
	for i, s := range specs {
		a, b := rows[i].noGS.res(), rows[i].withGS.res()
		if a == nil || b == nil {
			t.AddRow(s.Name, "ERR", "ERR", "ERR", "ERR")
			continue
		}
		saved := 100 * (1 - stats.SafeDiv(float64(b.MTHWP.PWSAccesses), float64(a.MTHWP.PWSAccesses)))
		t.AddRow(s.Name,
			fmt.Sprint(a.MTHWP.PWSAccesses), fmt.Sprint(b.MTHWP.PWSAccesses),
			fmt.Sprint(b.MTHWP.GSHits), stats.FormatFloat(saved))
	}
	return []*stats.Table{t}, r.failures()
}
