package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"mtprefetch/internal/config"
	"mtprefetch/internal/core"
	"mtprefetch/internal/harness"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/store"
	"mtprefetch/internal/workload"
)

// Input sizes. paper-sweep and observed-store run at the harness's
// default scale, the one results_reference.txt was generated at.
const (
	sweepWaves = 2
	suiteWaves = 8
	warmPasses = 10
)

var (
	paperSweepIDs    = []string{"table3", "table4", "fig10", "fig11", "fig13", "fig14", "fig15", "gstable"}
	observedStoreIDs = []string{"table3", "gstable", "fig15"}
)

// scaleToWaves shrinks a benchmark's grid to about waves full-occupancy
// waves per core of the 14-core baseline, rounding to nearest as the
// harness does.
func scaleToWaves(s *workload.Spec, waves int) *workload.Spec {
	target := 14 * s.MaxBlocksPerCore * waves
	return s.Scaled(max((s.Blocks+target/2)/target, 1))
}

// baseOptions gives each spec's no-prefetcher simulation at waves.
func baseOptions(specs []*workload.Spec, waves int) []core.Options {
	out := make([]core.Options, len(specs))
	for i, s := range specs {
		out[i] = core.Options{Workload: scaleToWaves(s, waves)}
	}
	return out
}

// shuffled returns a seed-determined permutation of xs.
func shuffled[T any](xs []T, rng *splitmix64) []T {
	out := append([]T(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// directPass accumulates one pass of sequential simulations.
type directPass struct {
	wall, newS, runS float64
	cycles, skipped  uint64
	sums             map[string]float64 // registry sums; first pass only
}

// simulate builds and runs one simulation of a direct workload's pass,
// whose unit of work it is.
func (b *bench) simulate(p *directPass, key string, o core.Options) (*core.Result, error) {
	t0 := time.Now()
	sim, err := core.New(o)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	res, err := sim.Run()
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	b.simRuns++
	b.fastest("wall_s", key, t2.Sub(t0))
	p.wall += t2.Sub(t0).Seconds()
	p.newS += t1.Sub(t0).Seconds()
	p.runS += t2.Sub(t1).Seconds()
	p.cycles += res.Cycles
	p.skipped += sim.SkippedCycles()
	if p.sums != nil {
		for _, n := range registryNames {
			p.sums[n] += float64(sim.Registry().Sum(n))
		}
	}
	return res, nil
}

// endPass records one complete direct pass: its time and the core loop's
// metrics. Counts, identical on every pass, come from the first.
func (b *bench) endPass(p *directPass) {
	b.sample("wall_s", p.wall)
	b.sample("core.new_s", p.newS)
	b.sample("core.run_s", p.runS)
	visited := p.cycles - p.skipped
	b.sample("core.ns_per_visited_cycle", p.runS*1e9/float64(max(visited, 1)))
	b.sample("core.cycles_per_s", float64(p.cycles)/(p.newS+p.runS))
	if p.sums != nil {
		b.set("core.cycles", float64(p.cycles))
		b.set("core.visited_cycles", float64(visited))
		b.set("core.skipped_frac", float64(p.skipped)/float64(max(p.cycles, 1)))
		b.setCounts(p.sums)
	}
}

// suiteBase runs the 14 Table III benchmarks directly, without a
// prefetcher or an observer, in a seed-shuffled order on every pass.
func (b *bench) suiteBase() error {
	once, err := b.loadSuite()
	if err != nil {
		return err
	}
	opts := baseOptions(trim(b, workload.MemoryIntensive()), suiteWaves)
	b.set("workload.kernels", float64(len(opts)))
	if err := b.setup(once, func() ([]core.Options, error) { return opts, nil }); err != nil {
		return err
	}
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	rng := splitmix64(b.seed)
	p := &directPass{sums: map[string]float64{}}
	var cpiErr float64
	return b.timed(func(pass int) []unit {
		var us []unit
		for _, o := range shuffled(opts, &rng) {
			name := o.Workload.Name
			us = append(us, unit{name, func() error {
				t := time.Now()
				res, err := b.simulate(p, name, o)
				if err != nil {
					b.check(false, "%s: %v", name, err)
					return nil
				}
				b.sample("core.cycles_per_s."+name, float64(res.Cycles)/time.Since(t).Seconds())
				b.check(golden.matches(res), "%s: Result differs from golden/suite-base.json", name)
				if pass == 0 {
					cpiErr += math.Abs(res.CPI-o.Workload.PaperBaseCPI) / o.Workload.PaperBaseCPI
				}
				return nil
			}})
		}
		return us
	}, func(pass int) {
		b.endPass(p)
		if pass == 0 {
			b.set("core.paper_cpi_err", cpiErr/float64(len(opts)))
		}
		p = &directPass{}
	})
}

// synthOptions pairs every kernel with a run without a prefetcher and one
// with MT-HWP (PWS+GS+IP) under adaptive throttling.
func synthOptions(specs []*workload.Spec) []core.Options {
	var out []core.Options
	for _, s := range specs {
		for _, hw := range []bool{false, true} {
			cfg := config.Baseline()
			cfg.ThrottlePeriod = 10_000 // the harness's period for scaled-down runs
			o := core.Options{Config: cfg, Workload: s}
			if hw {
				o.Hardware = func() prefetch.Prefetcher {
					return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
				}
				o.Throttle = true
			}
			out = append(out, o)
		}
	}
	return out
}

// parseSynth generates and parses the seed's kernels.
func parseSynth(seed uint64) ([]*workload.Spec, error) {
	var specs []*workload.Spec
	for _, src := range synthSpecs(seed) {
		s, err := workload.ParseSpec(src)
		if err != nil {
			return nil, fmt.Errorf("generated kernel: %w\n%s", err, src)
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// synthLowOcc runs the seed's generated low-occupancy kernels, each
// without and with MT-HWP, sequentially.
func (b *bench) synthLowOcc() error {
	t := time.Now()
	specs, err := parseSynth(b.seed)
	if err != nil {
		return err
	}
	specs = trim(b, specs)
	b.set("workload.parse_s", time.Since(t).Seconds())
	b.set("workload.kernels", float64(len(specs)))
	opts := synthOptions(specs)
	if err := b.setup(0, func() ([]core.Options, error) {
		specs, err := parseSynth(b.seed)
		return synthOptions(trim(b, specs)), err
	}); err != nil {
		return err
	}

	// The untimed reference pass runs with the invariant sweep on; every
	// timed pass must reproduce its Results exactly.
	want := make([][]byte, len(opts))
	digest := sha256.New()
	for i, o := range opts {
		o.Checks = true
		res, err := core.Run(o)
		b.check(err == nil, "%s with invariant checks: %v", o.Workload.Name, err)
		if err == nil {
			want[i], _ = json.Marshal(res)
			digest.Write(want[i])
		}
	}
	b.res.Digest = hex.EncodeToString(digest.Sum(nil))

	p := &directPass{sums: map[string]float64{}}
	var us []unit
	for i, o := range opts {
		key := fmt.Sprintf("%s/%d", o.Workload.Name, i%2)
		us = append(us, unit{key, func() error {
			res, err := b.simulate(p, key, o)
			if err != nil {
				b.check(false, "%s: %v", key, err)
				return nil
			}
			js, _ := json.Marshal(res)
			b.check(bytes.Equal(js, want[i]), "%s: Result differs from the checked reference run", key)
			return nil
		}})
	}
	return b.timed(func(int) []unit { return us }, func(int) {
		b.endPass(p)
		p = &directPass{}
	})
}

// experiments returns a harness workload's experiments; a smoke run
// keeps only the GS-table study, the cheapest that simulates.
func (b *bench) experiments(ids []string) []string {
	if b.smoke {
		return []string{"gstable"}
	}
	return ids
}

// harnessConfig is the sweep configuration of the harness workloads:
// the CLI defaults, one worker per CPU.
func harnessConfig() harness.Config {
	subset := true
	return harness.Config{Waves: sweepWaves, Subset: &subset, Workers: runtime.GOMAXPROCS(0)}
}

// harnessSetup measures a harness workload's set-up: the suite's one-time
// construction, then building one simulator for each benchmark the sweep
// draws on (the harness builds one per run, inside the sweep).
func (b *bench) harnessSetup(specs func() []*workload.Spec) error {
	once, err := b.loadSuite()
	if err != nil {
		return err
	}
	opts := baseOptions(trim(b, specs()), sweepWaves)
	b.set("workload.kernels", float64(len(opts)))
	return b.setup(once, func() ([]core.Options, error) { return opts, nil })
}

// paperSweep regenerates the paper's tables and figures through the
// harness, one worker per CPU; each experiment is a unit of work.
func (b *bench) paperSweep() error {
	if err := b.harnessSetup(func() []*workload.Spec {
		return append(workload.MemoryIntensive(), workload.NonIntensiveSpecs()...)
	}); err != nil {
		return err
	}
	ref, err := referenceSections(b.root)
	if err != nil {
		return err
	}
	rng := splitmix64(b.seed)
	ids := shuffled(b.experiments(paperSweepIDs), &rng)
	cfg := harnessConfig()
	var h *harnessPass
	var wall time.Duration
	return b.timed(func(pass int) []unit {
		h, wall = b.newHarnessPass(pass == 0), 0
		var us []unit
		for _, id := range ids {
			us = append(us, unit{id, func() error {
				d, err := b.sweep([]string{id}, cfg, ref, h, "wall_s")
				wall += d
				return err
			}})
		}
		return us
	}, func(int) {
		b.sample("wall_s", wall.Seconds())
		b.endHarnessPass(h, wall, cfg.Workers)
	})
}

// sweep runs each experiment once, in order, checks its tables against
// the reference, and records its time as a unit of metric. It returns the
// time spent inside the harness. With h, every experiment runs with a
// debug server attached, from which h collects per-run times and registry
// sums.
func (b *bench) sweep(ids []string, cfg harness.Config, ref map[string]string, h *harnessPass, metric string) (time.Duration, error) {
	var wall time.Duration
	for _, id := range ids {
		e := harness.ByID(id)
		if e == nil {
			return 0, fmt.Errorf("unknown experiment %q", id)
		}
		if h != nil {
			ds, err := harness.NewDebugServer("127.0.0.1:0")
			if err != nil {
				return 0, err
			}
			ds.SetSnapshotKeep(math.MaxInt32)
			cfg.Debug = ds
		}
		t := time.Now()
		tables, err := e.Run(cfg)
		d := time.Since(t)
		b.fastest(metric, id, d)
		wall += d
		if h != nil {
			cerr := h.collect(cfg.Debug)
			cfg.Debug.Close()
			if cerr != nil {
				return 0, cerr
			}
		}
		b.check(err == nil && tables != nil && normalize(renderSection(e, tables)) == ref[id],
			"%s: tables differ from results_reference.txt (error: %v)", id, err)
	}
	return wall, nil
}

// observedStore runs table3, gstable and fig15 with four JSONL streams on
// and a result store attached: each pass is one cold sweep into a fresh
// store followed by warmPasses resumed sweeps served from it. wall_s
// times the cold sweeps, store.resume_s the resumed ones.
func (b *bench) observedStore() error {
	if err := b.harnessSetup(workload.MemoryIntensive); err != nil {
		return err
	}
	ref, err := referenceSections(b.root)
	if err != nil {
		return err
	}
	rng := splitmix64(b.seed)
	ids := shuffled(b.experiments(observedStoreIDs), &rng)
	warm := warmPasses
	if b.smoke {
		warm = 1
	}
	var dir string
	var coldBytes [4]int64
	return b.timed(func(pass int) []unit {
		us := []unit{{"cold", func() error {
			// Each pass starts from an empty store; the last pass's store
			// goes with the scratch directory.
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			dir = filepath.Join(b.work, fmt.Sprintf("store-%d", pass))
			var err error
			coldBytes, err = b.storePass(dir, ids, ref, true, pass == 0)
			return err
		}}}
		for i := 0; i < warm; i++ {
			us = append(us, unit{"warm", func() error {
				got, err := b.storePass(dir, ids, ref, false, pass == 0)
				// Stream records arrive in completion order, which varies
				// between sweeps; their total size does not.
				b.check(got == coldBytes, "resumed sweep wrote streams of %v bytes, cold sweep %v", got, coldBytes)
				return err
			}})
		}
		return us
	}, nil)
}

// streamNames are the JSONL streams observed-store enables, in
// obs.NewSink's argument order (the trace stream stays off: it bypasses
// the store).
var streamNames = [4]string{"metrics", "pfreport", "cpistack", "spans"}

// storePass runs one sweep of observed-store against the store in dir and
// returns the bytes written to each stream. Its units of work are opening
// the store and streams, each experiment, and closing the streams.
func (b *bench) storePass(dir string, ids []string, ref map[string]string, cold, first bool) ([4]int64, error) {
	var written [4]int64
	metric := "store.resume_s"
	if cold {
		metric = "wall_s"
	}
	fs := &meteredFS{FS: store.OSFS()}
	var streams [4]*meteredWriter
	t := time.Now()
	st, err := store.Open(dir, store.WithFS(fs))
	if err != nil {
		return written, err
	}
	for i, name := range streamNames {
		f, err := os.Create(filepath.Join(b.work, name+".jsonl"))
		if err != nil {
			return written, err
		}
		defer f.Close()
		streams[i] = &meteredWriter{w: f}
	}
	sink, err := obs.NewSink(streams[0], nil, streams[1], streams[2], streams[3], obs.Config{SampleEvery: 10_000})
	if err != nil {
		return written, err
	}
	cfg := harnessConfig()
	cfg.Obs, cfg.Store = sink, st
	opened := time.Since(t)
	b.fastest(metric, "open", opened)
	var h *harnessPass
	if cold {
		h = b.newHarnessPass(first)
	}
	inHarness, err := b.sweep(ids, cfg, ref, h, metric)
	if err != nil {
		return written, err
	}
	t = time.Now()
	if err := sink.Close(); err != nil {
		return written, err
	}
	for _, w := range streams {
		if err := w.w.Close(); err != nil {
			return written, err
		}
	}
	closed := time.Since(t)
	b.fastest(metric, "close", closed)
	b.sample(metric, (opened + inHarness + closed).Seconds())

	var writeS float64
	for i, w := range streams {
		written[i] = w.bytes.Load()
		writeS += time.Duration(w.nanos.Load()).Seconds()
	}
	stats := st.Stats()
	b.check(stats.Quarantined == 0, "store quarantined %d entries", stats.Quarantined)
	if cold {
		b.endHarnessPass(h, inHarness, cfg.Workers)
		b.sample("store.write_s", time.Duration(fs.writeNanos.Load()).Seconds())
		b.sample("obs.write_s", writeS)
		if first {
			b.set("store.puts", float64(stats.Commits))
			b.set("store.misses", float64(stats.Misses))
			b.set("store.quarantined", float64(stats.Quarantined))
			b.set("store.bytes_written", float64(fs.writeBytes.Load()))
			for i, name := range streamNames {
				b.set("obs.bytes_"+name, float64(written[i]))
			}
		}
		return written, nil
	}
	b.check(stats.Misses == 0, "resumed sweep simulated %d runs instead of reading the store", stats.Misses)
	b.sample("store.read_s", time.Duration(fs.readNanos.Load()).Seconds())
	if first {
		b.set("store.hits", float64(stats.Hits))
		b.set("store.bytes_read", float64(fs.readBytes.Load()))
	}
	return written, nil
}

// meteredWriter counts the bytes and time of the writes a Sink makes.
type meteredWriter struct {
	w            *os.File
	bytes, nanos atomic.Int64
}

func (m *meteredWriter) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := m.w.Write(p)
	m.nanos.Add(int64(time.Since(t)))
	m.bytes.Add(int64(n))
	return n, err
}

// meteredFS counts the bytes and time of the store's file reads and
// writes; the other operations pass through.
type meteredFS struct {
	store.FS
	readBytes, writeBytes, readNanos, writeNanos atomic.Int64
}

func (m *meteredFS) ReadFile(path string) ([]byte, error) {
	t := time.Now()
	data, err := m.FS.ReadFile(path)
	m.readNanos.Add(int64(time.Since(t)))
	m.readBytes.Add(int64(len(data)))
	return data, err
}

func (m *meteredFS) WriteFile(path string, data []byte) error {
	t := time.Now()
	err := m.FS.WriteFile(path, data)
	m.writeNanos.Add(int64(time.Since(t)))
	m.writeBytes.Add(int64(len(data)))
	return err
}
