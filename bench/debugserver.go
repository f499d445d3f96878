package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"mtprefetch/internal/harness"
)

// harnessPass gathers, in the traced run, what the harness's debug
// server publishes about one pass: every simulated run's host seconds
// and, on the first pass, the registry sums of all its runs.
type harnessPass struct {
	runSecs []float64
	sums    map[string]float64 // nil: counts are not collected this pass
}

// newHarnessPass returns nil outside the traced run: the timed runs attach
// no debug server.
func (b *bench) newHarnessPass(counts bool) *harnessPass {
	if !b.traced() {
		return nil
	}
	h := &harnessPass{}
	if counts {
		h.sums = map[string]float64{}
	}
	return h
}

// collect reads one experiment's runs from its debug server.
func (h *harnessPass) collect(ds *harness.DebugServer) error {
	base := "http://" + ds.Addr()
	var runs struct {
		Runs []struct {
			Status  string  `json:"status"`
			Seconds float64 `json:"seconds"`
		} `json:"runs"`
	}
	if err := httpGet(base+"/runs", func(r io.Reader) error { return json.NewDecoder(r).Decode(&runs) }); err != nil {
		return err
	}
	for _, r := range runs.Runs {
		if r.Status == "done" {
			h.runSecs = append(h.runSecs, r.Seconds)
		}
	}
	if h.sums == nil {
		return nil
	}
	// /metrics renders each finished run's registry snapshot as
	// `sim_<name>{run=...,core=...,component=...} <value>`, with the
	// name's dots turned into underscores.
	byProm := map[string]string{}
	for _, n := range registryNames {
		byProm["sim_"+strings.ReplaceAll(n, ".", "_")] = n
	}
	return httpGet(base+"/metrics", func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			brace := strings.IndexByte(line, '{')
			if brace < 0 {
				continue
			}
			name, ok := byProm[line[:brace]]
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				return fmt.Errorf("debug server /metrics: %q: %w", line, err)
			}
			h.sums[name] += v
		}
		return sc.Err()
	})
}

func httpGet(url string, read func(io.Reader) error) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return read(resp.Body)
}

// endHarnessPass records the harness layer's metrics for one pass that
// spent wall inside the harness with the given worker count.
func (b *bench) endHarnessPass(h *harnessPass, wall time.Duration, workers int) {
	if h == nil {
		return
	}
	b.simRuns += len(h.runSecs)
	secs := append([]float64(nil), h.runSecs...)
	sort.Float64s(secs)
	var sum float64
	for _, s := range secs {
		sum += s
	}
	pct := func(p float64) float64 {
		if len(secs) == 0 {
			return 0
		}
		return 1000 * secs[int(math.Ceil(p*float64(len(secs))))-1]
	}
	b.sample("harness.run_p50_ms", pct(0.5))
	b.sample("harness.run_p90_ms", pct(0.9))
	b.sample("harness.run_max_ms", pct(1))
	b.sample("harness.parallel_eff", sum/(wall.Seconds()*float64(workers)))
	if h.sums != nil {
		b.set("harness.runs", float64(len(secs)))
		b.setCounts(h.sums)
	}
}
