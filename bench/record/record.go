// Package record is the benchmark's run-record format, shared by the
// benchmark (which writes one record per workload run with -json) and the
// compare tool (which reads two sets of them).
package record

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Host describes the machine a run was measured on.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
}

// Metric is one metric of one run: the value reported for the run (the
// median of its samples for a timing) and the spread of those samples.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression; zero for
	// per-layer metrics.
	Bound float64 `json:"bound,omitempty"`
	// Exact marks a count the simulator makes: it must repeat exactly
	// across runs of the same code and seed.
	Exact bool    `json:"exact,omitempty"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// Run is one invocation of one workload.
type Run struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      Host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Append writes r as one JSON line at the end of path.
func Append(path string, r *Run) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read returns every record in a JSON-lines file.
func Read(path string) ([]*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*Run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var run Run
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, &run)
	}
	return out, sc.Err()
}

// Quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match ones computed from
// the same values in Python. One value is its own quartiles.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	n := len(s)
	q := func(i int) float64 {
		// Python clamps the index but not the weight, so the outer
		// quartiles of very small samples extrapolate; so does this.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
