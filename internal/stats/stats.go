// Package stats provides small statistics helpers shared by the simulator:
// safe ratios, latency accumulators, geometric means, and fixed-width table
// rendering used by the experiment harness.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// SafeDiv returns a/b, or 0 when b is zero.
func SafeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Ratio returns a/b as float64 with a zero-guard, for counter pairs.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Geomean returns the geometric mean of xs, ignoring non-positive entries.
// It returns 0 when no positive entries exist.
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Histogram accumulates a distribution of uint64 samples in logarithmic
// (power-of-two) buckets: Buckets[i] counts samples whose bit length is i,
// i.e. samples in [2^(i-1), 2^i). The fixed bucket array makes Histogram a
// plain value type — snapshots are struct copies and Merge is exact — while
// Percentile recovers quantiles with at most one power-of-two of error,
// plenty for latency distributions spanning 1..10^6 cycles.
type Histogram struct {
	Count   uint64
	Sum     uint64
	Min     uint64 // smallest sample; meaningful only when Count > 0
	Max     uint64
	Buckets [65]uint64
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[bits.Len64(v)]++
}

// Avg returns the mean sample, or 0 with no samples.
func (h *Histogram) Avg() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.Count > 0 && (h.Count == 0 || other.Min < h.Min) {
		h.Min = other.Min
	}
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Percentile estimates the p-th percentile (p in [0,100]) by locating the
// bucket containing the rank and interpolating linearly inside it. Bucket
// i spans [2^(i-1), 2^i), so the raw interpolation can land outside the
// observed sample range at the edge buckets — e.g. a histogram of all-10s
// would interpolate past 10 inside [8,16), and one of all-3s would start
// below 3 inside [2,4). The result is therefore clamped into [Min, Max],
// which also makes single-valued histograms exact. A rank landing in
// bucket 0 is exactly the value 0 (only Add(0) populates it, since
// bits.Len64(0) == 0), and an empty histogram reports 0.
func (h *Histogram) Percentile(p float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := math.Ceil(p / 100 * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		cum += float64(n)
		if cum < target {
			continue
		}
		if i == 0 {
			return 0
		}
		lo := float64(uint64(1) << (i - 1))
		frac := (target - (cum - float64(n))) / float64(n)
		v := lo + frac*lo // bucket spans [lo, 2*lo)
		if v < float64(h.Min) {
			v = float64(h.Min)
		}
		if v > float64(h.Max) {
			v = float64(h.Max)
		}
		return v
	}
	return float64(h.Max)
}

// Latency accumulates per-event latencies. It is a Histogram, so beyond
// Count/Sum/Max it answers Percentile queries over the distribution.
type Latency struct {
	Histogram
}

// Merge folds other into l.
func (l *Latency) Merge(other Latency) {
	l.Histogram.Merge(&other.Histogram)
}

// Table renders rows of labelled values as an aligned text table, the
// format used by the experiment harness to mirror the paper's tables and
// figure series.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept as-is.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// NumRows reports how many rows have been added.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, len(c))
			} else if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header row first).
// Cells containing commas or quotes are quoted per RFC 4180.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Title returns the table's title.
func (t *Table) Title() string { return t.title }

// FormatFloat renders v compactly: integers without decimals, small values
// with three significant digits. Non-finite values render as NaN/Inf/-Inf.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3f", v)
}
