package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSafeDiv(t *testing.T) {
	if got := SafeDiv(10, 2); got != 5 {
		t.Errorf("SafeDiv(10,2) = %v, want 5", got)
	}
	if got := SafeDiv(10, 0); got != 0 {
		t.Errorf("SafeDiv(10,0) = %v, want 0", got)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(3, 4); got != 0.75 {
		t.Errorf("Ratio(3,4) = %v, want 0.75", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Errorf("Ratio(3,0) = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("Geomean(1,4) = %v, want 2", got)
	}
	if got := Geomean(nil); got != 0 {
		t.Errorf("Geomean(nil) = %v, want 0", got)
	}
	// Non-positive entries are ignored.
	got = Geomean([]float64{-1, 0, 8, 2})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("Geomean ignoring nonpositive = %v, want 4", got)
	}
}

func TestGeomeanScaleInvariance(t *testing.T) {
	// Property: geomean(k*xs) = k * geomean(xs) for k > 0.
	f := func(a, b, c uint8) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		scaled := []float64{xs[0] * 3, xs[1] * 3, xs[2] * 3}
		return math.Abs(Geomean(scaled)-3*Geomean(xs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestLatency(t *testing.T) {
	var l Latency
	l.Add(10)
	l.Add(30)
	if l.Count != 2 || l.Sum != 40 || l.Max != 30 {
		t.Errorf("Latency state = %+v, want count 2 sum 40 max 30", l)
	}
	if got := l.Avg(); got != 20 {
		t.Errorf("Avg = %v, want 20", got)
	}
	var empty Latency
	if empty.Avg() != 0 {
		t.Error("empty latency Avg should be 0")
	}
}

func TestLatencyMerge(t *testing.T) {
	var a, b Latency
	a.Add(10)
	a.Add(30)
	b.Add(100)
	a.Merge(b)
	if a.Count != 3 || a.Sum != 140 || a.Max != 100 {
		t.Errorf("Merge result = %+v", a)
	}
	if p := a.Percentile(100); p != 100 {
		t.Errorf("merged P100 = %v, want 100 (clamped to Max)", p)
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 {
		t.Error("empty histogram percentile should be 0")
	}
	// 100 samples of 10 and one of 1000: the median sits in the 10s, the
	// tail in the 1000s.
	for i := 0; i < 100; i++ {
		h.Add(10)
	}
	h.Add(1000)
	p50 := h.Percentile(50)
	if p50 < 8 || p50 > 16 {
		t.Errorf("P50 = %v, want within the [8,16) bucket", p50)
	}
	p100 := h.Percentile(100)
	if p100 != 1000 {
		t.Errorf("P100 = %v, want 1000 (clamped to Max)", p100)
	}
	if h.Percentile(-5) != h.Percentile(0) {
		t.Error("negative p should clamp to 0")
	}
	// Zero samples land in bucket 0 and report exactly 0.
	var z Histogram
	z.Add(0)
	z.Add(0)
	if z.Percentile(99) != 0 {
		t.Errorf("all-zero P99 = %v, want 0", z.Percentile(99))
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := uint64(1); i <= 64; i++ {
		a.Add(i)
		b.Add(i * 100)
	}
	count, sum, max := a.Count+b.Count, a.Sum+b.Sum, b.Max
	a.Merge(&b)
	if a.Count != count || a.Sum != sum || a.Max != max {
		t.Errorf("merged = count %d sum %d max %d, want %d/%d/%d",
			a.Count, a.Sum, a.Max, count, sum, max)
	}
	var total uint64
	for _, n := range a.Buckets {
		total += n
	}
	if total != a.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, a.Count)
	}
	if p := a.Percentile(50); p < 32 || p > 128 {
		t.Errorf("merged P50 = %v, out of plausible range", p)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Speedups", "bench", "stride", "ip")
	tab.AddRowValues("black", 1.25, 1.0)
	tab.AddRow("stream", "0.900", "1.100")
	s := tab.String()
	for _, want := range []string{"Speedups", "bench", "stride", "black", "1.250", "stream", "0.900"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	if tab.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tab.NumRows())
	}
}

func TestTableExtraCells(t *testing.T) {
	tab := NewTable("", "a")
	tab.AddRow("x", "y", "z")
	s := tab.String()
	if !strings.Contains(s, "z") {
		t.Errorf("extra cell dropped:\n%s", s)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{4, "4"},
		{4.5, "4.500"},
		{123.456, "123.5"},
		{0.015, "0.015"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "Inf"},
		{math.Inf(-1), "-Inf"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("T", "a", "b")
	tab.AddRow("x,y", `say "hi"`)
	tab.AddRow("plain", "1.5")
	csv := tab.CSV()
	want := "a,b\n\"x,y\",\"say \"\"hi\"\"\"\nplain,1.5\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
	if tab.Title() != "T" {
		t.Errorf("Title = %q", tab.Title())
	}
}

// exactPercentile mirrors Percentile's rank definition over the raw
// samples: the ceil(p/100*n)-th smallest (1-indexed, min 1).
func exactPercentile(sorted []uint64, p float64) uint64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestHistogramPercentileProperty compares Percentile against the exact
// percentile of generated sample sets. The log2 buckets guarantee at most
// one power-of-two of error for nonzero values, results always stay
// inside the observed [Min, Max] range, and a rank landing in bucket 0
// reports exactly 0 (only zero samples live there).
func TestHistogramPercentileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gens := map[string]func(i int) uint64{
		"uniform":    func(int) uint64 { return uint64(rng.Intn(1 << 20)) },
		"powers":     func(int) uint64 { return uint64(1) << uint(rng.Intn(30)) },
		"constant":   func(int) uint64 { return 10 },
		"ones":       func(int) uint64 { return 1 },
		"heavy-tail": func(int) uint64 { return uint64(rng.Intn(8)) * uint64(rng.Intn(1<<16)) },
		"with-zeros": func(i int) uint64 {
			if i%3 == 0 {
				return 0
			}
			return uint64(1 + rng.Intn(1000))
		},
	}
	ps := []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 100}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			samples := make([]uint64, 500)
			for i := range samples {
				samples[i] = gen(i)
				h.Add(samples[i])
			}
			sorted := append([]uint64(nil), samples...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			if h.Min != sorted[0] || h.Max != sorted[len(sorted)-1] {
				t.Fatalf("Min/Max = %d/%d, want %d/%d", h.Min, h.Max, sorted[0], sorted[len(sorted)-1])
			}
			for _, p := range ps {
				got := h.Percentile(p)
				exact := exactPercentile(sorted, p)
				if got < float64(h.Min) || got > float64(h.Max) {
					t.Errorf("P%v = %v outside sample range [%d, %d]", p, got, h.Min, h.Max)
				}
				if exact == 0 {
					if got != 0 {
						t.Errorf("P%v = %v, want exactly 0 (zero-valued rank)", p, got)
					}
					continue
				}
				if got == 0 {
					t.Errorf("P%v = 0, want ~%d (nonzero rank must not report 0)", p, exact)
					continue
				}
				if ratio := got / float64(exact); ratio < 0.5 || ratio > 2 {
					t.Errorf("P%v = %v, exact %d: off by more than one power of two", p, got, exact)
				}
			}
		})
	}
}

// TestHistogramPercentileSingleValue pins the regression the Min clamp
// fixes: a histogram of identical samples must report that value exactly
// for every percentile, not an interpolated point elsewhere in its
// power-of-two bucket.
func TestHistogramPercentileSingleValue(t *testing.T) {
	for _, v := range []uint64{1, 3, 10, 1000} {
		var h Histogram
		for i := 0; i < 50; i++ {
			h.Add(v)
		}
		for _, p := range []float64{0, 50, 99, 100} {
			if got := h.Percentile(p); got != float64(v) {
				t.Errorf("all-%d histogram: P%v = %v, want %d", v, p, got, v)
			}
		}
	}
}

func TestHistogramMinTracking(t *testing.T) {
	var h Histogram
	h.Add(7)
	h.Add(3)
	h.Add(100)
	if h.Min != 3 {
		t.Errorf("Min = %d, want 3", h.Min)
	}
	var other Histogram
	other.Add(2)
	h.Merge(&other)
	if h.Min != 2 {
		t.Errorf("merged Min = %d, want 2", h.Min)
	}
	var empty Histogram
	h.Merge(&empty)
	if h.Min != 2 {
		t.Errorf("merging an empty histogram changed Min to %d", h.Min)
	}
	var fresh Histogram
	fresh.Merge(&h)
	if fresh.Min != 2 {
		t.Errorf("merge into empty: Min = %d, want 2", fresh.Min)
	}
}

// TestHistogramMergeProperty is the exactness contract Merge makes to
// Registry.MergedHistogram: splitting a sample stream across any number
// of per-core histograms and merging must reproduce, field for field,
// the histogram that saw every sample directly — including every
// percentile query. The machine-wide latency percentiles in Result
// depend on this holding exactly, not approximately.
func TestHistogramMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		parts := make([]Histogram, k)
		var direct Histogram
		n := rng.Intn(2000)
		for i := 0; i < n; i++ {
			// Mix magnitudes so samples land across many buckets,
			// including 0 (bucket 0) and wide outliers.
			v := uint64(rng.Int63()) >> uint(rng.Intn(63))
			direct.Add(v)
			parts[rng.Intn(k)].Add(v)
		}
		var merged Histogram
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if merged != direct {
			t.Fatalf("trial %d (%d samples, %d parts): merged differs from direct\nmerged: %+v\ndirect: %+v",
				trial, n, k, merged, direct)
		}
		for _, p := range []float64{0, 25, 50, 90, 95, 99, 100} {
			if mp, dp := merged.Percentile(p), direct.Percentile(p); mp != dp {
				t.Fatalf("trial %d: P%.0f = %v merged vs %v direct", trial, p, mp, dp)
			}
		}
	}
}

// TestHistogramMergeIdentities: merging an empty histogram is a no-op
// in both directions, and merge order is invisible.
func TestHistogramMergeIdentities(t *testing.T) {
	var a Histogram
	for _, v := range []uint64{3, 0, 77, 1 << 40} {
		a.Add(v)
	}
	var empty Histogram
	merged := a
	merged.Merge(&empty)
	if merged != a {
		t.Errorf("merging empty changed the histogram: %+v vs %+v", merged, a)
	}
	fromEmpty := empty
	fromEmpty.Merge(&a)
	if fromEmpty != a {
		t.Errorf("merge into empty differs from source: %+v vs %+v", fromEmpty, a)
	}
	var b Histogram
	for _, v := range []uint64{12, 5, 1 << 20} {
		b.Add(v)
	}
	ab, ba := a, b
	ab.Merge(&b)
	ba.Merge(&a)
	if ab != ba {
		t.Errorf("merge is order-sensitive:\na+b: %+v\nb+a: %+v", ab, ba)
	}
}
