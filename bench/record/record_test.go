package record

import "testing"

// TestQuartilesMatchPython pins record.Quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, m, q3 := Quartiles(tc.xs)
		if got := [3]float64{q1, m, q3}; got != tc.want {
			t.Errorf("Quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
