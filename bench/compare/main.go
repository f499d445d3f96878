// Command compare applies the benchmark's decision rules to two sets of
// run records (bench -json): a baseline A and a candidate B, each one or
// more runs per workload. Run i of a workload in A is paired with run i
// of the same workload in B; alternate the two sides when collecting.
//
//	go run ./compare A.jsonl B.jsonl
//
// For every (workload, metric) it prints each side's median and
// quartiles, the share of pairs B wins, and a verdict:
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  the paired runs disagree by more than the bound: the
//	            interquartile range of the ratios B_i / A_i, over their
//	            median, is wider than the bound, and neither side beats
//	            the other on every run
//	better      B wins at least 9 of 10 pairs and its median differs by
//	            more than A's interquartile range
//	same        none of the above
//	differs     an exact count is not identical between paired runs of
//	            the same seed
//
// Per-layer metrics other than exact counts have no bound and get no
// verdict. compare exits 1 when any verdict is worse, unresolved or
// differs.
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"mtprefetch/bench/record"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare A.jsonl B.jsonl")
		os.Exit(2)
	}
	a, err := record.Read(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	b, err := record.Read(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if !report(os.Stdout, compare(a, b)) {
		os.Exit(1)
	}
}

// row is one (workload, metric) comparison.
type row struct {
	workload, metric, unit string
	a, b                   [3]float64 // q1, median, q3
	pairs, wins            int
	verdict                string
}

// compare pairs the runs of each workload and judges every metric both
// sides report.
func compare(a, b []*record.Run) []row {
	byWorkload := func(runs []*record.Run) map[string][]*record.Run {
		m := map[string][]*record.Run{}
		for _, r := range runs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	as, bs := byWorkload(a), byWorkload(b)
	var workloads []string
	for w := range as {
		if _, ok := bs[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	var rows []row
	for _, w := range workloads {
		ra, rb := as[w], bs[w]
		var metrics []string
		for name := range ra[0].Metrics {
			if _, ok := rb[0].Metrics[name]; ok {
				metrics = append(metrics, name)
			}
		}
		sort.Strings(metrics)
		for _, name := range metrics {
			rows = append(rows, judge(w, name, ra, rb))
		}
	}
	return rows
}

// judge compares one metric of one workload.
func judge(workload, name string, ra, rb []*record.Run) row {
	def := ra[0].Metrics[name]
	values := func(runs []*record.Run) []float64 {
		var xs []float64
		for _, r := range runs {
			if m, ok := r.Metrics[name]; ok {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	xa, xb := values(ra), values(rb)
	r := row{workload: workload, metric: name, unit: def.Unit, pairs: min(len(xa), len(xb))}
	r.a[0], r.a[1], r.a[2] = record.Quartiles(xa)
	r.b[0], r.b[1], r.b[2] = record.Quartiles(xb)
	beats := func(x, y float64) bool {
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := 0; i < r.pairs; i++ {
		if beats(xb[i], xa[i]) {
			r.wins++
		}
	}
	switch {
	case def.Exact:
		r.verdict = "same"
		for i := 0; i < min(len(ra), len(rb)); i++ {
			if ra[i].Seed == rb[i].Seed && ra[i].Metrics[name].Value != rb[i].Metrics[name].Value {
				r.verdict = "differs"
			}
		}
	case def.Bound > 0:
		r.verdict = decide(r, xa, xb, def.Bound, beats)
	}
	return r
}

// decide applies the decision rules to an end-to-end metric; beats(x, y)
// reports whether value x is better than value y.
func decide(r row, xa, xb []float64, bound float64, beats func(x, y float64) bool) string {
	// The worst median B may have: A's median moved by the bound in the
	// metric's bad direction.
	limit := r.a[1] * (1 + bound)
	if beats(limit, r.a[1]) {
		limit = r.a[1] * (1 - bound)
	}
	if beats(limit, r.b[1]) {
		return "worse"
	}
	dominates := func(x, y []float64) bool { // every run of x beats every run of y
		for _, a := range x {
			for _, b := range y {
				if !beats(a, b) {
					return false
				}
			}
		}
		return true
	}
	// Pairs share the host's state, so the spread that decides is that
	// of the paired ratios: a drift that moves both runs of a pair alike
	// cancels, the disagreement within pairs does not.
	ratios := make([]float64, r.pairs)
	for i := range ratios {
		ratios[i] = xb[i] / xa[i]
	}
	q1, med, q3 := record.Quartiles(ratios)
	if (q3-q1)/med > bound && !dominates(xa, xb) && !dominates(xb, xa) {
		return "unresolved"
	}
	if r.pairs > 0 && 10*r.wins >= 9*r.pairs && math.Abs(r.b[1]-r.a[1]) > r.a[2]-r.a[0] {
		return "better"
	}
	return "same"
}

// report prints the rows and tells whether all of them pass.
func report(w io.Writer, rows []row) bool {
	ok := true
	fmt.Fprintf(w, "%-15s %-30s %-9s %-38s %-38s %-6s %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, r := range rows {
		side := func(q [3]float64) string { return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2]) }
		wins := fmt.Sprintf("%d/%d", r.wins, r.pairs)
		fmt.Fprintf(w, "%-15s %-30s %-9s %-38s %-38s %-6s %s\n",
			r.workload, r.metric, r.unit, side(r.a), side(r.b), wins, r.verdict)
		switch r.verdict {
		case "worse", "unresolved", "differs":
			ok = false
		}
	}
	return ok
}
