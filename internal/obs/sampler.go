package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// SeriesKind selects how a series value is derived from the registry at
// each epoch boundary.
type SeriesKind uint8

const (
	// SeriesRatio is (Δsum(Num) - Δsum(Sub)) / Δsum(Den) * Scale over the
	// epoch, 0 when the denominator did not move.
	SeriesRatio SeriesKind = iota
	// SeriesPerCycle is Δsum(Num) / Δcycles * Scale over the epoch.
	SeriesPerCycle
	// SeriesGaugeSum is the instantaneous sum of a gauge across cores.
	SeriesGaugeSum
	// SeriesGaugeMean is the instantaneous mean of a gauge across cores.
	SeriesGaugeMean
)

// SeriesDef defines one derived time series over registry metrics. The
// counter name lists are summed across all label sets before the delta is
// taken, so a series is machine-wide by construction.
type SeriesDef struct {
	Name  string
	Kind  SeriesKind
	Num   []string // counter names (or the gauge name for gauge kinds)
	Sub   []string // counter names subtracted from Num (SeriesRatio only)
	Den   []string // denominator counter names (SeriesRatio only)
	Scale float64  // multiplier; 0 means 1 (use 1000 for MPKI-style series)
}

func (d *SeriesDef) scale() float64 {
	if d.Scale == 0 {
		return 1
	}
	return d.Scale
}

// compiledDef is a SeriesDef with its counter names resolved to indices
// into the sampler's interned name table, so each epoch's delta sums are
// slice walks instead of map lookups.
type compiledDef struct {
	num, sub, den []int
}

// Point is one epoch sample: the cycle it closed at and each series'
// value for the epoch, in definition order (see Sampler.Series for
// extraction by name).
type Point struct {
	Cycle  uint64
	Values []float64 // parallel to the sampler's defs
}

// Sampler snapshots derived series every epoch. Create with NewSampler,
// add series with Define, then call Tick from the simulation loop (cheap:
// one comparison per cycle) and Finish once at end of run.
//
// The per-epoch state is flat: counter names are interned into one
// ordered table at Define time, the previous/current sums live in two
// reused slices, and point values are carved from a shared growable
// arena — after warmup an epoch close performs no heap allocation.
type Sampler struct {
	reg   *Registry
	every uint64
	next  uint64
	defs  []SeriesDef
	comp  []compiledDef

	names     []string // interned counter names, in first-use order
	nameIdx   map[string]int
	prev, cur []uint64 // summed counters at the last/current epoch close
	prevCycle uint64
	points    []Point
	valStore  []float64 // arena the points' Values are carved from
}

// NewSampler builds a sampler over reg with the given epoch length.
func NewSampler(reg *Registry, every uint64) *Sampler {
	if every == 0 {
		return nil
	}
	return &Sampler{
		reg:     reg,
		every:   every,
		next:    every,
		nameIdx: make(map[string]int),
	}
}

// Define appends series definitions; nil receivers ignore the call.
func (s *Sampler) Define(defs ...SeriesDef) {
	if s == nil {
		return
	}
	for _, d := range defs {
		s.defs = append(s.defs, d)
		var c compiledDef
		if d.Kind == SeriesRatio || d.Kind == SeriesPerCycle {
			c.num = s.intern(d.Num)
			c.sub = s.intern(d.Sub)
			c.den = s.intern(d.Den)
		}
		s.comp = append(s.comp, c)
	}
	s.prev = growTo(s.prev, len(s.names))
	s.cur = growTo(s.cur, len(s.names))
}

// intern maps counter names to indices in the shared name table.
func (s *Sampler) intern(names []string) []int {
	if len(names) == 0 {
		return nil
	}
	idx := make([]int, len(names))
	for i, n := range names {
		j, ok := s.nameIdx[n]
		if !ok {
			j = len(s.names)
			s.names = append(s.names, n)
			s.nameIdx[n] = j
		}
		idx[i] = j
	}
	return idx
}

// growTo extends v with zeros to length n, preserving the prefix.
func growTo(v []uint64, n int) []uint64 {
	for len(v) < n {
		v = append(v, 0)
	}
	return v
}

// Tick samples an epoch if cycle crossed the epoch boundary. It is safe
// to call every cycle; between boundaries it is one comparison.
func (s *Sampler) Tick(cycle uint64) {
	if s == nil || cycle < s.next {
		return
	}
	s.sample(cycle)
	s.next = cycle + s.every
}

// NextTick reports the cycle of the next epoch boundary (the maximum
// uint64 for a nil sampler), so an event-driven simulation loop can
// skip idle spans without missing an epoch close.
func (s *Sampler) NextTick() uint64 {
	if s == nil {
		return ^uint64(0)
	}
	return s.next
}

// Finish closes the final partial epoch (if it saw any cycles) so short
// runs still produce at least one sample, and reports whether it did.
func (s *Sampler) Finish(cycle uint64) bool {
	if s == nil || cycle <= s.prevCycle {
		return false
	}
	s.sample(cycle)
	s.next = cycle + s.every
	return true
}

func (s *Sampler) sample(cycle uint64) {
	for i, n := range s.names {
		s.cur[i] = s.reg.Sum(n)
	}
	dsum := func(idx []int) float64 {
		var d uint64
		for _, i := range idx {
			d += s.cur[i] - s.prev[i]
		}
		return float64(d)
	}
	start := len(s.valStore)
	dcycles := float64(cycle - s.prevCycle)
	for i := range s.defs {
		d := &s.defs[i]
		var v float64
		switch d.Kind {
		case SeriesRatio:
			if den := dsum(s.comp[i].den); den > 0 {
				v = (dsum(s.comp[i].num) - dsum(s.comp[i].sub)) / den * d.scale()
			}
		case SeriesPerCycle:
			if dcycles > 0 {
				v = dsum(s.comp[i].num) / dcycles * d.scale()
			}
		case SeriesGaugeSum:
			if len(d.Num) > 0 {
				v = s.reg.GaugeSum(d.Num[0]) * d.scale()
			}
		case SeriesGaugeMean:
			if len(d.Num) > 0 {
				v = s.reg.GaugeMean(d.Num[0]) * d.scale()
			}
		}
		s.valStore = append(s.valStore, v)
	}
	// Carve this epoch's values with a full-slice expression: later arena
	// growth either reallocates (earlier points keep their old backing
	// arrays, data intact) or appends past this point's capacity — either
	// way the carved view is immutable.
	s.points = append(s.points, Point{Cycle: cycle, Values: s.valStore[start:len(s.valStore):len(s.valStore)]})
	s.prev, s.cur = s.cur, s.prev
	s.prevCycle = cycle
}

// Points returns the recorded samples.
func (s *Sampler) Points() []Point {
	if s == nil {
		return nil
	}
	return s.points
}

// Series extracts one named series in epoch order; nil when the name was
// never defined.
func (s *Sampler) Series(name string) []float64 {
	if s == nil {
		return nil
	}
	di := -1
	for i := range s.defs {
		if s.defs[i].Name == name {
			di = i
			break
		}
	}
	if di < 0 {
		return nil
	}
	out := make([]float64, 0, len(s.points))
	for _, p := range s.points {
		out = append(out, p.Values[di])
	}
	return out
}

// WriteJSONL writes one JSON object per epoch: the meta key/values (run
// identity etc.), the cycle, and every series value. A key that occurs
// twice keeps its last value in that order, and encoding/json sorts the
// keys, so the output is deterministic. Values are finite by
// construction (zero-guarded ratios), which keeps the lines valid JSON.
func (s *Sampler) WriteJSONL(w io.Writer, meta map[string]string) error {
	if s == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	// Every point has the same keys, so one map serves them all.
	line := make(map[string]any, len(meta)+1+len(s.defs))
	for k, v := range meta {
		line[k] = v
	}
	for _, p := range s.points {
		line["cycle"] = p.Cycle
		for i := range s.defs {
			line[s.defs[i].Name] = p.Values[i]
		}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("obs: marshal sample at cycle %d: %w", p.Cycle, err)
		}
	}
	return nil
}
