package prefetch

// PollutionFilter is a hardware cache-pollution filter in the style of
// Zhuang & Lee [35] (discussed in the paper's Section X-B): a small table
// of saturating counters, indexed by the PC that generated a prefetch,
// classifying prefetches as good or bad from their observed outcomes.
// Prefetches from a PC whose recent history is dominated by early
// evictions are dropped before they reach the memory system.
//
// It composes with any Prefetcher: the core consults Allow before issuing
// a candidate and reports outcomes with RecordUseful/RecordEarly.
type PollutionFilter struct {
	tab       *table[int, int8]
	badThresh int8
	max       int8

	blocked uint64
}

// NewPollutionFilter builds a filter with the given table capacity
// (default 512 entries).
func NewPollutionFilter(capacity int) *PollutionFilter {
	if capacity == 0 {
		capacity = 512
	}
	return &PollutionFilter{
		tab:       newTable[int, int8](capacity),
		badThresh: 2,
		max:       3,
	}
}

// Allow reports whether a prefetch generated at pc should be issued.
func (f *PollutionFilter) Allow(pc int) bool {
	if v, ok := f.tab.peek(pc); ok && *v >= f.badThresh {
		f.blocked++
		return false
	}
	return true
}

// RecordEarly notes that a prefetch from pc was evicted before use.
func (f *PollutionFilter) RecordEarly(pc int) {
	v, ok := f.tab.get(pc)
	if !ok {
		v, _ = f.tab.put(pc, 0)
	}
	if *v < f.max {
		*v++
	}
}

// RecordUseful notes that a prefetch from pc served a demand.
func (f *PollutionFilter) RecordUseful(pc int) {
	if v, ok := f.tab.get(pc); ok && *v > 0 {
		*v--
	}
}

// Blocked reports how many candidates the filter dropped.
func (f *PollutionFilter) Blocked() uint64 { return f.blocked }
