package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/simerr"
	"mtprefetch/internal/stats"
)

// SpanStage is one leg of the per-request latency decomposition. The
// five stages telescope: their durations sum to the request's
// end-to-end latency (issue to fill), which is the conservation
// identity CheckConservation enforces per span.
type SpanStage uint8

const (
	// StageMRQ: smcore issue until the request leaves the MRQ send
	// queue — intra-core queueing, including the enqueue wait.
	StageMRQ SpanStage = iota
	// StageNoCReq: NoC transit of the request, inject to delivery at
	// the memory side (includes inject-budget stalls, which happen
	// before the dequeue stamp, so this is pure link latency).
	StageNoCReq
	// StageDRAMQueue: delivery until the FR-FCFS scheduler picks the
	// request (for inter-core-merge riders, until the carrying entry's
	// data is done — riders are never scheduled themselves).
	StageDRAMQueue
	// StageDRAMService: scheduling until the data leaves the channel —
	// bank-ready wait, row activate, and data bus.
	StageDRAMService
	// StageNoCResp: response NoC transit plus response-queue wait,
	// until the core fills.
	StageNoCResp
	NumSpanStages
)

var spanStageNames = [NumSpanStages]string{
	"mrq", "noc_req", "dram_queue", "dram_service", "noc_resp",
}

func (s SpanStage) String() string {
	if s < NumSpanStages {
		return spanStageNames[s]
	}
	return "unknown"
}

// DefaultSpanEvery is the sampling divisor when the config leaves it
// zero: roughly one in 32 requests carries a span.
const DefaultSpanEvery = 32

// spanSeed salts the sampling hash so the selection is not correlated
// with any power-of-two structure in warp ids or sequence numbers.
const spanSeed = 0x6d74707265665370

// spanMix is the splitmix64 finalizer: a cheap, well-distributed
// deterministic mixer with no process-level state.
func spanMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SpanHash is the deterministic sampling hash over a request's identity
// (core, global warp id, per-core issue sequence). All three inputs are
// properties of the simulated machine, never of the host: the selection
// is identical across -j and cycle skipping.
func SpanHash(core, warp int, seq uint64) uint64 {
	h := spanMix(spanSeed ^ uint64(uint32(core)))
	h = spanMix(h ^ uint64(uint32(warp)))
	h = spanMix(h ^ seq)
	return h
}

// SpanSampled reports whether the request identified by (core, warp,
// seq) is selected at a 1-in-every sampling rate.
func SpanSampled(core, warp int, seq, every uint64) bool {
	return SpanHash(core, warp, seq)%every == 0
}

// SpanID builds the globally unique span id; the JSONL export sorts by
// it, and the sampler keys on the same (core, sequence) pair.
func SpanID(core int, seq uint64) uint64 {
	return uint64(core)<<40 | seq
}

// SpanRec is one finished span, copied out of the request at its
// terminal so the record survives request recycling.
type SpanRec struct {
	ID     uint64
	Core   int32
	Warp   int32
	PC     int32
	Kind   memreq.Kind
	Source memreq.Source
	Term   memreq.SpanTerminal
	Flags  uint8
	Seen   uint16
	End    uint64 // cycle of the terminal
	Stamp  [memreq.NumSpanSites]uint64
}

func (r *SpanRec) has(site memreq.SpanSite) bool {
	return r.Seen&(1<<site) != 0
}

// sub is a saturating subtraction: a malformed span (missing stamp)
// must not wrap into a huge duration while being reported.
func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Stages decomposes a filled span into per-stage durations and the
// end-to-end total. For non-fill terminals every stage is zero and the
// total is the issue-to-terminal distance.
func (r *SpanRec) Stages() (st [NumSpanStages]uint64, total uint64) {
	total = sub(r.End, r.Stamp[memreq.SpanIssue])
	if r.Term != memreq.TermFill {
		return st, total
	}
	st[StageMRQ] = sub(r.Stamp[memreq.SpanMRQDequeue], r.Stamp[memreq.SpanIssue])
	st[StageNoCReq] = sub(r.Stamp[memreq.SpanNoCReqDeliver], r.Stamp[memreq.SpanMRQDequeue])
	if r.Flags&memreq.FlagDRAMMerged != 0 {
		st[StageDRAMQueue] = sub(r.Stamp[memreq.SpanDRAMDone], r.Stamp[memreq.SpanNoCReqDeliver])
	} else {
		st[StageDRAMQueue] = sub(r.Stamp[memreq.SpanDRAMSched], r.Stamp[memreq.SpanNoCReqDeliver])
		st[StageDRAMService] = sub(r.Stamp[memreq.SpanDRAMDone], r.Stamp[memreq.SpanDRAMSched])
	}
	st[StageNoCResp] = sub(r.Stamp[memreq.SpanFill], r.Stamp[memreq.SpanDRAMDone])
	return st, total
}

// row renders the row-buffer outcome flag, "" when none applies (L2
// hits and merge riders never touch a bank).
func (r *SpanRec) row() string {
	switch {
	case r.Flags&memreq.FlagRowHit != 0:
		return "hit"
	case r.Flags&memreq.FlagRowClosed != 0:
		return "closed"
	case r.Flags&memreq.FlagRowMiss != 0:
		return "miss"
	}
	return ""
}

// SpanSet aggregates the spans of one run. Like every obs component it
// is nil-safe: a nil *SpanSet accepts every call and does nothing, so
// the instrumented hot paths pay one predictable branch when spans are
// off. The mutex serializes the
// sampled-path mutations against the debug server's live /spans reads;
// unsampled requests never touch it.
type SpanSet struct {
	every uint64

	mu       sync.Mutex
	started  uint64
	finished uint64
	rows     [memreq.NumSources]SpanRow
	recs     []SpanRec
	err      error // first malformed span, surfaced by CheckConservation
}

// SpanRow is one source's line of the latency waterfall: how its sampled
// requests terminated and, over its fills, the cycles each stage took and
// the end-to-end latency distribution. A SpanSet keeps one per source;
// cmd/mtstat rebuilds them from "span" records, and both render through
// WriteWaterfall.
type SpanRow struct {
	terms [memreq.NumSpanTerminals]uint64
	stage [NumSpanStages]uint64 // cycle sums over fills
	total stats.Histogram       // end-to-end latency of fills
}

// Add records one span's terminal and, for a fill, its stage durations
// and end-to-end latency.
func (r *SpanRow) Add(term memreq.SpanTerminal, st [NumSpanStages]uint64, total uint64) {
	r.terms[term]++
	if term != memreq.TermFill {
		return
	}
	for i, d := range st {
		r.stage[i] += d
	}
	r.total.Add(total)
}

// terminals sums the row's terminal counts.
func (r *SpanRow) terminals() uint64 {
	var n uint64
	for _, c := range r.terms {
		n += c
	}
	return n
}

// NewSpanSet builds an empty set sampling one in every requests (0
// means DefaultSpanEvery).
func NewSpanSet(every uint64) *SpanSet {
	if every == 0 {
		every = DefaultSpanEvery
	}
	return &SpanSet{every: every}
}

// Enabled reports whether span tracing is active.
func (ss *SpanSet) Enabled() bool { return ss != nil }

// Start runs the sampling decision for a just-created request and, when
// selected, attaches a span stamped at SpanIssue. seq is the core-local
// candidate sequence number (every demand and prefetch request the core
// creates, counted in issue order), which makes the decision
// independent of host-side execution order.
func (ss *SpanSet) Start(r *memreq.Request, seq, cycle uint64) {
	if ss == nil {
		return
	}
	if !SpanSampled(r.CoreID, r.WarpID, seq, ss.every) {
		return
	}
	sp := &memreq.Span{ID: SpanID(r.CoreID, seq)}
	sp.StampAt(memreq.SpanIssue, cycle)
	r.Span = sp
	ss.mu.Lock()
	ss.started++
	ss.mu.Unlock()
}

// Finish records the span's terminal, validates it, and detaches it
// from the request (so recycling cannot double-finish). Requests
// without a span are ignored.
func (ss *SpanSet) Finish(r *memreq.Request, cycle uint64, term memreq.SpanTerminal) {
	if ss == nil || r == nil || r.Span == nil {
		return
	}
	sp := r.Span
	r.Span = nil
	rec := SpanRec{
		ID:   sp.ID,
		Core: int32(r.CoreID), Warp: int32(r.WarpID), PC: int32(r.PC),
		Kind: r.Kind, Term: term, Flags: sp.Flags, Seen: sp.Seen,
		End: cycle, Stamp: sp.Stamp,
	}
	if r.WasPrefetch {
		rec.Source = r.Prov.Source
	}
	var verr error
	if sp.Term != memreq.TermNone {
		verr = &simerr.InvariantError{
			Component: "spans", Name: "single-terminal", Cycle: cycle,
			Detail: fmt.Sprintf("span %#x reached %s after %s", sp.ID, term, sp.Term),
		}
	} else {
		verr = checkSpan(&rec)
	}
	sp.Term = term

	ss.mu.Lock()
	ss.finished++
	if verr != nil {
		// Counted as terminated, but kept out of the stage statistics.
		ss.rows[rec.Source].terms[term]++
	} else {
		st, total := rec.Stages()
		ss.rows[rec.Source].Add(term, st, total)
	}
	ss.recs = append(ss.recs, rec)
	if ss.err == nil {
		ss.err = verr
	}
	ss.mu.Unlock()
}

// checkSpan validates one finished span: the sites its path variant
// requires are all present, the present stamps are monotone in
// lifecycle order, and (for fills) the stage durations sum exactly to
// the end-to-end latency.
func checkSpan(rec *SpanRec) error {
	bad := func(name, format string, args ...any) error {
		return &simerr.InvariantError{
			Component: "spans", Name: name, Cycle: rec.End,
			Detail: fmt.Sprintf("span %#x (core %d warp %d): %s",
				rec.ID, rec.Core, rec.Warp, fmt.Sprintf(format, args...)),
		}
	}
	if !rec.has(memreq.SpanIssue) {
		return bad("missing-stamp", "no %s stamp", memreq.SpanIssue)
	}
	switch rec.Term {
	case memreq.TermFill:
		required := []memreq.SpanSite{
			memreq.SpanIssue, memreq.SpanMRQEnqueue, memreq.SpanMRQDequeue,
			memreq.SpanNoCReqInject, memreq.SpanNoCReqDeliver, memreq.SpanDRAMArrive,
			memreq.SpanDRAMDone, memreq.SpanNoCRespInject, memreq.SpanNoCRespDeliver,
			memreq.SpanFill,
		}
		merged := rec.Flags&memreq.FlagDRAMMerged != 0
		l2 := rec.Flags&memreq.FlagL2Hit != 0
		if !merged {
			required = append(required, memreq.SpanDRAMSched)
			if !l2 {
				required = append(required, memreq.SpanDRAMActivate)
			}
		}
		for _, site := range required {
			if !rec.has(site) {
				return bad("missing-stamp", "filled with no %s stamp (flags %#x)", site, rec.Flags)
			}
		}
	case memreq.TermMRQMerged, memreq.TermMRQRejected:
		// The request died at the MRQ door: it must not have been
		// accepted (and certainly never travelled further).
		if rec.Seen != 1<<memreq.SpanIssue {
			return bad("excess-stamp", "%s terminal but stamps beyond issue (seen %#x)",
				rec.Term, rec.Seen)
		}
	case memreq.TermDropped:
		// Fault injection can drop the response anywhere past issue; no
		// further sites are required.
	default:
		return bad("no-terminal", "finished with terminal %d", rec.Term)
	}
	// Monotonicity over the present sites in lifecycle (enum) order.
	var prev uint64
	var prevSite memreq.SpanSite
	seen := false
	for site := memreq.SpanSite(0); site < memreq.NumSpanSites; site++ {
		if !rec.has(site) {
			continue
		}
		if seen && rec.Stamp[site] < prev {
			return bad("stamp-order", "%s@%d before %s@%d",
				site, rec.Stamp[site], prevSite, prev)
		}
		prev, prevSite, seen = rec.Stamp[site], site, true
	}
	if rec.End < prev {
		return bad("stamp-order", "terminal %s@%d before %s@%d", rec.Term, rec.End, prevSite, prev)
	}
	if rec.Term == memreq.TermFill {
		st, total := rec.Stages()
		var sum uint64
		for _, d := range st {
			sum += d
		}
		if sum != total {
			return bad("stage-conservation", "stages sum to %d but end-to-end is %d", sum, total)
		}
	}
	return nil
}

// Started reports how many requests were sampled.
func (ss *SpanSet) Started() uint64 {
	if ss == nil {
		return 0
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.started
}

// Finished reports how many sampled requests reached a terminal.
func (ss *SpanSet) Finished() uint64 {
	if ss == nil {
		return 0
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.finished
}

// Records returns the finished spans sorted by id — the canonical order
// of the JSONL and flow-event exporters, independent of the order in
// which requests happened to terminate.
func (ss *SpanSet) Records() []SpanRec {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	out := make([]SpanRec, len(ss.recs))
	copy(out, ss.recs)
	ss.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CheckConservation verifies the run-level span ledger: every malformed
// span recorded during the run surfaces here, and — when the run
// drained — every sampled request reached exactly one terminal
// (started == finished). A run stopped at MaxCycles legitimately has
// in-flight spans, so drained=false only checks that terminals never
// exceed starts. It returns nil when spans are disabled.
func (ss *SpanSet) CheckConservation(cycle uint64, drained bool) error {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.err != nil {
		return ss.err
	}
	if ss.finished > ss.started {
		return &simerr.InvariantError{
			Component: "spans", Name: "span-conservation", Cycle: cycle,
			Detail: fmt.Sprintf("%d spans finished but only %d started", ss.finished, ss.started),
		}
	}
	if drained && ss.started != ss.finished {
		return &simerr.InvariantError{
			Component: "spans", Name: "span-conservation", Cycle: cycle,
			Detail: fmt.Sprintf("drained with %d spans started but %d finished",
				ss.started, ss.finished),
		}
	}
	return nil
}

// SpanRecord is the JSONL schema of one finished span, the "span" line;
// field order is the wire order.
type SpanRecord struct {
	Record      string `json:"record"`
	Run         string `json:"run,omitempty"`
	ID          uint64 `json:"id"`
	Core        int32  `json:"core"`
	Warp        int32  `json:"warp"`
	PC          int32  `json:"pc"`
	Kind        string `json:"kind"`
	Source      string `json:"source"`
	Terminal    string `json:"terminal"`
	Issue       uint64 `json:"issue"`
	MRQ         uint64 `json:"mrq"`
	NoCReq      uint64 `json:"noc_req"`
	DRAMQueue   uint64 `json:"dram_queue"`
	DRAMService uint64 `json:"dram_service"`
	NoCResp     uint64 `json:"noc_resp"`
	Total       uint64 `json:"total"`
	DRAMMerged  bool   `json:"dram_merged,omitempty"`
	L2Hit       bool   `json:"l2_hit,omitempty"`
	Row         string `json:"row,omitempty"`
}

// Stages returns the record's stage durations indexed by SpanStage.
func (r *SpanRecord) Stages() [NumSpanStages]uint64 {
	return [NumSpanStages]uint64{r.MRQ, r.NoCReq, r.DRAMQueue, r.DRAMService, r.NoCResp}
}

// spanSummary is the JSONL schema of the per-source trailer: terminal
// counts, stage cycle sums (the waterfall numerators), and end-to-end
// percentiles.
type spanSummary struct {
	Record      string  `json:"record"`
	Run         string  `json:"run,omitempty"`
	Source      string  `json:"source"`
	Fills       uint64  `json:"fills"`
	MRQMerged   uint64  `json:"mrq_merged"`
	MRQRejected uint64  `json:"mrq_rejected"`
	Dropped     uint64  `json:"dropped"`
	MRQ         uint64  `json:"mrq"`
	NoCReq      uint64  `json:"noc_req"`
	DRAMQueue   uint64  `json:"dram_queue"`
	DRAMService uint64  `json:"dram_service"`
	NoCResp     uint64  `json:"noc_resp"`
	Total       uint64  `json:"total"`
	P50         float64 `json:"p50"`
	P95         float64 `json:"p95"`
	P99         float64 `json:"p99"`
}

// WriteJSONL emits one "span" line per finished span, sorted by id,
// then one "spansummary" trailer per source that saw any terminal, all
// tagged with the run key.
func (ss *SpanSet) WriteJSONL(w io.Writer, run string) error {
	if ss == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, rec := range ss.Records() {
		st, total := rec.Stages()
		out := SpanRecord{
			Record: "span", Run: run, ID: rec.ID,
			Core: rec.Core, Warp: rec.Warp, PC: rec.PC,
			Kind:        rec.Kind.String(),
			Source:      rec.Source.String(),
			Terminal:    rec.Term.String(),
			Issue:       rec.Stamp[memreq.SpanIssue],
			MRQ:         st[StageMRQ],
			NoCReq:      st[StageNoCReq],
			DRAMQueue:   st[StageDRAMQueue],
			DRAMService: st[StageDRAMService],
			NoCResp:     st[StageNoCResp],
			Total:       total,
			DRAMMerged:  rec.Flags&memreq.FlagDRAMMerged != 0,
			L2Hit:       rec.Flags&memreq.FlagL2Hit != 0,
			Row:         rec.row(),
		}
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for s := memreq.Source(0); s < memreq.NumSources; s++ {
		r := &ss.rows[s]
		if r.terminals() == 0 {
			continue
		}
		sum := spanSummary{
			Record: "spansummary", Run: run, Source: s.String(),
			Fills:       r.terms[memreq.TermFill],
			MRQMerged:   r.terms[memreq.TermMRQMerged],
			MRQRejected: r.terms[memreq.TermMRQRejected],
			Dropped:     r.terms[memreq.TermDropped],
			MRQ:         r.stage[StageMRQ],
			NoCReq:      r.stage[StageNoCReq],
			DRAMQueue:   r.stage[StageDRAMQueue],
			DRAMService: r.stage[StageDRAMService],
			NoCResp:     r.stage[StageNoCResp],
			Total:       r.total.Sum,
			P50:         r.total.Percentile(50),
			P95:         r.total.Percentile(95),
			P99:         r.total.Percentile(99),
		}
		if err := enc.Encode(sum); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders the run's latency waterfall (WriteWaterfall) over
// every source that saw a terminal. It locks the set, so the debug
// server can render a live snapshot mid-run.
func (ss *SpanSet) WriteTable(w io.Writer) error {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	rows := make(map[string]*SpanRow)
	for s := memreq.Source(0); s < memreq.NumSources; s++ {
		if r := &ss.rows[s]; r.terminals() > 0 {
			rows[s.String()] = r
		}
	}
	return WriteWaterfall(w, rows)
}

// WriteWaterfall renders the latency waterfall: one row per source,
// sorted by name, with its terminal counts, the mean end-to-end latency
// of its fills, each stage's share of the filled cycles, and the
// latency percentiles.
func WriteWaterfall(w io.Writer, rows map[string]*SpanRow) error {
	if _, err := fmt.Fprintf(w, "%-10s %8s %7s %7s %7s %9s %7s %8s %8s %9s %9s %8s %8s %8s\n",
		"source", "fills", "merged", "reject", "dropped", "avgtotal",
		"mrq%", "nocreq%", "dramq%", "dramsvc%", "nocresp%", "p50", "p95", "p99"); err != nil {
		return err
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rows[name]
		t := &r.total
		if _, err := fmt.Fprintf(w, "%-10s %8d %7d %7d %7d %9.1f %7s %8s %8s %9s %9s %8.1f %8.1f %8.1f\n",
			name, r.terms[memreq.TermFill], r.terms[memreq.TermMRQMerged],
			r.terms[memreq.TermMRQRejected], r.terms[memreq.TermDropped], t.Avg(),
			pctStr(r.stage[StageMRQ], t.Sum), pctStr(r.stage[StageNoCReq], t.Sum),
			pctStr(r.stage[StageDRAMQueue], t.Sum), pctStr(r.stage[StageDRAMService], t.Sum),
			pctStr(r.stage[StageNoCResp], t.Sum),
			t.Percentile(50), t.Percentile(95), t.Percentile(99)); err != nil {
			return err
		}
	}
	return nil
}

// pctStr formats a/b as a percentage to one decimal, "-" for an empty
// denominator.
func pctStr(a, b uint64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(a)/float64(b)*100)
}
