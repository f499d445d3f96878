package memreq

// SpanSite is one lifecycle point a sampled request passes on its way
// from SM issue to fill. The enum order IS the chronological order of a
// request that reaches DRAM and returns, which lets validation walk the
// stamp array once and check monotonicity.
type SpanSite uint8

const (
	SpanIssue          SpanSite = iota // smcore creates the request
	SpanMRQEnqueue                     // accepted into the core's MRQ
	SpanMRQDequeue                     // popped from the MRQ send queue
	SpanNoCReqInject                   // request injected into the NoC
	SpanNoCReqDeliver                  // request delivered at the memory side
	SpanDRAMArrive                     // accepted into a DRAM channel queue (or merged)
	SpanDRAMSched                      // picked by the FR-FCFS scheduler
	SpanDRAMActivate                   // bank begins service (post bank-ready wait)
	SpanDRAMDone                       // data leaves the channel (retire)
	SpanNoCRespInject                  // response injected into the NoC
	SpanNoCRespDeliver                 // response delivered at the core side
	SpanFill                           // smcore fills the MRQ entry / wakes waiters
	NumSpanSites
)

var spanSiteNames = [NumSpanSites]string{
	"issue", "mrq_enqueue", "mrq_dequeue", "noc_req_inject",
	"noc_req_deliver", "dram_arrive", "dram_sched", "dram_activate",
	"dram_done", "noc_resp_inject", "noc_resp_deliver", "fill",
}

func (s SpanSite) String() string {
	if s < NumSpanSites {
		return spanSiteNames[s]
	}
	return "unknown"
}

// Span flags record path variants that change which sites are expected.
const (
	FlagDRAMMerged uint8 = 1 << iota // rider of an inter-core DRAM merge: never scheduled itself
	FlagRowHit
	FlagRowClosed
	FlagRowMiss
)

// SpanTerminal is the single exit every sampled request must reach.
type SpanTerminal uint8

const (
	TermNone        SpanTerminal = iota // still in flight
	TermFill                            // normal completion at the core
	TermMRQMerged                       // died merging into an existing MRQ entry
	TermMRQRejected                     // bounced off a full MRQ (prefetches only)
	TermDropped                         // response dropped by fault injection
	NumSpanTerminals
)

var spanTermNames = [NumSpanTerminals]string{
	"none", "fill", "mrq_merged", "mrq_rejected", "dropped",
}

func (t SpanTerminal) String() string {
	if t < NumSpanTerminals {
		return spanTermNames[t]
	}
	return "unknown"
}

// Span is the compact per-request trace record carried by sampled
// requests. It is heap-allocated only for sampled requests (spans-on
// cost); requests recycled through Pool have the pointer cleared by
// Get's struct-literal reset, so a stale span can never leak into a
// reused request.
type Span struct {
	ID    uint64               // core<<40 | per-core sequence; globally unique, the export sort key
	Stamp [NumSpanSites]uint64 // cycle of each visited site
	Seen  uint16               // bitmask of visited sites (cycle 0 is a valid stamp)
	Flags uint8
	Term  SpanTerminal
}

// StampAt records a visit to site at the given cycle.
func (s *Span) StampAt(site SpanSite, cycle uint64) {
	s.Stamp[site] = cycle
	s.Seen |= 1 << site
}

// Has reports whether site has been stamped.
func (s *Span) Has(site SpanSite) bool { return s.Seen&(1<<site) != 0 }

// StampSpan stamps the request's span, if it carries one. The nil check
// is the entire spans-off cost at every lifecycle site.
func (r *Request) StampSpan(site SpanSite, cycle uint64) {
	if r.Span != nil {
		r.Span.StampAt(site, cycle)
	}
}

// SpanFlag sets a path-variant flag on the request's span, if any.
func (r *Request) SpanFlag(f uint8) {
	if r.Span != nil {
		r.Span.Flags |= f
	}
}
