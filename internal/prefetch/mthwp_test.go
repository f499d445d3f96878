package prefetch

import (
	"testing"

	"mtprefetch/internal/memreq"
)

func TestMTHWPPWSTraining(t *testing.T) {
	p := NewMTHWP(MTHWPOptions{})
	out := trainAddrs(p, 0x1a, 1, 0, 1000, 2000)
	if len(out) != 1 || out[0] != 3000 {
		t.Fatalf("PWS prefetch = %v, want [3000]", out)
	}
	s := p.Stats()
	if s.PWSHits != 1 || s.GSHits != 0 || s.IPHits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestMTHWPStridePromotion exercises the GS table: once three warps agree
// on a stride for a PC, a fourth (yet-untrained) warp prefetches
// immediately from the GS table without any PWS access.
func TestMTHWPStridePromotion(t *testing.T) {
	p := NewMTHWP(MTHWPOptions{EnableGS: true})
	// Three warps each train the same 1000-byte stride (Fig. 5 left).
	for w := 1; w <= 3; w++ {
		base := uint64(w * 10)
		trainAddrs(p, 0x1a, w, base, base+1000, base+2000)
	}
	if got := p.Stats().Promotions; got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}
	pwsBefore := p.Stats().PWSAccesses
	// Warp 4 has never been seen; its very first access must prefetch.
	var out []Candidate
	out = p.Observe(Train{PC: 0x1a, WarpID: 4, Addr: 40, Footprint: fp}, out)
	if len(out) != 1 || out[0].Addr != 1040 {
		t.Fatalf("GS prefetch = %v, want [1040]", out)
	}
	if out[0].Source != memreq.SrcGS {
		t.Errorf("GS prefetch source = %v, want gs", out[0].Source)
	}
	s := p.Stats()
	if s.GSHits != 1 {
		t.Errorf("GSHits = %d, want 1", s.GSHits)
	}
	if s.PWSAccesses != pwsBefore {
		t.Errorf("GS hit performed a PWS access (%d -> %d)", pwsBefore, s.PWSAccesses)
	}
}

func TestMTHWPNoPromotionOnDisagreement(t *testing.T) {
	p := NewMTHWP(MTHWPOptions{EnableGS: true})
	strides := []uint64{1000, 2000, 3000, 4000}
	for w := 1; w <= 4; w++ {
		s := strides[w-1]
		trainAddrs(p, 0x1a, w, 0, s, 2*s)
	}
	if got := p.Stats().Promotions; got != 0 {
		t.Errorf("Promotions = %d, want 0 (strides differ across warps)", got)
	}
}

// TestMTHWPInterThread exercises the IP table on the mp-type pattern:
// loop-free kernels where warp w touches base + w*128 at one PC. No
// per-warp stride exists (each warp accesses the PC once), but the
// cross-warp stride is constant.
func TestMTHWPInterThread(t *testing.T) {
	p := NewMTHWP(MTHWPOptions{EnableIP: true})
	var out []Candidate
	// Warps 1,2,3 arrive in order; per-warp stride never trains.
	for w := 1; w <= 3; w++ {
		out = p.Observe(Train{PC: 7, WarpID: w, Addr: uint64(w * 128), Footprint: fp}, out[:0])
	}
	// After three consistent accesses the IP stride (128/warp) is trained;
	// warp 3's access prefetches for warp 4.
	if len(out) != 1 || out[0].Addr != 512 {
		t.Fatalf("IP prefetch = %v, want [512]", out)
	}
	if out[0].Source != memreq.SrcHWIP {
		t.Errorf("IP prefetch source = %v, want hw-ip", out[0].Source)
	}
	if got := p.Stats().IPHits; got != 1 {
		t.Errorf("IPHits = %d, want 1", got)
	}
}

func TestMTHWPInterThreadOutOfOrderWarps(t *testing.T) {
	p := NewMTHWP(MTHWPOptions{EnableIP: true})
	var out []Candidate
	// Warps arrive 2, 5, 9: deltas 3 and 4 warps, addresses consistent
	// with 128 bytes/warp.
	for _, w := range []int{2, 5, 9} {
		out = p.Observe(Train{PC: 7, WarpID: w, Addr: uint64(w * 128), Footprint: fp}, out[:0])
	}
	if len(out) != 1 || out[0].Addr != uint64(10*128) {
		t.Fatalf("IP prefetch = %v, want [1280]", out)
	}
}

func TestMTHWPIPDisabledWithoutFlag(t *testing.T) {
	p := NewMTHWP(MTHWPOptions{})
	var out []Candidate
	for w := 1; w <= 5; w++ {
		out = p.Observe(Train{PC: 7, WarpID: w, Addr: uint64(w * 128), Footprint: fp}, out)
	}
	if len(out) != 0 {
		t.Errorf("PWS-only config generated IP prefetches: %v", out)
	}
}

// TestMTHWPPWSPriorityOverIP: for stride-type access patterns both PWS and
// IP may be trained; PWS must win (Section VIII-B: "Since PWS has higher
// priority than IP, all prefetches are covered by PWS").
func TestMTHWPPWSPriorityOverIP(t *testing.T) {
	p := NewMTHWP(MTHWPOptions{EnableIP: true})
	// Interleave warps so both per-warp (stride 1000) and cross-warp
	// (stride 10) patterns exist, like Fig. 5.
	var out []Candidate
	seq := []struct {
		w int
		a uint64
	}{
		{1, 0}, {2, 10}, {3, 20}, // trains IP (10/warp)
		{1, 1000}, {2, 1010}, {3, 1020}, // PWS deltas 1000
		{1, 2000}, {2, 2010}, {3, 2020}, // PWS trained now
	}
	hits := map[string]uint64{}
	for _, s := range seq {
		out = p.Observe(Train{PC: 0x1a, WarpID: s.w, Addr: s.a, Footprint: fp}, out[:0])
		st := p.Stats()
		hits["pws"], hits["ip"] = st.PWSHits, st.IPHits
	}
	if hits["pws"] == 0 {
		t.Error("PWS never generated despite trained per-warp stride")
	}
	// The last three accesses have trained PWS entries; they must come
	// from PWS, not IP.
	st := p.Stats()
	if st.PWSHits < 3 {
		t.Errorf("PWSHits = %d, want >= 3", st.PWSHits)
	}
}

func TestMTHWPGSPriorityOverIP(t *testing.T) {
	p := NewMTHWP(MTHWPOptions{EnableGS: true, EnableIP: true})
	for w := 1; w <= 3; w++ {
		base := uint64(w * 10)
		trainAddrs(p, 0x1a, w, base, base+1000, base+2000)
	}
	ipBefore := p.Stats().IPHits
	var out []Candidate
	out = p.Observe(Train{PC: 0x1a, WarpID: 9, Addr: 90, Footprint: fp}, out)
	if len(out) != 1 || out[0].Addr != 1090 {
		t.Fatalf("prefetch = %v, want GS-generated [1090]", out)
	}
	if p.Stats().IPHits != ipBefore {
		t.Error("IP generated despite GS hit")
	}
}

func TestMTHWPIPZeroStrideNotTrained(t *testing.T) {
	p := NewMTHWP(MTHWPOptions{EnableIP: true})
	var out []Candidate
	for w := 1; w <= 6; w++ {
		out = p.Observe(Train{PC: 7, WarpID: w, Addr: 4096, Footprint: fp}, out)
	}
	if len(out) != 0 {
		t.Errorf("zero cross-warp stride generated prefetches: %v", out)
	}
}

func TestMTHWPFootprintReplay(t *testing.T) {
	p := NewMTHWP(MTHWPOptions{EnableIP: true})
	foot := []uint64{0, 64, 128} // partially uncoalesced access
	var out []Candidate
	for w := 1; w <= 3; w++ {
		out = p.Observe(Train{PC: 7, WarpID: w, Addr: uint64(w * 4096), Footprint: foot}, out[:0])
	}
	want := []uint64{4 * 4096, 4*4096 + 64, 4*4096 + 128}
	if len(out) != 3 {
		t.Fatalf("out = %v, want %v", out, want)
	}
	for i := range want {
		if out[i].Addr != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestMTHWPTableVICost(t *testing.T) {
	costs := MTHWPCost()
	want := map[string]struct{ bits, entries int }{
		"PWS": {93, 32},
		"GS":  {52, 8},
		"IP":  {133, 8},
	}
	for _, c := range costs {
		w, ok := want[c.Name]
		if !ok {
			t.Errorf("unexpected table %q", c.Name)
			continue
		}
		if c.BitsPerEntry != w.bits || c.Entries != w.entries {
			t.Errorf("%s = %d bits x %d entries, want %d x %d",
				c.Name, c.BitsPerEntry, c.Entries, w.bits, w.entries)
		}
	}
	if got := MTHWPCostBytes(); got != 557 {
		t.Errorf("total cost = %d bytes, want 557 (Table VI)", got)
	}
}

// TestMTHWPGSReducesPWSAccesses verifies the Section VIII-B mechanism that
// motivates the GS table: after promotion, a stream of stride-friendly
// accesses performs almost no PWS lookups.
func TestMTHWPGSReducesPWSAccesses(t *testing.T) {
	withGS := NewMTHWP(MTHWPOptions{EnableGS: true})
	without := NewMTHWP(MTHWPOptions{})
	feed := func(p *MTHWP) MTHWPStats {
		for w := 1; w <= 16; w++ {
			for i := uint64(0); i < 8; i++ {
				p.Observe(Train{PC: 0x1a, WarpID: w, Addr: uint64(w*16) + i*1000, Footprint: fp}, nil)
			}
		}
		return p.Stats()
	}
	a, b := feed(withGS), feed(without)
	if a.PWSAccesses >= b.PWSAccesses/2 {
		t.Errorf("GS saved too few PWS accesses: %d with GS vs %d without",
			a.PWSAccesses, b.PWSAccesses)
	}
}
