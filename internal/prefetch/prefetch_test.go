package prefetch

import (
	"testing"

	"mtprefetch/internal/config"
	"mtprefetch/internal/memreq"
)

// fp is a trivial single-block footprint.
var fp = []uint64{0}

// addrsOf projects candidates to their block addresses.
func addrsOf(cs []Candidate) []uint64 {
	out := make([]uint64, len(cs))
	for i, c := range cs {
		out[i] = c.Addr
	}
	return out
}

func trainAddrs(p Prefetcher, pc, warp int, addrs ...uint64) []uint64 {
	var out []Candidate
	for _, a := range addrs {
		out = p.Observe(Train{PC: pc, WarpID: warp, Addr: a, Footprint: fp}, out[:0])
	}
	return addrsOf(out)
}

func TestStrideStateTraining(t *testing.T) {
	// Callers seed lastAddr with the first observed address.
	s := strideState{lastAddr: 1000}
	if s.observe(2000) {
		t.Error("trained after a single delta")
	}
	if !s.observe(3000) {
		t.Error("not trained after two equal deltas")
	}
	if s.stride != 1000 {
		t.Errorf("stride = %d, want 1000", s.stride)
	}
	// A changed delta retrains.
	if s.observe(3100) {
		t.Error("trained immediately after stride change")
	}
}

func TestGenStrideFootprintReplay(t *testing.T) {
	foot := []uint64{0, 64}
	cands := genStride(memreq.SrcPWS, 1000, 128, 1, 2, foot, nil)
	for _, c := range cands {
		if c.Source != memreq.SrcPWS {
			t.Errorf("candidate %#x source = %v, want pws", c.Addr, c.Source)
		}
	}
	out := addrsOf(cands)
	want := []uint64{1128, 1192, 1256, 1320}
	if len(out) != len(want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestGenStrideNegativeGuard(t *testing.T) {
	out := genStride(memreq.SrcNone, 100, -1000, 1, 2, fp, nil)
	if len(out) != 0 {
		t.Errorf("negative addresses generated: %v", out)
	}
}

func TestGenStrideCandidateCap(t *testing.T) {
	big := make([]uint64, 32)
	for i := range big {
		big[i] = uint64(i * 64)
	}
	out := genStride(memreq.SrcNone, 1<<20, 4096, 1, 8, big, nil)
	if len(out) > maxCandidates {
		t.Errorf("generated %d candidates, cap is %d", len(out), maxCandidates)
	}
}

func TestStridePCDetectsPerWarpStride(t *testing.T) {
	p := NewStridePC(StridePCOptions{WarpAware: true})
	out := trainAddrs(p, 0x1a, 1, 0, 1000, 2000)
	if len(out) != 1 || out[0] != 3000 {
		t.Fatalf("prefetch = %v, want [3000]", out)
	}
}

// TestStridePCNaiveConfusedByInterleaving reproduces Fig. 5: each warp has
// a clean 1000-byte stride, but the interleaved stream seen by a
// PC-indexed prefetcher is noise.
func TestStridePCNaiveConfusedByInterleaving(t *testing.T) {
	naive := NewStridePC(StridePCOptions{WarpAware: false})
	enhanced := NewStridePC(StridePCOptions{WarpAware: true})
	// The exact interleaving of Fig. 5 (right column).
	seq := []struct {
		warp int
		addr uint64
	}{
		{1, 0}, {2, 10}, {1, 1000}, {3, 20}, {2, 1010},
		{3, 1020}, {3, 2020}, {1, 2000}, {2, 2010},
	}
	var naiveOut, enhOut []Candidate
	for _, s := range seq {
		tr := Train{PC: 0x1a, WarpID: s.warp, Addr: s.addr, Footprint: fp}
		naiveOut = naive.Observe(tr, naiveOut)
		enhOut = enhanced.Observe(tr, enhOut)
	}
	if len(naiveOut) != 0 {
		t.Errorf("naive prefetcher found a stride in interleaved noise: %v", naiveOut)
	}
	if len(enhOut) == 0 {
		t.Error("warp-aware prefetcher failed to find per-warp strides")
	}
	// Every enhanced prefetch extends some warp's 1000-stride stream.
	for _, c := range enhOut {
		if (c.Addr-0)%10 != 0 {
			t.Errorf("unexpected prefetch address %d", c.Addr)
		}
	}
}

// TestStridePCDistanceDegree checks the arithmetic a trained stride
// (here StridePC's 100 bytes at 200) feeds into genStride at distance 3
// and degree 2: MT-HWP's distance (Fig. 17) and GHB+F's adapted degree
// still vary it.
func TestStridePCDistanceDegree(t *testing.T) {
	out := addrsOf(genStride(memreq.SrcStridePC, 200, 100, 3, 2, fp, nil))
	want := []uint64{500, 600}
	if len(out) != 2 || out[0] != want[0] || out[1] != want[1] {
		t.Fatalf("out = %v, want %v", out, want)
	}
}

func TestStridePCTableEviction(t *testing.T) {
	p := NewStridePC(StridePCOptions{WarpAware: true})
	p.tab = newTable[key2, strideState](2)
	trainAddrs(p, 1, 1, 0, 100) // entry A
	trainAddrs(p, 2, 1, 0, 100) // entry B
	trainAddrs(p, 3, 1, 0, 100) // evicts A
	// Retraining PC 1 must start over.
	out := trainAddrs(p, 1, 1, 200, 300)
	if len(out) != 0 {
		t.Errorf("evicted entry retained state: %v", out)
	}
}

func TestStrideRPTRegionTraining(t *testing.T) {
	p := NewStrideRPT(StrideRPTOptions{})
	// Same 64KB region, constant stride.
	out := trainAddrs(p, 0, 1, 0x10000, 0x10100, 0x10200)
	if len(out) != 1 || out[0] != 0x10300 {
		t.Fatalf("prefetch = %v, want [0x10300]", out)
	}
}

func TestStrideRPTSeparateRegions(t *testing.T) {
	p := NewStrideRPT(StrideRPTOptions{})
	// Alternating between two far-apart regions; per-region strides hold.
	var out []Candidate
	addrsA := []uint64{0x10000, 0x10100, 0x10200}
	addrsB := []uint64{0x90000, 0x90040, 0x90080}
	for i := 0; i < 3; i++ {
		out = p.Observe(Train{PC: 0, WarpID: 0, Addr: addrsA[i], Footprint: fp}, out)
		out = p.Observe(Train{PC: 0, WarpID: 0, Addr: addrsB[i], Footprint: fp}, out)
	}
	if len(out) != 2 {
		t.Fatalf("prefetches = %v, want one per region", out)
	}
}

func TestStreamDetectsAscending(t *testing.T) {
	p := NewStream(StreamOptions{})
	out := trainAddrs(p, 0, 1, 0, 64, 128)
	if len(out) != 1 || out[0] != 192 {
		t.Fatalf("prefetch = %v, want [192]", out)
	}
}

func TestStreamDetectsDescending(t *testing.T) {
	p := NewStream(StreamOptions{})
	out := trainAddrs(p, 0, 1, 10*64, 9*64, 8*64)
	if len(out) != 1 || out[0] != 7*64 {
		t.Fatalf("prefetch = %v, want [448]", out)
	}
}

func TestStreamWindow(t *testing.T) {
	// Jumping one block past the window allocates a fresh stream
	// instead of matching.
	const jump = (streamWindow + 1) * config.BlockBytes
	if out := trainAddrs(NewStream(StreamOptions{}), 0, 1, 0, jump, 2*jump); len(out) != 0 {
		t.Errorf("jumps past the window should not train a stream: %v", out)
	}
	// Jumps of exactly the window still match and train.
	const edge = streamWindow * config.BlockBytes
	if out := trainAddrs(NewStream(StreamOptions{}), 0, 1, 0, edge, 2*edge); len(out) != 1 || out[0] != 2*edge+config.BlockBytes {
		t.Errorf("jumps at the window edge = %v, want [%d]", out, 2*edge+config.BlockBytes)
	}
}

func TestStreamWarpAware(t *testing.T) {
	naive := NewStream(StreamOptions{})
	enh := NewStream(StreamOptions{WarpAware: true})
	// Two warps ping-pong within one region in opposite directions:
	// ascending for warp 1, descending for warp 2 — combined, direction
	// confidence never builds for the naive version.
	var nOut, eOut []Candidate
	w1 := []uint64{0, 64, 128, 192}
	w2 := []uint64{640, 576, 512, 448}
	for i := 0; i < 4; i++ {
		tr1 := Train{PC: 0, WarpID: 1, Addr: w1[i], Footprint: fp}
		tr2 := Train{PC: 0, WarpID: 2, Addr: w2[i], Footprint: fp}
		nOut = naive.Observe(tr1, nOut)
		nOut = naive.Observe(tr2, nOut)
		eOut = enh.Observe(tr1, eOut)
		eOut = enh.Observe(tr2, eOut)
	}
	if len(eOut) <= len(nOut) {
		t.Errorf("warp-aware stream (%d prefetches) should beat naive (%d)", len(eOut), len(nOut))
	}
}

func TestGHBConstantStride(t *testing.T) {
	p := NewGHB(GHBOptions{})
	out := trainAddrs(p, 0, 1, 0x1000, 0x1040, 0x1080)
	if len(out) != 1 || out[0] != 0x10C0 {
		t.Fatalf("prefetch = %v, want [0x10C0]", out)
	}
}

func TestGHBDeltaCorrelation(t *testing.T) {
	p := NewGHB(GHBOptions{})
	p.degree = 2
	// Repeating irregular pattern within one CZone: deltas +8, +56, +8, +56...
	// (all within a 4KB zone). After the pattern repeats, the pair
	// correlation should predict the next deltas.
	addrs := []uint64{0x100, 0x108, 0x140, 0x148, 0x180}
	out := trainAddrs(p, 0, 1, addrs...)
	if len(out) == 0 {
		t.Fatal("delta correlation produced nothing")
	}
	// Last two deltas are (+56, +8)? time order: 8,56,8,56,8... at 0x180
	// recent pair is (56, 8); earlier occurrence found; next delta is +8
	// -> first prediction 0x188.
	if out[0] != 0x188 {
		t.Errorf("first prediction = %#x, want 0x188", out[0])
	}
}

func TestGHBSeparateCZones(t *testing.T) {
	p := NewGHB(GHBOptions{})
	var out []Candidate
	// Interleave two zones; strides per zone must still be found.
	for i := uint64(0); i < 3; i++ {
		out = p.Observe(Train{PC: 0, WarpID: 0, Addr: 0x1000 + i*64, Footprint: fp}, out)
		out = p.Observe(Train{PC: 0, WarpID: 0, Addr: 0x100000 + i*128, Footprint: fp}, out)
	}
	if len(out) != 2 {
		t.Fatalf("prefetches = %v, want one per zone", out)
	}
	// One PC striding across far-apart zones fragments the history, so
	// AC/DC finds no stride.
	q := NewGHB(GHBOptions{WarpAware: true})
	out = nil
	for i := uint64(0); i < 3; i++ {
		out = q.Observe(Train{PC: 7, WarpID: 1, Addr: i * (1 << 16), Footprint: fp}, out)
	}
	if len(out) != 0 {
		t.Errorf("AC/DC found a cross-zone stride: %v", out)
	}
}

func TestGHBFeedbackAdjustsDegree(t *testing.T) {
	p := NewGHB(GHBOptions{Feedback: true})
	if p.degree != 1 {
		t.Fatalf("initial degree = %d", p.degree)
	}
	p.ApplyFeedback(Feedback{Issued: 100, Useful: 90})
	if p.degree != 2 {
		t.Errorf("degree after high accuracy = %d, want 2", p.degree)
	}
	p.ApplyFeedback(Feedback{Issued: 100, Useful: 5})
	if p.degree != 1 {
		t.Errorf("degree after low accuracy = %d, want 1", p.degree)
	}
	// Bounded below.
	p.ApplyFeedback(Feedback{Issued: 100, Useful: 5})
	if p.degree != 1 {
		t.Errorf("degree fell below 1: %d", p.degree)
	}
	// No feedback flag: degree frozen.
	q := NewGHB(GHBOptions{})
	q.ApplyFeedback(Feedback{Issued: 100, Useful: 100})
	if q.degree != 1 {
		t.Error("feedback applied to non-feedback GHB")
	}
}

func TestStridePCThrottleDropsOnLateness(t *testing.T) {
	p := NewStridePC(StridePCOptions{WarpAware: true, Throttled: true})
	p.ApplyFeedback(Feedback{Issued: 100, Late: 90})
	if p.dropNum != 1 {
		t.Fatalf("dropNum = %d, want 1", p.dropNum)
	}
	// With dropping active, a trained stream generates fewer prefetches.
	var out []Candidate
	for i := uint64(0); i < 16; i++ {
		out = p.Observe(Train{PC: 1, WarpID: 1, Addr: i * 1000, Footprint: fp}, out)
	}
	if len(out) >= 14 {
		t.Errorf("throttled StridePC issued %d of 14 possible prefetches", len(out))
	}
	// Recovery.
	p.ApplyFeedback(Feedback{Issued: 100, Late: 0})
	if p.dropNum != 0 {
		t.Errorf("dropNum after recovery = %d, want 0", p.dropNum)
	}
}

func TestLRUTable(t *testing.T) {
	tab := newTable[int, int](2)
	tab.put(1, 10)
	tab.put(2, 20)
	if v, ok := tab.get(1); !ok || *v != 10 {
		t.Fatal("get(1) failed")
	}
	if _, ev := tab.put(3, 30); ev == nil || *ev != 2 {
		t.Errorf("put(3) evicted %v, want the LRU key 2", ev)
	}
	if _, ok := tab.get(2); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := tab.get(1); !ok {
		t.Error("recently used entry evicted")
	}
	if len(tab.m) != 2 {
		t.Errorf("len = %d, want 2", len(tab.m))
	}
	// Replacing an existing key must not evict.
	if _, ev := tab.put(1, 11); ev != nil {
		t.Errorf("replacement evicted %d", *ev)
	}
	if v, _ := tab.get(1); *v != 11 {
		t.Error("put did not replace value")
	}
	if len(tab.m) != 2 {
		t.Errorf("len after replacement = %d, want 2", len(tab.m))
	}
}

func TestLRUTablePeek(t *testing.T) {
	tab := newTable[int, int](2)
	tab.put(1, 10)
	tab.put(2, 20)
	tab.peek(1)    // must NOT refresh 1
	tab.put(3, 30) // evicts 1
	if _, ok := tab.peek(1); ok {
		t.Error("peek refreshed LRU position")
	}
}
