package kernel

import (
	"testing"
	"testing/quick"
)

func simpleMPKernel(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("mp")
	a := b.Load(Access{Array: 0, LaneStrideB: 4})
	bb := b.Load(Access{Array: 1, LaneStrideB: 4})
	s := b.ALU(a, bb)
	b.Store(Access{Array: 2, LaneStrideB: 4}, s)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuilderSimpleProgram(t *testing.T) {
	p := simpleMPKernel(t)
	if len(p.Instrs) != 4 {
		t.Fatalf("len(Instrs) = %d, want 4", len(p.Instrs))
	}
	if p.NumArrays != 3 {
		t.Errorf("NumArrays = %d, want 3", p.NumArrays)
	}
	if p.HasLoop() {
		t.Error("straight-line kernel reports a loop")
	}
	c := p.DynamicCounts()
	if c.Compute != 1 || c.Memory != 3 || c.Loads != 2 || c.Total != 4 {
		t.Errorf("DynamicCounts = %+v", c)
	}
}

func TestBuilderLoop(t *testing.T) {
	b := NewBuilder("loop")
	b.BeginLoop(10)
	v := b.Load(Access{Array: 0, LaneStrideB: 4, IterStrideB: 4096})
	r := b.Compute(3, v)
	b.Store(Access{Array: 1, LaneStrideB: 4, IterStrideB: 4096}, r)
	b.EndLoop()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !p.HasLoop() {
		t.Fatal("loop not recorded")
	}
	c := p.DynamicCounts()
	if c.Loads != 10 {
		t.Errorf("dynamic loads = %d, want 10", c.Loads)
	}
	if c.Compute != 30 {
		t.Errorf("dynamic compute = %d, want 30", c.Compute)
	}
	if c.Memory != 20 {
		t.Errorf("dynamic memory = %d, want 20", c.Memory)
	}
	// body = load + 3 alu + store + loopback = 6 per trip
	if c.Total != 60 {
		t.Errorf("dynamic total = %d, want 60", c.Total)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("nested loop", func(t *testing.T) {
		b := NewBuilder("x")
		b.BeginLoop(2)
		b.BeginLoop(2)
		b.EndLoop()
		b.EndLoop()
		if _, err := b.Build(); err == nil {
			t.Error("nested loops accepted")
		}
	})
	t.Run("unclosed loop", func(t *testing.T) {
		b := NewBuilder("x")
		b.BeginLoop(2)
		b.ALU()
		if _, err := b.Build(); err == nil {
			t.Error("unclosed loop accepted")
		}
	})
	t.Run("end without begin", func(t *testing.T) {
		b := NewBuilder("x")
		b.ALU()
		b.EndLoop()
		if _, err := b.Build(); err == nil {
			t.Error("EndLoop without BeginLoop accepted")
		}
	})
	t.Run("two loops", func(t *testing.T) {
		b := NewBuilder("x")
		b.BeginLoop(2)
		b.ALU()
		b.EndLoop()
		b.BeginLoop(2)
		b.ALU()
		b.EndLoop()
		if _, err := b.Build(); err == nil {
			t.Error("two loops accepted")
		}
	})
	t.Run("zero trips", func(t *testing.T) {
		b := NewBuilder("x")
		b.BeginLoop(0)
		b.ALU()
		b.EndLoop()
		if _, err := b.Build(); err == nil {
			t.Error("zero-trip loop accepted")
		}
	})
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
	}{
		{"empty", func(p *Program) { p.Instrs = nil }},
		{"memory without access", func(p *Program) { p.Instrs[0].Mem = nil }},
		{"stray access", func(p *Program) {
			p.Instrs[2].Mem = &Access{}
		}},
		{"array out of range", func(p *Program) { p.Instrs[0].Mem.Array = 99 }},
		{"reg out of range", func(p *Program) { p.Instrs[0].Dst = Reg(p.NumRegs) }},
		{"load without dst", func(p *Program) { p.Instrs[0].Dst = NoReg }},
		{"store with dst", func(p *Program) { p.Instrs[3].Dst = 1 }},
		{"forward branch", func(p *Program) {
			p.Instrs = append(p.Instrs, Instr{Op: OpLoopBack, Target: 10})
			p.LoopTrips = 2
		}},
		{"loop without trips", func(p *Program) {
			p.Instrs = append(p.Instrs, Instr{Op: OpLoopBack, Target: 0})
			p.LoopTrips = 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := simpleMPKernel(t).Clone()
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted %q", tc.name)
			}
		})
	}
}

func TestLaneAddrLinear(t *testing.T) {
	a := Access{Array: 0, LaneStrideB: 4}
	// warp 0, lane 0 -> base; lane 1 -> base+4.
	base := ArrayBase(0)
	if got := a.LaneAddr(0, 32, 0, 0); got != base {
		t.Errorf("lane 0 addr = %#x, want %#x", got, base)
	}
	if got := a.LaneAddr(0, 32, 1, 0); got != base+4 {
		t.Errorf("lane 1 addr = %#x, want base+4", got)
	}
	// warp 1 lane 0 -> base + 32*4.
	if got := a.LaneAddr(1, 32, 0, 0); got != base+128 {
		t.Errorf("warp 1 lane 0 = %#x, want base+128", got)
	}
}

func TestLaneAddrWarpAhead(t *testing.T) {
	a := Access{Array: 0, LaneStrideB: 4}
	ip := a
	ip.WarpAhead = 1
	// Prefetching warp w with WarpAhead=1 must produce exactly the
	// addresses warp w+1 demands — the defining property of IP (Fig. 4).
	for lane := 0; lane < 32; lane++ {
		if ip.LaneAddr(0, 32, lane, 0) != a.LaneAddr(1, 32, lane, 0) {
			t.Fatalf("IP address mismatch at lane %d", lane)
		}
	}
}

func TestLaneAddrIterAhead(t *testing.T) {
	a := Access{Array: 0, LaneStrideB: 4, IterStrideB: 4096}
	pf := a
	pf.IterAhead = 2
	if pf.LaneAddr(3, 32, 5, 10) != a.LaneAddr(3, 32, 5, 12) {
		t.Fatal("IterAhead does not advance iterations")
	}
}

func TestTransactionsCoalesced(t *testing.T) {
	// 4B per lane, 32 lanes = 128B = exactly 2 blocks of 64B.
	a := Access{Array: 0, LaneStrideB: 4}
	got := a.Transactions(0, 32, 0, 64, nil)
	if len(got) != 2 {
		t.Fatalf("coalesced transactions = %d, want 2 (%v)", len(got), got)
	}
	if got[1] != got[0]+64 {
		t.Errorf("blocks not adjacent: %v", got)
	}
}

func TestTransactionsBroadcast(t *testing.T) {
	// All lanes hit the same address -> 1 transaction.
	a := Access{Array: 0, LaneStrideB: 0}
	got := a.Transactions(5, 32, 0, 64, nil)
	if len(got) != 1 {
		t.Fatalf("broadcast transactions = %d, want 1", len(got))
	}
}

func TestTransactionsUncoalesced(t *testing.T) {
	// One full block per lane -> 32 transactions.
	a := Access{Array: 0, LaneStrideB: 64}
	got := a.Transactions(0, 32, 0, 64, nil)
	if len(got) != 32 {
		t.Fatalf("uncoalesced transactions = %d, want 32", len(got))
	}
}

func TestTransactionsAppendsToBuf(t *testing.T) {
	a := Access{Array: 0, LaneStrideB: 4}
	buf := []uint64{12345}
	got := a.Transactions(0, 32, 0, 64, buf)
	if len(got) != 3 || got[0] != 12345 {
		t.Fatalf("append semantics broken: %v", got)
	}
}

func TestTransactionsProperty(t *testing.T) {
	// Transactions are always block-aligned, distinct, and between 1 and
	// warpSize in count.
	f := func(warp uint16, stride uint8, iter uint8, hash bool) bool {
		a := Access{Array: 1, LaneStrideB: uint64(stride), IterStrideB: 128, Hash: hash}
		txs := a.Transactions(int(warp), 32, int(iter), 64, nil)
		if len(txs) < 1 || len(txs) > 32 {
			return false
		}
		seen := map[uint64]bool{}
		for _, b := range txs {
			if b%64 != 0 || seen[b] {
				return false
			}
			seen[b] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHashedAccessIsDeterministicAndIrregular(t *testing.T) {
	a := Access{Array: 0, LaneStrideB: 4, Hash: true, Span: 1 << 20}
	t1 := a.Transactions(7, 32, 0, 64, nil)
	t2 := a.Transactions(7, 32, 0, 64, nil)
	if len(t1) != len(t2) {
		t.Fatal("hashed access not deterministic")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("hashed access not deterministic")
		}
	}
	// Irregular: most lanes land in distinct blocks.
	if len(t1) < 16 {
		t.Errorf("hashed access coalesced too well: %d blocks", len(t1))
	}
	// And stays within the array's span.
	for _, b := range t1 {
		if b < ArrayBase(0) || b >= ArrayBase(0)+1<<20 {
			t.Errorf("address %#x escapes span", b)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := simpleMPKernel(t)
	q := p.Clone()
	q.Instrs[0].Mem.LaneStrideB = 999
	if p.Instrs[0].Mem.LaneStrideB == 999 {
		t.Fatal("Clone shares Access structs")
	}
}

func TestArrayBasesDisjoint(t *testing.T) {
	// Arrays must be far enough apart that bounded spans never overlap.
	for i := 0; i < 8; i++ {
		if ArrayBase(i)+defaultSpan > ArrayBase(i+1) {
			t.Fatalf("array %d span overlaps array %d", i, i+1)
		}
	}
}

func TestOpClassString(t *testing.T) {
	ops := []OpClass{OpALU, OpIMul, OpFDiv, OpLoad, OpStore, OpPrefetch, OpLoopBack, OpClass(200)}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("empty String() for %d", uint8(op))
		}
	}
	if !OpLoad.IsMemory() || !OpStore.IsMemory() || !OpPrefetch.IsMemory() {
		t.Error("memory classification wrong")
	}
	if OpALU.IsMemory() || OpLoopBack.IsMemory() {
		t.Error("non-memory op classified as memory")
	}
}

// referenceTransactions is the coalescer's definition: every lane's
// LaneAddr, block-aligned, first touch kept.
func referenceTransactions(a *Access, warpGID, warpSize, iter, blockBytes int) []uint64 {
	var out []uint64
	seen := map[uint64]bool{}
	for lane := 0; lane < warpSize; lane++ {
		blk := a.LaneAddr(warpGID, warpSize, lane, iter) &^ (uint64(blockBytes) - 1)
		if !seen[blk] {
			seen[blk] = true
			out = append(out, blk)
		}
	}
	return out
}

// FuzzTransactions holds the division-free coalescer to the per-lane
// LaneAddr reference over arbitrary Access fields: hashed and plain
// accesses, power-of-two and other spans (including spans above 2^63),
// WarpPeriod folds, negative WarpAhead/IterAhead, and strides whose
// lane offsets wrap past 2^64. A non-empty prefix in buf checks that
// deduplication only looks at the appended part. The seed corpus under
// testdata/fuzz runs with plain go test.
func FuzzTransactions(f *testing.F) {
	f.Fuzz(func(t *testing.T, array uint8, offset, laneStride, iterStride, span uint64,
		warpAhead, iterAhead, warpPeriod, warpGID, iter int, hash bool, warpSize, blockShift uint8) {
		a := Access{
			Array: int(array % 8), Offset: offset,
			LaneStrideB: laneStride, IterStrideB: iterStride,
			WarpAhead: warpAhead, IterAhead: iterAhead,
			Hash: hash, Span: span, WarpPeriod: warpPeriod,
		}
		ws := int(warpSize%64) + 1
		bb := 1 << (blockShift % 13)
		want := referenceTransactions(&a, warpGID, ws, iter, bb)
		prefix := []uint64{want[0]}
		got := a.Transactions(warpGID, ws, iter, bb, prefix)
		if got[0] != want[0] || len(got)-1 != len(want) {
			t.Fatalf("%+v: Transactions = %#x, want prefix then %#x", a, got, want)
		}
		for i, blk := range want {
			if got[i+1] != blk {
				t.Fatalf("%+v: Transactions = %#x, want prefix then %#x", a, got, want)
			}
		}
	})
}
