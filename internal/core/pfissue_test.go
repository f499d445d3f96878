package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/workload"
)

// resultSum fingerprints every field of a Result (FNV-1a over its %+v
// form), so a pinned table can hold the whole struct in one column.
func resultSum(r *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *r)
	return h.Sum64()
}

// TestPrefetchIssuePathPinned pins the prefetch issue path of
// prefetch-heavy one-wave runs to values recorded before the issue path
// started memoizing stalled warps' prefetch-cache checks and stepping
// only cores that can act. The skip-equivalence matrix compares two
// modes of the same code, so it cannot catch a shortcut that is wrong in
// both; these counts are independent of the current implementation.
// issue_stall_full_mrq counts every capacity-stalled issue attempt, so
// it also pins how often each stalled warp was retried.
func TestPrefetchIssuePathPinned(t *testing.T) {
	mthwp := func() prefetch.Prefetcher {
		return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
	}
	strideRPT := func() prefetch.Prefetcher {
		return prefetch.NewStrideRPT(prefetch.StrideRPTOptions{WarpAware: true})
	}
	cases := []struct {
		bench, mode      string
		cycles           uint64
		stallFullMRQ     uint64
		droppedThrottle  uint64
		droppedInCache   uint64
		droppedQueueFull uint64
		pfHits           uint64
		earlyEvictions   uint64
		result           uint64 // resultSum of the whole Result
	}{
		{"stream", "mthwp-throttle", 86541, 182859, 8546, 0, 0, 5206, 40, 0x2d7ef8517206b441},
		{"scalar", "mthwp-throttle", 109995, 266123, 13178, 0, 0, 12203, 91, 0x6943a0fed98116e1},
		{"monte", "mthwp-throttle", 18333, 2403, 5600, 5746, 0, 11903, 0, 0x7c748413ea364a5e},
		{"sepia", "stride-rpt", 26827, 138055, 0, 0, 0, 5232, 48, 0x45d7b6b79d656243},
	}
	for _, tc := range cases {
		t.Run(tc.bench+"/"+tc.mode, func(t *testing.T) {
			t.Parallel()
			s := workload.ByName(tc.bench)
			o := Options{Workload: s.Scaled(s.Blocks / (14 * s.MaxBlocksPerCore))}
			switch tc.mode {
			case "mthwp-throttle":
				o.Hardware, o.Throttle = mthwp, true
			case "stride-rpt":
				o.Hardware = strideRPT
			}
			sim, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			reg := sim.Registry()
			for _, c := range []struct {
				name      string
				got, want uint64
			}{
				{"Cycles", res.Cycles, tc.cycles},
				{"smcore.issue_stall_full_mrq", reg.Sum("smcore.issue_stall_full_mrq"), tc.stallFullMRQ},
				{"smcore.dropped_throttle", reg.Sum("smcore.dropped_throttle"), tc.droppedThrottle},
				{"smcore.dropped_in_cache", reg.Sum("smcore.dropped_in_cache"), tc.droppedInCache},
				{"smcore.dropped_queue_full", reg.Sum("smcore.dropped_queue_full"), tc.droppedQueueFull},
				{"pfcache.hits", reg.Sum("pfcache.hits"), tc.pfHits},
				{"pfcache.early_evictions", reg.Sum("pfcache.early_evictions"), tc.earlyEvictions},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
				}
			}
			if got := resultSum(res); got != tc.result {
				t.Errorf("resultSum = %#x, want %#x", got, tc.result)
			}
			if t.Failed() {
				t.Logf("Result: %+v", *res)
			}
		})
	}
}
