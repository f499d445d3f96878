package core

import (
	"encoding/json"
	"errors"
	"testing"

	"mtprefetch/internal/config"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/workload"
)

// runSpecSeeds are small kernels in the spec text format, one per access
// shape: coalesced, uncoalesced, hashed, store, and a loop.
var runSpecSeeds = []string{
	"kernel coal warps=112 blocks=28 maxblk=2\nload A0 lane=4\ncompute 4\n",
	"kernel uncoal warps=56 blocks=28 maxblk=2\nload A0 lane=64\nload A1 lane=32 offset=64\ncompute 2\n",
	"kernel hashed warps=84 blocks=28 maxblk=1\nload A2 lane=64 hash span=1048576\nload A3 lane=4 shared=16\ncompute 3\n",
	"kernel store warps=56 blocks=28 maxblk=2\nload A0 lane=16\ncompute 2\nstore A4 lane=16\n",
	"kernel loop warps=56 blocks=14 maxblk=1 class=stride\nloop 6\n  load A0 lane=4 iter=128\n  prefetch A0 lane=4 iter=128 iterahead=1\n  compute 3\n  imul 1\n  store A1 lane=4 iter=128\nend\n",
}

// FuzzRunSpec runs arbitrary kernel specs, with and without MT-HWP and
// throttling, with the invariant sweep on: no input panics, a run ends
// cleanly, at the cycle cap or with a rejected option — never with an
// invariant violation or a livelock — and visiting every cycle gives the
// same Result or the same error as skipping idle ones. Grids are shrunk
// to a wave or two and runs are capped, so every input is cheap.
func FuzzRunSpec(f *testing.F) {
	for _, src := range runSpecSeeds {
		f.Add(src, false)
		f.Add(src, true)
	}
	f.Fuzz(func(t *testing.T, src string, mthwp bool) {
		spec, err := workload.ParseSpec(src)
		if err != nil {
			return
		}
		if wave := config.Baseline().NumCores * spec.MaxBlocksPerCore; spec.Blocks > 2*wave {
			spec = spec.Scaled(spec.Blocks / wave)
		}
		run := func(noskip bool) (string, error) {
			o := Options{Workload: spec, Checks: true, CheckEvery: 512, MaxCycles: 200_000, NoCycleSkip: noskip}
			if mthwp {
				o.Hardware = func() prefetch.Prefetcher {
					return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
				}
				o.Throttle = true
			}
			res, err := Run(o)
			if err != nil {
				var oe *OptionError
				if !errors.As(err, &oe) && !errors.Is(err, ErrMaxCycles) {
					t.Fatalf("noskip=%v: %v\n%s", noskip, err, src)
				}
				return "", err
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("noskip=%v: Result does not marshal: %v", noskip, err)
			}
			return string(b), nil
		}
		skip, errSkip := run(false)
		every, errEvery := run(true)
		if (errSkip == nil) != (errEvery == nil) || errSkip != nil && errSkip.Error() != errEvery.Error() {
			t.Fatalf("errors differ: skipping %v, every cycle %v\n%s", errSkip, errEvery, src)
		}
		if skip != every {
			t.Fatalf("results differ:\nskipping    %s\nevery cycle %s\n%s", skip, every, src)
		}
	})
}
