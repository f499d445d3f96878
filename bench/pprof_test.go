package main

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"mtprefetch/internal/ring.(*Buffer[go.shape.*uint8]).PushBack": "mtprefetch/internal/ring",
		"mtprefetch/internal/addrmap.New[go.shape.uint64]":             "mtprefetch/internal/addrmap",
		"runtime.mallocgc":                       "runtime",
		"internal/runtime/atomic.(*Uint32).Load": "internal/runtime/atomic",
		"encoding/json.(*encodeState).marshal":   "encoding/json",
		"main.main":                              "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"strconv.AppendFloat", "mtprefetch/internal/obs.(*Sampler).WriteJSONL", "mtprefetch/internal/harness.(*runner).runOne"}, "obs"},
		{[]string{"runtime.mallocgc", "mtprefetch/internal/smcore.(*Core).Cycle"}, "runtime"},
		{[]string{"mtprefetch/internal/smcore.(*Core).NextEvent", "mtprefetch/internal/core.(*Simulator).nextEventCycle"}, "calendar"},
		{[]string{"mtprefetch/internal/ring.(*Buffer[...]).PushBack", "mtprefetch/internal/noc.(*Network).InjectResponse"}, "noc"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "mtprefetch/internal/store.osFS.WriteFile"}, "store"},
		{[]string{"mtprefetch/internal/core.(*Simulator).Run", "main.main", "runtime.main"}, "core"},
		{[]string{"strings.Index", "main.splitSections", "runtime.main"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

var spinSink uint64

// TestReadProfile decodes a real CPU profile of a busy loop.
func TestReadProfile(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own code has no Go stack in the profile")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			spinSink = spinSink*31 + uint64(i)
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stacks, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total, mine int64
	for _, s := range stacks {
		total += s.nanos
		for _, fn := range s.funcs {
			if strings.HasSuffix(fn, ".TestReadProfile") {
				mine += s.nanos
				break
			}
		}
	}
	if total == 0 || mine < total/2 {
		t.Errorf("profile holds %v of CPU, %v of it in the busy loop", time.Duration(total), time.Duration(mine))
	}
	if shares := cpuShares(stacks); shares[layerOther] < 0.5 {
		t.Errorf("the test's own loop is %.2f other, want most of the profile", shares[layerOther])
	}
}
