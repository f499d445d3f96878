package faults

import (
	"fmt"
	"sync/atomic"

	"mtprefetch/internal/core"
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/simerr"
	"mtprefetch/internal/store"
)

// FaultFS wraps a store.FS and injects the disk failure modes the
// result store's crash-safety argument must survive: torn writes (a
// crash mid-write leaves a prefix), ENOSPC-style write failures,
// rename refusal (commit cannot publish), and read corruption (a bit
// flips between commit and lookup). Each dial fires on the Nth
// matching operation (1-based; 0 disables) and is counted atomically,
// so a concurrent sweep hits a deterministic operation even when the
// hitting goroutine varies. The zero value with an Inner injects
// nothing.
type FaultFS struct {
	// Inner is the real filesystem (typically store.OSFS()).
	Inner store.FS
	// TornWriteN makes the Nth WriteFile persist only the first half of
	// its data and then fail — the classic torn write a crash between
	// write and sync produces.
	TornWriteN int64
	// FailWriteN makes the Nth WriteFile fail outright (no space left
	// on device) without persisting anything.
	FailWriteN int64
	// FailRenameN makes the Nth Rename fail, stranding a committed tmp
	// file.
	FailRenameN int64
	// CorruptReadN flips one byte in the middle of the Nth ReadFile's
	// result; the file on disk is untouched.
	CorruptReadN int64

	writes  atomic.Int64
	renames atomic.Int64
	reads   atomic.Int64
}

var _ store.FS = (*FaultFS)(nil)

// MkdirAll implements store.FS.
func (f *FaultFS) MkdirAll(path string) error { return f.Inner.MkdirAll(path) }

// ReadDir implements store.FS.
func (f *FaultFS) ReadDir(path string) ([]string, error) { return f.Inner.ReadDir(path) }

// ReadFile implements store.FS, corrupting the CorruptReadN-th read.
func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	b, err := f.Inner.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if n := f.reads.Add(1); f.CorruptReadN != 0 && n == f.CorruptReadN && len(b) > 0 {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 0x01
		return c, nil
	}
	return b, nil
}

// WriteFile implements store.FS, tearing or failing the dialled write.
func (f *FaultFS) WriteFile(path string, data []byte) error {
	n := f.writes.Add(1)
	if f.TornWriteN != 0 && n == f.TornWriteN {
		// Persist a prefix, then report failure — as a crash after a
		// partial write would leave things.
		if err := f.Inner.WriteFile(path, data[:len(data)/2]); err != nil {
			return err
		}
		return fmt.Errorf("injected: write torn after %d bytes", len(data)/2)
	}
	if f.FailWriteN != 0 && n == f.FailWriteN {
		return fmt.Errorf("injected: no space left on device")
	}
	return f.Inner.WriteFile(path, data)
}

// Rename implements store.FS, refusing the FailRenameN-th rename.
func (f *FaultFS) Rename(oldPath, newPath string) error {
	if n := f.renames.Add(1); f.FailRenameN != 0 && n == f.FailRenameN {
		return fmt.Errorf("injected: rename refused")
	}
	return f.Inner.Rename(oldPath, newPath)
}

// Remove implements store.FS.
func (f *FaultFS) Remove(path string) error { return f.Inner.Remove(path) }

// Reads reports how many ReadFile calls have completed, for arming
// CorruptReadN relative to the present.
func (f *FaultFS) Reads() int64 { return f.reads.Load() }

// FlakeRun is a core.FaultInjector that aborts a simulation with a
// typed transient error (simerr.IsTransient) at a fixed cycle for its
// first Fails runs, then injects nothing — the canonical "retry
// converges" chaos injector. It perturbs no machine state: the run
// either aborts at FailCycle or executes exactly as if uninjected, so
// a retried run's output must be byte-identical to a fault-free one.
// One FlakeRun may serve several sequential simulations (runs counts
// across them) but, like every injector, not concurrent ones.
type FlakeRun struct {
	// FailCycle is the cycle the transient fault fires on (the run
	// visits it via NextEvent even under event-driven skipping).
	FailCycle uint64
	// Fails is how many runs abort before the flake clears.
	Fails int

	runs int
}

var (
	_ core.FaultInjector = (*FlakeRun)(nil)
	_ core.EventSource   = (*FlakeRun)(nil)
	_ core.RunFaulter    = (*FlakeRun)(nil)
)

// StallCore implements core.FaultInjector (no stalls).
func (f *FlakeRun) StallCore(cycle uint64, coreID int) bool { return false }

// OnResponse implements core.FaultInjector (no response faults).
func (f *FlakeRun) OnResponse(cycle uint64, r *memreq.Request) core.ResponseAction {
	return core.DeliverResponse
}

// NextEvent implements core.EventSource: while the flake is armed the
// fault cycle is an event, so cycle skipping cannot jump past it.
func (f *FlakeRun) NextEvent(cycle uint64) uint64 {
	if f.runs < f.Fails && cycle < f.FailCycle {
		return f.FailCycle
	}
	return ^uint64(0)
}

// RunFault implements core.RunFaulter: abort with a transient error at
// FailCycle until Fails runs have been sacrificed. The first non-nil
// return ends its run, so runs advances exactly once per failing run.
func (f *FlakeRun) RunFault(cycle uint64) error {
	if f.runs >= f.Fails || cycle < f.FailCycle {
		return nil
	}
	f.runs++
	return simerr.Transient("injected flake", fmt.Errorf("run %d aborted at cycle %d", f.runs, cycle))
}
