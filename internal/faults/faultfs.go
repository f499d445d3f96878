package faults

import (
	"fmt"
	"sync/atomic"

	"mtprefetch/internal/store"
)

// FaultFS wraps a store.FS and injects the disk failure modes the
// result store's crash-safety argument must survive: torn writes (a
// crash mid-write leaves a prefix) and read corruption (a bit flips
// between commit and lookup). Each dial fires on the Nth matching
// operation (1-based; 0 disables) and is counted atomically, so a
// concurrent sweep hits a deterministic operation even when the
// hitting goroutine varies. The zero value with an Inner injects
// nothing.
type FaultFS struct {
	// Inner is the real filesystem (typically store.OSFS()).
	Inner store.FS
	// TornWriteN makes the Nth WriteFile persist only the first half of
	// its data and then fail — the classic torn write a crash between
	// write and sync produces.
	TornWriteN int64
	// CorruptReadN flips one byte in the middle of the Nth ReadFile's
	// result; the file on disk is untouched.
	CorruptReadN int64

	writes atomic.Int64
	reads  atomic.Int64
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

// WriteFile implements store.FS, tearing the dialled write.
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
	return f.Inner.WriteFile(path, data)
}

// Rename implements store.FS.
func (f *FaultFS) Rename(oldPath, newPath string) error { return f.Inner.Rename(oldPath, newPath) }

// Remove implements store.FS.
func (f *FaultFS) Remove(path string) error { return f.Inner.Remove(path) }

// Reads reports how many ReadFile calls have completed, for arming
// CorruptReadN relative to the present.
func (f *FaultFS) Reads() int64 { return f.reads.Load() }
