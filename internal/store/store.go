// Package store is the crash-safe, content-addressed on-disk result
// store behind sweep resumption and the warm-simulator-fleet direction:
// a versioned fingerprint of one run's full configuration maps to its
// Result plus the JSONL artifact bundle its observability streams
// produced, so repeated sweeps across processes — including a sweep
// resumed after a kill -9 — serve completed cells from disk and only
// simulate the remainder.
//
// Crash-safety model:
//
//   - Commits are atomic: an entry is serialised into tmp/, made
//     durable, then renamed into entries/. A crash at any point leaves
//     either no entry or a complete one; the in-flight tmp file is
//     swept away by the next Open.
//   - Every entry carries a format-version header and a SHA-256
//     payload checksum. A torn, truncated, bit-flipped, or
//     wrong-version entry is never served: Get quarantines it (moves
//     it into quarantine/ for post-mortem) and reports a miss, so the
//     caller transparently falls back to re-simulation.
//   - The index is the directory itself, rebuilt by scan at Open; no
//     separate manifest can go stale or corrupt.
//
// Commit failures (ENOSPC, rename faults) are typed transient
// (simerr.ErrTransient) so the harness's bounded-retry machinery
// applies; a store whose last commit failed reports itself degraded,
// which the debug server surfaces as HTTP 503 on /healthz.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"mtprefetch/internal/config"
	"mtprefetch/internal/core"
	"mtprefetch/internal/simerr"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

const (
	// FormatVersion is the on-disk entry format; entries written by a
	// different version are quarantined rather than misread.
	FormatVersion = 1
	// FingerprintVersion is folded into every fingerprint; bumping it
	// invalidates the whole store when the meaning of a fingerprint
	// changes (new Options fields that affect results, Result schema
	// changes).
	FingerprintVersion = 1

	// header is the magic leading every entry file.
	header = "mtpref-store"

	entriesDir    = "entries"
	tmpDir        = "tmp"
	quarantineDir = "quarantine"
	entrySuffix   = ".entry"
)

// Entry is one stored run: the Result the harness' tables are built
// from plus the named JSONL artifact blobs its observability streams
// rendered (metrics/pfreport/cpistack), byte-for-byte what a live run
// would have appended to the shared output files.
type Entry struct {
	Key         string            `json:"key"`         // harness memo key, for humans
	Fingerprint string            `json:"fingerprint"` // content address (redundant, verified on load)
	Result      *core.Result      `json:"result"`
	Artifacts   map[string][]byte `json:"artifacts,omitempty"`
}

// Stats is a snapshot of the store's counters for /store and /healthz.
type Stats struct {
	Entries         int    `json:"entries"`
	Hits            int64  `json:"hits"`
	Misses          int64  `json:"misses"`
	Quarantined     int64  `json:"quarantined"`
	Commits         int64  `json:"commits"`
	CommitErrors    int64  `json:"commit_errors"`
	LastCommitError string `json:"last_commit_error,omitempty"`
	Degraded        bool   `json:"degraded"`
}

// Store is the on-disk result store. It is safe for concurrent use —
// the parallel harness commits and looks up from many worker
// goroutines — and may be shared with other processes: the directory
// is the source of truth, so entries committed by one process are
// visible to another's Get without coordination.
type Store struct {
	dir string
	fs  FS

	mu      sync.Mutex
	known   map[string]bool // fingerprints seen in entries/ (scan + commits)
	seq     int             // uniquifies tmp names within this process
	hits    int64
	misses  int64
	quar    int64
	commits int64
	cerrs   int64
	lastErr string // last commit failure; "" once a commit succeeds again
}

// Option customises Open.
type Option func(*Store)

// WithFS substitutes the filesystem implementation (chaos tests inject
// faults.FaultFS here).
func WithFS(fs FS) Option { return func(s *Store) { s.fs = fs } }

// Open opens (creating if necessary) the store rooted at dir, sweeps
// the tmp/ directory of in-flight commits a killed process left
// behind, and rebuilds the index by scanning entries/.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir, fs: osFS{}, known: make(map[string]bool)}
	for _, o := range opts {
		o(s)
	}
	for _, sub := range []string{entriesDir, tmpDir, quarantineDir} {
		if err := s.fs.MkdirAll(filepath.Join(dir, sub)); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	// A crash loses at most the entries that were mid-commit: their tmp
	// files never reached entries/, so removing them is safe and keeps
	// tmp/ from accumulating garbage across crashes.
	tmps, err := s.fs.ReadDir(filepath.Join(dir, tmpDir))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, name := range tmps {
		_ = s.fs.Remove(filepath.Join(dir, tmpDir, name))
	}
	names, err := s.fs.ReadDir(filepath.Join(dir, entriesDir))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, name := range names {
		if fp, ok := strings.CutSuffix(name, entrySuffix); ok && validFingerprint(fp) {
			s.known[fp] = true
		}
	}
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len reports how many entries the index knows about.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.known)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:         len(s.known),
		Hits:            s.hits,
		Misses:          s.misses,
		Quarantined:     s.quar,
		Commits:         s.commits,
		CommitErrors:    s.cerrs,
		LastCommitError: s.lastErr,
		Degraded:        s.lastErr != "",
	}
}

// Degraded reports whether the most recent commit failed (and no
// commit has succeeded since): the store is effectively read-only and
// /healthz serves 503 until a commit lands again.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr != ""
}

// Get looks up a fingerprint. need lists artifact names the caller
// cannot do without (the sink's enabled streams): an otherwise-valid
// entry lacking one is a miss — it stays on disk for consumers with
// fewer requirements — so a warm sweep never silently drops records
// from its shared output files.
//
// A corrupted entry (bad header, version skew, checksum or length
// mismatch, fingerprint mismatch, undecodable payload) is quarantined
// and reported as a miss: the caller re-simulates and re-commits, so
// corruption heals transparently and the bad bytes stay available
// under quarantine/ for inspection. Get never returns an error — every
// failure mode degenerates to a miss by design.
func (s *Store) Get(fp string, need ...string) (*Entry, bool) {
	if !validFingerprint(fp) {
		s.count(&s.misses)
		return nil, false
	}
	path := filepath.Join(s.dir, entriesDir, fp+entrySuffix)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.count(&s.misses)
			return nil, false
		}
		// Unreadable but present: treat like corruption so the sweep
		// proceeds on a fresh simulation instead of failing.
		s.quarantine(fp, path)
		return nil, false
	}
	e, err := decodeEntry(data)
	if err != nil || e.Fingerprint != fp || e.Result == nil {
		s.quarantine(fp, path)
		return nil, false
	}
	for _, name := range need {
		if _, ok := e.Artifacts[name]; !ok {
			s.count(&s.misses)
			return nil, false
		}
	}
	s.mu.Lock()
	s.hits++
	s.known[fp] = true // another process may have committed it
	s.mu.Unlock()
	return e, true
}

// Put commits an entry atomically: serialise into tmp/, make durable,
// rename into entries/. Failures are typed transient
// (simerr.ErrTransient) — the bounded-retry machinery applies — and
// mark the store degraded until a later commit succeeds.
func (s *Store) Put(e *Entry) error {
	if !validFingerprint(e.Fingerprint) {
		return fmt.Errorf("store: invalid fingerprint %q", e.Fingerprint)
	}
	data, err := encodeEntry(e)
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", e.Key, err)
	}
	s.mu.Lock()
	s.seq++
	tmp := filepath.Join(s.dir, tmpDir, fmt.Sprintf("%s.%d.%d.tmp", e.Fingerprint, os.Getpid(), s.seq))
	s.mu.Unlock()
	final := filepath.Join(s.dir, entriesDir, e.Fingerprint+entrySuffix)
	if err := s.fs.WriteFile(tmp, data); err != nil {
		_ = s.fs.Remove(tmp)
		return s.commitFailed("write", e.Key, err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		_ = s.fs.Remove(tmp)
		return s.commitFailed("rename", e.Key, err)
	}
	s.mu.Lock()
	s.commits++
	s.lastErr = ""
	s.known[e.Fingerprint] = true
	s.mu.Unlock()
	return nil
}

// commitFailed records a commit failure and wraps it transient.
func (s *Store) commitFailed(op, key string, err error) error {
	werr := simerr.Transient("store "+op, fmt.Errorf("%s: %w", key, err))
	s.mu.Lock()
	s.cerrs++
	s.lastErr = werr.Error()
	s.mu.Unlock()
	return werr
}

// quarantine moves a bad entry out of entries/ so it can never be
// served again, counting it; removal is the fallback when even the
// rename fails. The index forgets the fingerprint either way.
func (s *Store) quarantine(fp, path string) {
	if err := s.fs.Rename(path, filepath.Join(s.dir, quarantineDir, fp+entrySuffix)); err != nil {
		_ = s.fs.Remove(path)
	}
	s.mu.Lock()
	s.quar++
	s.misses++
	delete(s.known, fp)
	s.mu.Unlock()
}

func (s *Store) count(c *int64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// encodeEntry serialises an entry as a checksummed, versioned record:
//
//	mtpref-store <format-version> <sha256(payload)> <len(payload)>\n<payload JSON>
func encodeEntry(e *Entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %d %s %d\n", header, FormatVersion, hex.EncodeToString(sum[:]), len(payload))
	b.Write(payload)
	return b.Bytes(), nil
}

// decodeEntry parses and verifies one entry file.
func decodeEntry(data []byte) (*Entry, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("store: no header line")
	}
	var magic, sumHex string
	var version, n int
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %d %s %d", &magic, &version, &sumHex, &n); err != nil {
		return nil, fmt.Errorf("store: bad header: %w", err)
	}
	if magic != header {
		return nil, fmt.Errorf("store: bad magic %q", magic)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("store: format version %d, want %d", version, FormatVersion)
	}
	payload := data[nl+1:]
	if len(payload) != n {
		return nil, fmt.Errorf("store: payload length %d, header says %d (torn entry)", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, fmt.Errorf("store: payload checksum mismatch")
	}
	e := &Entry{}
	if err := json.Unmarshal(payload, e); err != nil {
		return nil, fmt.Errorf("store: payload decode: %w", err)
	}
	return e, nil
}

// validFingerprint accepts lowercase-hex content addresses only,
// keeping arbitrary strings out of filesystem paths.
func validFingerprint(fp string) bool {
	if fp == "" {
		return false
	}
	for _, r := range fp {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// fingerprintable is the canonical serialisation fingerprints hash:
// everything that determines a run's Result, in fixed field order.
// NoCycleSkip, Obs, and Ctx are deliberately absent — the byte-identity
// machinery guarantees they cannot change results — and
// the Hardware factory is represented by the memo key, which encodes
// the prefetcher's name and parameters by construction.
type fingerprintable struct {
	Version         int            `json:"version"`
	Key             string         `json:"key"`
	Config          *config.Config `json:"config"`
	Workload        *workload.Spec `json:"workload"`
	Software        swpref.Mode    `json:"software"`
	SoftwareOptions swpref.Options `json:"software_options"`
	Hardware        bool           `json:"hardware"`
	Throttle        bool           `json:"throttle"`
	PollutionFilter bool           `json:"pollution_filter"`
	PerfectMemory   bool           `json:"perfect_memory"`
	MaxCycles       uint64         `json:"max_cycles"`
	WatchdogWindow  uint64         `json:"watchdog_window"`
	NoWatchdog      bool           `json:"no_watchdog"`
	Checks          bool           `json:"checks"`
	CheckEvery      uint64         `json:"check_every"`
}

// Fingerprint computes the content address of one run configuration:
// SHA-256 over the versioned canonical serialisation of the memo key,
// the machine config, the (scaled) workload — including its full
// kernel program, so a kernel change invalidates stale entries — and
// every Options field that can influence the Result. It is stable
// across processes and runs; two configurations collide only if they
// provably produce the same Result.
func Fingerprint(key string, o core.Options) (string, error) {
	cfg := o.Config
	if cfg == nil {
		cfg = config.Baseline()
	}
	b, err := json.Marshal(fingerprintable{
		Version:         FingerprintVersion,
		Key:             key,
		Config:          cfg,
		Workload:        o.Workload,
		Software:        o.Software,
		SoftwareOptions: o.SoftwareOptions,
		Hardware:        o.Hardware != nil,
		Throttle:        o.Throttle,
		PollutionFilter: o.PollutionFilter,
		PerfectMemory:   o.PerfectMemory,
		MaxCycles:       o.MaxCycles,
		WatchdogWindow:  o.WatchdogWindow,
		NoWatchdog:      o.NoWatchdog,
		Checks:          o.Checks,
		CheckEvery:      o.CheckEvery,
	})
	if err != nil {
		return "", fmt.Errorf("store: fingerprint %s: %w", key, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
