package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mtprefetch/internal/config"
	"mtprefetch/internal/core"
	"mtprefetch/internal/simerr"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

func testOptions(t *testing.T) core.Options {
	t.Helper()
	spec := workload.ByName("stream").Scaled(64)
	return core.Options{Workload: spec, Software: swpref.MTSWP, Throttle: true}
}

func testEntry(fp string) *Entry {
	return &Entry{
		Key:         "sw/stream/mt-swp/true",
		Fingerprint: fp,
		Result:      &core.Result{Benchmark: "stream", Cycles: 12345, CPI: 2.5},
		Artifacts:   map[string][]byte{"metrics": []byte(`{"run":"x"}` + "\n")},
	}
}

func mustFingerprint(t *testing.T, key string, o core.Options) string {
	t.Helper()
	fp, err := Fingerprint(key, o)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := mustFingerprint(t, "sw/stream/mt-swp/true", testOptions(t))
	if _, ok := s.Get(fp); ok {
		t.Fatal("Get hit on an empty store")
	}
	e := testEntry(fp)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(fp)
	if !ok {
		t.Fatal("Get missed a just-committed entry")
	}
	if got.Key != e.Key || got.Result.Cycles != 12345 || got.Result.CPI != 2.5 {
		t.Fatalf("roundtrip mangled the entry: %+v", got)
	}
	if string(got.Artifacts["metrics"]) != `{"run":"x"}`+"\n" {
		t.Fatalf("roundtrip mangled artifacts: %q", got.Artifacts)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Commits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 commit / 1 entry", st)
	}
}

func TestStoreReopenServesCommitted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := mustFingerprint(t, "k", testOptions(t))
	if err := s.Put(testEntry(fp)); err != nil {
		t.Fatal(err)
	}
	// A second Open (fresh process) rebuilds the index by scan.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store indexed %d entries, want 1", s2.Len())
	}
	if _, ok := s2.Get(fp); !ok {
		t.Fatal("reopened store missed a committed entry")
	}
}

func TestStoreOpenSweepsTmp(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	// Simulate a process killed mid-commit: a torn tmp file.
	torn := filepath.Join(dir, tmpDir, "deadbeef.123.1.tmp")
	if err := os.WriteFile(torn, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("Open left the in-flight tmp file behind (stat err %v)", err)
	}
}

// corruptions maps a name to a mutation of a valid entry file's bytes;
// every one must be detected, quarantined, and served as a miss.
var corruptions = map[string]func([]byte) []byte{
	"truncated": func(b []byte) []byte { return b[:len(b)-7] },
	"bitflip": func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 0x40
		return c
	},
	"garbage-header": func(b []byte) []byte { return append([]byte("not a store entry\n"), b...) },
	"version-skew": func(b []byte) []byte {
		return []byte(strings.Replace(string(b), header+" 1 ", header+" 999 ", 1))
	},
	"empty": func([]byte) []byte { return nil },
}

func TestStoreQuarantinesCorruptEntries(t *testing.T) {
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			fp := mustFingerprint(t, "k/"+name, testOptions(t))
			if err := s.Put(testEntry(fp)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, entriesDir, fp+entrySuffix)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if e, ok := s.Get(fp); ok {
				t.Fatalf("corrupt entry (%s) was served: %+v", name, e)
			}
			if st := s.Stats(); st.Quarantined != 1 {
				t.Fatalf("stats = %+v, want 1 quarantined", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry still under entries/ (stat err %v)", err)
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineDir, fp+entrySuffix)); err != nil {
				t.Fatalf("corrupt entry not preserved under quarantine/: %v", err)
			}
			// The slot heals: a fresh commit is served again.
			if err := s.Put(testEntry(fp)); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(fp); !ok {
				t.Fatal("re-committed entry missed after quarantine")
			}
		})
	}
}

func TestStoreGetNeedsArtifacts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := mustFingerprint(t, "k", testOptions(t))
	if err := s.Put(testEntry(fp)); err != nil { // has "metrics" only
		t.Fatal(err)
	}
	if _, ok := s.Get(fp, "metrics"); !ok {
		t.Fatal("Get missed despite the needed artifact being present")
	}
	if _, ok := s.Get(fp, "metrics", "pfreport"); ok {
		t.Fatal("Get hit despite a needed artifact being absent")
	}
	if _, ok := s.Get(fp); !ok {
		t.Fatal("stream-less Get should still hit")
	}
}

func TestStoreRejectsInvalidFingerprints(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"", "../../etc/passwd", "ABCDEF", "xyz"} {
		if _, ok := s.Get(fp); ok {
			t.Fatalf("Get(%q) hit", fp)
		}
		if err := s.Put(&Entry{Fingerprint: fp, Result: &core.Result{}}); err == nil {
			t.Fatalf("Put(%q) succeeded", fp)
		}
	}
}

func TestFingerprintStability(t *testing.T) {
	o := testOptions(t)
	a := mustFingerprint(t, "k", o)
	b := mustFingerprint(t, "k", o)
	if a != b {
		t.Fatalf("same configuration fingerprinted differently: %s vs %s", a, b)
	}
	if len(a) != 64 || !validFingerprint(a) {
		t.Fatalf("fingerprint %q is not 64 lowercase-hex chars", a)
	}
	// Every result-affecting change must move the fingerprint.
	if got := mustFingerprint(t, "k2", o); got == a {
		t.Fatal("different keys share a fingerprint")
	}
	o2 := o
	o2.Throttle = false
	if got := mustFingerprint(t, "k", o2); got == a {
		t.Fatal("Throttle change did not move the fingerprint")
	}
	o3 := o
	o3.Config = config.Baseline()
	o3.Config.ThrottlePeriod = 777
	if got := mustFingerprint(t, "k", o3); got == a {
		t.Fatal("machine-config change did not move the fingerprint")
	}
	o4 := o
	o4.Workload = o.Workload.Scaled(2)
	if got := mustFingerprint(t, "k", o4); got == a {
		t.Fatal("workload scaling did not move the fingerprint")
	}
	// Pure wall-clock / observability knobs must NOT move it.
	o5 := o
	o5.NoCycleSkip = true
	if got := mustFingerprint(t, "k", o5); got != a {
		t.Fatal("byte-identity-neutral knob NoCycleSkip moved the fingerprint")
	}
}

// TestFingerprintPinned pins one fingerprint to its committed hex value,
// so a change that silently alters the canonical serialisation — and
// with it every content address — fails here instead of turning every
// existing store entry into a miss. A deliberate change (a new
// FingerprintVersion, the baseline machine, or the stream kernel) must
// update this value.
func TestFingerprintPinned(t *testing.T) {
	const want = "11dd5d882a805c8b7dca1e5cbcde7f764e5d91fe8a111ae48101df4baf4484af"
	if got := mustFingerprint(t, "sw/stream/mt-swp/true", testOptions(t)); got != want {
		t.Fatalf("fingerprint = %s, want %s: existing store entries would no longer hit", got, want)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				key := fmt.Sprintf("k/%d/%d", i, j%4)
				fp := mustFingerprint(t, key, o)
				e := testEntry(fp)
				e.Key = key
				if err := s.Put(e); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Get(fp); !ok {
					t.Errorf("missed %s after Put", key)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 32 {
		t.Fatalf("store holds %d entries, want 32", s.Len())
	}
}

// failFS wraps the real FS and fails operations on demand, for
// commit-failure accounting tests (the full fault matrix lives in
// internal/faults).
type failFS struct {
	FS
	failWrite, failRename bool
}

func (f *failFS) WriteFile(path string, data []byte) error {
	if f.failWrite {
		return fmt.Errorf("injected: no space left on device")
	}
	return f.FS.WriteFile(path, data)
}

func (f *failFS) Rename(oldPath, newPath string) error {
	if f.failRename {
		return fmt.Errorf("injected: rename refused")
	}
	return f.FS.Rename(oldPath, newPath)
}

func TestStoreCommitFailureDegradesAndHeals(t *testing.T) {
	ffs := &failFS{FS: OSFS()}
	s, err := Open(t.TempDir(), WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	fp := mustFingerprint(t, "k", testOptions(t))

	ffs.failWrite = true
	err = s.Put(testEntry(fp))
	if err == nil {
		t.Fatal("Put succeeded under an injected write fault")
	}
	if !simerr.IsTransient(err) {
		t.Fatalf("commit failure %v is not typed transient", err)
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after a failed commit")
	}
	if _, ok := s.Get(fp); ok {
		t.Fatal("failed commit's entry was served")
	}

	ffs.failWrite, ffs.failRename = false, true
	if err := s.Put(testEntry(fp)); !simerr.IsTransient(err) {
		t.Fatalf("rename failure %v is not typed transient", err)
	}
	if _, ok := s.Get(fp); ok {
		t.Fatal("rename-failed commit's entry was served")
	}

	ffs.failRename = false
	if err := s.Put(testEntry(fp)); err != nil {
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Fatal("store still degraded after a successful commit")
	}
	st := s.Stats()
	if st.CommitErrors != 2 || st.Commits != 1 || st.LastCommitError != "" {
		t.Fatalf("stats = %+v, want 2 commit errors, 1 commit, cleared last error", st)
	}
	if _, ok := s.Get(fp); !ok {
		t.Fatal("healed commit missed")
	}
}
