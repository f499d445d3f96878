package faults

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mtprefetch/internal/core"
	"mtprefetch/internal/store"
	"mtprefetch/internal/workload"
)

// storeSpec is a tiny but real run for store round-trips.
func storeSpec(t *testing.T) core.Options {
	t.Helper()
	s := workload.ByName("stream")
	if s == nil {
		t.Fatal("workload suite missing stream")
	}
	return core.Options{Workload: s.Scaled(8)}
}

func storeEntry(t *testing.T, key string, o core.Options) (*store.Entry, string) {
	t.Helper()
	fp, err := store.Fingerprint(key, o)
	if err != nil {
		t.Fatal(err)
	}
	return &store.Entry{
		Key:         key,
		Fingerprint: fp,
		Result:      &core.Result{Benchmark: "stream", Cycles: 777, CPI: 1.25},
		Artifacts:   map[string][]byte{"metrics": []byte("{}\n")},
	}, fp
}

// TestChaosStoreTornWriteNeverServed: a torn commit (crash mid-write)
// must fail, must never be served — not by the writing store and not
// by a fresh Open over the same directory — and the slot must accept a
// clean re-commit.
func TestChaosStoreTornWriteNeverServed(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{Inner: store.OSFS(), TornWriteN: 1}
	s, err := store.Open(dir, store.WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	e, fp := storeEntry(t, "k", storeSpec(t))
	if err := s.Put(e); err == nil {
		t.Fatal("Put succeeded through a torn write")
	}
	if _, ok := s.Get(fp); ok {
		t.Fatal("torn entry was served by the writing store")
	}
	// A fresh process (Open sweeps tmp/) must not resurrect the torn
	// bytes either.
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(fp); ok {
		t.Fatal("torn entry was served after reopen")
	}
	if n := s2.Stats().Entries; n != 0 {
		t.Fatalf("reopened store indexed %d entries from torn state, want 0", n)
	}
	// The second write is clean: the slot heals.
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(fp)
	if !ok || got.Result.Cycles != 777 {
		t.Fatalf("healed commit not served intact: %+v ok=%v", got, ok)
	}
}

// TestChaosStoreReadCorruptionQuarantined: a bit flipped on the read
// path must be detected by the checksum, quarantined, and served as a
// miss — never as data.
func TestChaosStoreReadCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{Inner: store.OSFS()}
	s, err := store.Open(dir, store.WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	e, fp := storeEntry(t, "k", storeSpec(t))
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	ffs.CorruptReadN = ffs.Reads() + 1
	if got, ok := s.Get(fp); ok {
		t.Fatalf("corrupted read was served: %+v", got)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", st)
	}
	// The entry was quarantined (conservatively: the store cannot tell a
	// bad disk from a bad read); a re-commit restores service.
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(fp); !ok {
		t.Fatal("re-committed entry missed after read corruption")
	}
}

// TestChaosStoreKillNineResume simulates SIGKILL mid-commit: committed
// entries plus in-flight tmp garbage on disk. A fresh Open must serve
// exactly the committed entries, byte-identically, and sweep the rest.
func TestChaosStoreKillNineResume(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := storeSpec(t)
	e1, fp1 := storeEntry(t, "k1", o)
	e2, fp2 := storeEntry(t, "k2", o)
	if err := s.Put(e1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(e2); err != nil {
		t.Fatal(err)
	}
	// The kill-9 debris: torn tmp files from in-flight commits.
	for _, name := range []string{"a.1.1.tmp", "b.2.9.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, "tmp", name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Stats().Entries; n != 2 {
		t.Fatalf("resumed store indexed %d entries, want 2", n)
	}
	for _, tc := range []struct {
		fp   string
		want *store.Entry
	}{{fp1, e1}, {fp2, e2}} {
		got, ok := s2.Get(tc.fp)
		if !ok {
			t.Fatalf("resumed store missed %s", tc.want.Key)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(tc.want)
		if string(gb) != string(wb) {
			t.Fatalf("resumed entry diverges:\ngot  %s\nwant %s", gb, wb)
		}
	}
	if st := s2.Stats(); st.Quarantined != 0 {
		t.Fatalf("resume quarantined %d clean entries", st.Quarantined)
	}
}
