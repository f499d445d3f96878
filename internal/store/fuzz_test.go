package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeEntry holds entry decoding to its contract on arbitrary
// bytes: decodeEntry never panics; an entry it accepts re-encodes with
// encodeEntry and decodes to an equal entry; and Get on a file holding
// the bytes either serves an entry carrying the requested fingerprint
// or quarantines the file.
func FuzzDecodeEntry(f *testing.F) {
	fp := strings.Repeat("5a", 32)
	valid, err := encodeEntry(testEntry(fp))
	if err != nil {
		f.Fatal(err)
	}
	nl := bytes.IndexByte(valid, '\n')
	payload := valid[nl+1:]
	flipped := bytes.Clone(valid)
	flipped[nl+1+len(payload)/2] ^= 0x20
	v2 := bytes.Replace(valid, []byte(header+" 1 "), []byte(header+" 2 "), 1)
	var sum string
	var n int
	if _, err := fmt.Sscanf(string(valid[:nl]), header+" 1 %s %d", &sum, &n); err != nil {
		f.Fatal(err)
	}
	negative := append([]byte(fmt.Sprintf("%s 1 %s -%d\n", header, sum, n)), payload...)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped)
	f.Add(v2)
	f.Add(negative)
	f.Add(valid[:nl])
	// A well-framed payload encodeEntry would never write.
	empty := []byte(`{"fingerprint":"` + fp + `","result":{},"artifacts":{}}`)
	sha := sha256.Sum256(empty)
	f.Add(append([]byte(fmt.Sprintf("%s 1 %x %d\n", header, sha, len(empty))), empty...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := decodeEntry(data); err == nil {
			re, err := encodeEntry(e)
			if err != nil {
				t.Fatalf("accepted entry does not re-encode: %v", err)
			}
			back, err := decodeEntry(re)
			if err != nil {
				t.Fatalf("re-encoded entry does not decode: %v\n%q", err, re)
			}
			// Encoding omits an empty artifact map, so an accepted
			// {"artifacts":{}} comes back nil: the same entry.
			if len(e.Artifacts) == 0 {
				e.Artifacts = nil
			}
			if !reflect.DeepEqual(e, back) {
				t.Fatalf("round trip changed the entry:\n%+v\n%+v", e, back)
			}
		}

		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, entriesDir, fp+entrySuffix)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(fp)
		if ok {
			if got.Fingerprint != fp || got.Result == nil {
				t.Fatalf("served an entry for %s with fingerprint %q, result %v", fp, got.Fingerprint, got.Result)
			}
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("refused entry still in entries/: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, fp+entrySuffix)); err != nil {
			t.Fatalf("refused entry not quarantined: %v", err)
		}
		if st := s.Stats(); st.Quarantined != 1 {
			t.Fatalf("quarantined = %d, want 1", st.Quarantined)
		}
	})
}
