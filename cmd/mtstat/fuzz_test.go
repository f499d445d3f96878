package main

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzMtstat: mtstat on arbitrary stdin, with and without -detail, never
// panics; it exits 0 or 1, and on 1 it says why in a message starting
// "mtstat:".
func FuzzMtstat(f *testing.F) {
	for _, kind := range []string{"pfreport", "pfsummary", "cpistack", "span", "epoch"} {
		f.Add([]byte(firstRecord(f, kind)))
	}
	f.Add([]byte("\n"))
	f.Add([]byte(`{"record":"cpistack","run":"x","core":-1,"cycles":1,"issued":1}` + "\n"))
	f.Add([]byte(`{"record":"cpistack","run":"` + strings.Repeat("r", 1<<20) + `","core":0,"cycles":1,"issued":1}` + "\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, args := range [][]string{nil, {"-detail"}} {
			var out, errOut bytes.Buffer
			switch code := run(args, bytes.NewReader(in), &out, &errOut); code {
			case 0:
			case 1:
				if !strings.HasPrefix(errOut.String(), "mtstat:") {
					t.Errorf("mtstat %v exited 1 with stderr %q, want an mtstat: message", args, errOut.String())
				}
			default:
				t.Errorf("mtstat %v exited %d, want 0 or 1", args, code)
			}
		}
	})
}

// firstRecord returns the first line of the test streams whose record
// kind is kind, newline included.
func firstRecord(tb testing.TB, kind string) string {
	tb.Helper()
	for _, l := range strings.SplitAfter(pfJSONL+cpiJSONL+spanJSONL, "\n") {
		if strings.HasPrefix(l, `{"record":"`+kind+`"`) {
			return l
		}
	}
	tb.Fatalf("no %s record in the test streams", kind)
	return ""
}
