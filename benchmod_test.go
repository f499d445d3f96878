package mtprefetch_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchModule vets and short-tests bench/, a module of its own that
// `go test ./...` at the root never enters, so an internal API change
// that breaks the benchmark fails here and not only in CI.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("vets and tests the bench module")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "-short", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in bench/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
