package main

import (
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// parse runs the production flag definitions over argv with errors
// returned instead of exiting, mirroring main's wiring.
func parse(t *testing.T, argv []string) (*cliFlags, []string, error) {
	t.Helper()
	fs := flag.NewFlagSet("mtpref", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cli := defineFlags(fs)
	pos, err := parseIntermixed(fs, argv)
	return cli, pos, err
}

func TestParseFlagsBeforePositionals(t *testing.T) {
	cli, pos, err := parse(t, []string{"-waves", "3", "-j", "4", "-full", "run", "fig10"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pos, []string{"run", "fig10"}) {
		t.Errorf("positionals = %v", pos)
	}
	if cli.waves != 3 || cli.workers != 4 || !cli.full {
		t.Errorf("flags = %+v, want waves=3 workers=4 full=true", cli)
	}
}

func TestParseFlagsAfterPositionals(t *testing.T) {
	cli, pos, err := parse(t, []string{"run", "fig12", "-metrics", "m.jsonl", "-sample", "500", "-j", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pos, []string{"run", "fig12"}) {
		t.Errorf("positionals = %v", pos)
	}
	if cli.metricsPath != "m.jsonl" || cli.sample != 500 || cli.workers != 2 {
		t.Errorf("flags = %+v, want metrics=m.jsonl sample=500 workers=2", cli)
	}
}

func TestParseFlagsIntermixed(t *testing.T) {
	cli, pos, err := parse(t, []string{
		"-trace", "t.json", "run", "-j", "8", "fig10", "-waves", "1", "fig12", "-full"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pos, []string{"run", "fig10", "fig12"}) {
		t.Errorf("positionals = %v", pos)
	}
	if cli.tracePath != "t.json" || cli.workers != 8 || cli.waves != 1 || !cli.full {
		t.Errorf("flags = %+v, want trace=t.json workers=8 waves=1 full=true", cli)
	}
}

func TestParseCrashDir(t *testing.T) {
	cli, pos, err := parse(t, []string{"run", "table3", "-crashdir", "/tmp/dumps"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pos, []string{"run", "table3"}) {
		t.Errorf("positionals = %v", pos)
	}
	if cli.crashDir != "/tmp/dumps" {
		t.Errorf("crashDir = %q, want /tmp/dumps", cli.crashDir)
	}
}

func TestParseDefaults(t *testing.T) {
	cli, pos, err := parse(t, []string{"list"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pos, []string{"list"}) {
		t.Errorf("positionals = %v", pos)
	}
	if cli.waves != 2 || cli.sample != 10_000 || cli.full || cli.csvDir != "" || cli.crashDir != "" {
		t.Errorf("defaults = %+v", cli)
	}
	if cli.workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS (%d)", cli.workers, runtime.GOMAXPROCS(0))
	}
}

func TestParseBadFlag(t *testing.T) {
	for _, argv := range [][]string{
		{"-bogus", "run", "fig10"},
		{"run", "fig10", "-bogus"},
		{"-waves", "x", "list"},
	} {
		if _, _, err := parse(t, argv); err == nil {
			t.Errorf("parse(%v) succeeded, want error", argv)
		}
	}
}

func TestParseStoreFlags(t *testing.T) {
	cli, pos, err := parse(t, []string{"run", "fig10", "-store", "/tmp/results",
		"-run-timeout", "5m"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pos, []string{"run", "fig10"}) {
		t.Errorf("positionals = %v", pos)
	}
	if cli.storeDir != "/tmp/results" {
		t.Errorf("storeDir = %q, want /tmp/results", cli.storeDir)
	}
	if cli.runTimeout != 5*time.Minute {
		t.Errorf("runTimeout = %v, want 5m", cli.runTimeout)
	}
}

func TestParseStoreDefaults(t *testing.T) {
	cli, _, err := parse(t, []string{"list"})
	if err != nil {
		t.Fatal(err)
	}
	if cli.storeDir != "" || cli.runTimeout != 0 {
		t.Errorf("store defaults = %+v, want disabled store and no deadline", cli)
	}
}

func TestParseBadDuration(t *testing.T) {
	if _, _, err := parse(t, []string{"run", "fig10", "-run-timeout", "soon"}); err == nil {
		t.Error("parse accepted a malformed -run-timeout")
	}
}

// TestValidateRejectsMeaninglessFlags: a flag value that parses but
// that the library would silently replace with its default is a usage
// error naming the flag.
func TestValidateRejectsMeaninglessFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-sample", "0"},
		{"-span-every", "0"},
		{"-waves", "0"},
		{"-waves", "-1"},
		{"-j", "0"},
		{"-j", "-2"},
		{"-run-timeout", "-1s"},
	} {
		cli, _, err := parse(t, []string{"run", "table3", tc.flag, tc.value})
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.validate(); err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("validate with %s %s = %v, want an error naming %s", tc.flag, tc.value, err, tc.flag)
		}
	}
	cli, _, err := parse(t, []string{"-waves", "1", "-j", "1", "-span-every", "1", "-sample", "1", "-run-timeout", "0", "list"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.validate(); err != nil {
		t.Errorf("smallest meaningful flags rejected: %v", err)
	}
	cli, _, err = parse(t, []string{"list"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.validate(); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
}

// TestStoreKillAndResume is the result store's crash-safety contract
// end to end, with the real binary: a sweep SIGKILLed mid-flight (no
// drain, no cleanup), then resumed over the surviving store, then rerun
// warm over the completed store, must print tables byte-identical to a
// storeless cold run once the wall-clock lines are normalised. Every
// committed entry is served as-is, every lost or in-flight run
// re-simulates, and a torn entry would change cells.
func TestStoreKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mtpref and runs four sweeps")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mtpref")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	storeDir := filepath.Join(dir, "store")
	exp := []string{"-waves", "1", "run", "table3", "gstable"}
	completed := regexp.MustCompile(`completed in .*`)
	sweep := func(flags ...string) string {
		t.Helper()
		out, err := exec.Command(bin, append(flags, exp...)...).Output()
		if err != nil {
			t.Fatalf("mtpref %v: %v", flags, err)
		}
		return completed.ReplaceAllString(string(out), "completed")
	}
	cold := sweep()

	// -j 1 stretches the sweep; killing it once the first entry is
	// committed lands the kill mid-sweep at any host speed.
	killed := exec.Command(bin, append([]string{"-j", "1", "-store", storeDir}, exp...)...)
	if err := killed.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- killed.Wait() }()
	entries := filepath.Join(storeDir, "entries")
wait:
	for {
		select {
		case err := <-exited:
			t.Logf("sweep exited (%v) before it could be killed", err)
			break wait
		case <-time.After(2 * time.Millisecond):
		}
		if names, _ := os.ReadDir(entries); len(names) > 0 {
			if err := killed.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			<-exited
			break
		}
	}
	names, err := os.ReadDir(entries)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("killed with %d entries committed", len(names))

	if resumed := sweep("-store", storeDir); resumed != cold {
		t.Fatalf("resumed output differs from the cold run:\n--- resumed ---\n%s--- cold ---\n%s", resumed, cold)
	}
	if warm := sweep("-store", storeDir); warm != cold {
		t.Fatalf("warm output differs from the cold run:\n--- warm ---\n%s--- cold ---\n%s", warm, cold)
	}
}
