package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mtprefetch/internal/config"
	"mtprefetch/internal/core"
	"mtprefetch/internal/obs"
)

// dump writes a crash-dump bundle for a failed run when Config.CrashDir
// is set, returning the bundle directory ("" when dumping is disabled
// or the write failed — a dump failure must never mask the run error).
func (r *runner) dump(re *RunError, o core.Options, sim *core.Simulator) string {
	if r.c.CrashDir == "" {
		return ""
	}
	dir, err := writeCrashDump(r.c.CrashDir, re, o, sim)
	if err != nil {
		fmt.Fprintf(os.Stderr, "harness: crash dump for %s failed: %v\n", re.Key, err)
		return ""
	}
	return dir
}

// writeCrashDump materialises one failed run's diagnostics under
// dir/<sanitised-key>/:
//
//	error.txt      the failure message, options fingerprint, and stack
//	config.json    the machine configuration the run used
//	metrics.json   a snapshot of the metrics registry (when a simulator
//	               was built)
//	livelock.json  the watchdog's machine snapshot (livelock aborts only)
//	trace.json     the obs ring-buffer tail as a Chrome trace (when the
//	               run had a tracer attached)
func writeCrashDump(dir string, re *RunError, o core.Options, sim *core.Simulator) (string, error) {
	sub := filepath.Join(dir, sanitizeKey(re.Key))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return "", err
	}

	var b strings.Builder
	if re.Panic != nil {
		fmt.Fprintf(&b, "panic: %v\n", re.Panic)
	} else if re.Err != nil {
		fmt.Fprintf(&b, "error: %v\n", re.Err)
	}
	fmt.Fprintf(&b, "run: %s\noptions: %s\n", re.Key, re.Fingerprint)
	if len(re.Stack) > 0 {
		fmt.Fprintf(&b, "\n%s", re.Stack)
	}
	if err := os.WriteFile(filepath.Join(sub, "error.txt"), []byte(b.String()), 0o644); err != nil {
		return "", err
	}

	cfg := o.Config
	if cfg == nil {
		cfg = config.Baseline()
	}
	if err := writeJSON(filepath.Join(sub, "config.json"), cfg); err != nil {
		return "", err
	}
	if sim != nil {
		if err := writeJSON(filepath.Join(sub, "metrics.json"), sim.Registry().Snapshot()); err != nil {
			return "", err
		}
	}
	var ll *core.LivelockError
	if errors.As(re.Err, &ll) {
		if err := writeJSON(filepath.Join(sub, "livelock.json"), ll.Snapshot); err != nil {
			return "", err
		}
	}
	if o.Obs != nil && o.Obs.Tracer != nil {
		if err := writeTrace(filepath.Join(sub, "trace.json"), re.Key, o.Obs.Tracer); err != nil {
			return "", err
		}
	}
	return sub, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeTrace(path, key string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw, err := obs.NewTraceWriter(f)
	if err == nil {
		err = tw.AddRun(0, key, t)
	}
	if err == nil {
		err = tw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitizeKey maps a memoisation key onto a filesystem-safe directory
// name (keys embed '/' separators). The readable part is lossy — every
// disallowed rune flattens to '_', so distinct keys like "sw/a_b" and
// "sw/a/b" collide — hence the suffix: an FNV-32a hash of the raw key
// keeps the directory unique per key, so two failed runs can never
// overwrite each other's dump bundles.
func sanitizeKey(key string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '+', r == '=':
			return r
		default:
			return '_'
		}
	}, key)
	h := fnv.New32a()
	io.WriteString(h, key) //nolint:errcheck // hash writes cannot fail
	return fmt.Sprintf("%s-%08x", mapped, h.Sum32())
}
