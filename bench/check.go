package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"mtprefetch/internal/core"
	"mtprefetch/internal/harness"
	"mtprefetch/internal/stats"
)

// completedRE matches the timing part of mtpref's per-experiment footer,
// which CI normalises away before diffing tables.
var completedRE = regexp.MustCompile(`completed in .*`)

func normalize(s string) string { return completedRE.ReplaceAllString(s, "completed") }

// renderSection prints an experiment's tables exactly as `mtpref run` does.
func renderSection(e *harness.Experiment, tables []*stats.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%s) ==\n", e.ID, e.PaperRef)
	for _, t := range tables {
		fmt.Fprintln(&b, t)
	}
	fmt.Fprintf(&b, "[%s completed in 0s]\n\n", e.ID)
	return b.String()
}

// referenceSections splits results_reference.txt, the output of
// `mtpref all` at the default scale, into normalised per-experiment
// sections keyed by experiment id.
func referenceSections(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "results_reference.txt"))
	if err != nil {
		return nil, err
	}
	return splitSections(string(data)), nil
}

func splitSections(text string) map[string]string {
	out := map[string]string{}
	id, start := "", 0
	flush := func(end int) {
		if id != "" {
			out[id] = normalize(text[start:end])
		}
	}
	for i := 0; i < len(text); {
		line := text[i:]
		if j := strings.IndexByte(line, '\n'); j >= 0 {
			line = line[:j+1]
		}
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			flush(i)
			id, _, _ = strings.Cut(rest, " ")
			start = i
		}
		i += len(line)
	}
	flush(len(text))
	return out
}

//go:embed golden/suite-base.json
var goldenSuiteBase []byte

// golden maps each suite-base benchmark to its expected Result, as JSON.
type golden map[string]json.RawMessage

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenSuiteBase, &g); err != nil {
		return nil, fmt.Errorf("golden/suite-base.json: %w", err)
	}
	return g, nil
}

// matches reports whether res is byte-identical, as JSON, to its entry.
func (g golden) matches(res *core.Result) bool {
	want, ok := g[res.Benchmark]
	if !ok {
		return false
	}
	got, err := json.Marshal(res)
	if err != nil {
		return false
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		return false
	}
	return bytes.Equal(got, compact.Bytes())
}
