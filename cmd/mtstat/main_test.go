package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mtprefetch/internal/harness"
	"mtprefetch/internal/obs"
)

// pfJSONL covers two runs: a stride-RPT hardware run and an MT-HWP
// IP-table run, with a pfsummary trailer each and a record kind no
// section reads. Values are chosen so the derived columns are easy to
// eyeball: stride-rpt accuracy (used/issued) = (6+2)/10 = 0.800, merge
// ratio 2/10 = 0.200, early rate 2/8 = 0.250; hw-ip accuracy = 3/4 =
// 0.750.
const pfJSONL = `{"record":"pfreport","run":"hw/a/stride/true","source":"stride-rpt","pc":4,"generated":12,"dropped_throttle":1,"dropped_filter":0,"dropped_in_cache":1,"dropped_queue_full":0,"merged_mrq":0,"issued":10,"late":2,"redundant":0,"useful":6,"early_evicted":2,"unused_at_drain":0,"hits":9,"demand_merges":2,"degree_sum":20}
{"record":"pfsummary","run":"hw/a/stride/true","demand_transactions":100,"generated":12,"issued":10,"useful":6,"late":2,"early_evicted":2,"hits":9}
{"record":"pfreport","run":"hw/b/pws+ip/true","source":"hw-ip","pc":7,"generated":5,"dropped_throttle":0,"dropped_filter":0,"dropped_in_cache":1,"dropped_queue_full":0,"merged_mrq":0,"issued":4,"late":1,"redundant":0,"useful":2,"early_evicted":1,"unused_at_drain":0,"hits":3,"demand_merges":1,"degree_sum":4}
{"record":"pfsummary","run":"hw/b/pws+ip/true","demand_transactions":50,"generated":5,"issued":4,"useful":2,"late":1,"early_evicted":1,"hits":3}
{"record":"epoch","run":"hw/b/pws+ip/true","cycle":512}
`

// cpiJSONL covers a two-core and a one-core run, with an epoch line no
// section reads. Run a totals 2000 cycles: 1000 issued (50.0%), 400
// scoreboard (20.0%), 300 mrq_full (15.0%), 200 idle (10.0%), 100 drain
// (5.0%); run b is 100% issued.
const cpiJSONL = `{"record":"cpistack","run":"hw/a/stride/true","core":0,"cycles":1000,"issued":600,"idle":100,"scoreboard":200,"mrq_full":100,"throttled":0,"drain":0}
{"record":"cpistack","run":"hw/a/stride/true","core":1,"cycles":1000,"issued":400,"idle":100,"scoreboard":200,"mrq_full":200,"throttled":0,"drain":100}
{"record":"epoch","run":"hw/a/stride/true","cycle":512,"ipc":0.5}
{"record":"cpistack","run":"hw/b/none/false","core":0,"cycles":500,"issued":500,"idle":0,"scoreboard":0,"mrq_full":0,"throttled":0,"drain":0}
`

// spanJSONL covers two runs, with an epoch line no section reads.
// Source "none" fills twice with 100 and 300 end-to-end cycles, 200 of
// them in DRAM service (50.0%), and merges once; "stride-rpt" fills once
// and is rejected once.
const spanJSONL = `{"record":"span","run":"hw/a/stride/true","id":1,"core":0,"warp":0,"pc":4,"kind":"load","source":"none","terminal":"fill","issue":10,"mrq":10,"noc_req":10,"dram_queue":10,"dram_service":60,"noc_resp":10,"total":100}
{"record":"span","run":"hw/a/stride/true","id":2,"core":0,"warp":1,"pc":4,"kind":"prefetch","source":"stride-rpt","terminal":"mrq_rejected","issue":12,"mrq":0,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":0}
{"record":"span","run":"hw/a/stride/true","id":3,"core":1,"warp":2,"pc":8,"kind":"prefetch","source":"stride-rpt","terminal":"fill","issue":20,"mrq":40,"noc_req":10,"dram_queue":20,"dram_service":20,"noc_resp":10,"total":100}
{"record":"epoch","run":"hw/a/stride/true","cycle":512,"ipc":0.5}
{"record":"span","run":"hw/b/none/false","id":4,"core":0,"warp":0,"pc":4,"kind":"load","source":"none","terminal":"fill","issue":5,"mrq":30,"noc_req":30,"dram_queue":70,"dram_service":140,"noc_resp":30,"total":300}
{"record":"span","run":"hw/b/none/false","id":5,"core":0,"warp":3,"pc":4,"kind":"load","source":"none","terminal":"mrq_merged","issue":6,"mrq":0,"noc_req":0,"dram_queue":0,"dram_service":0,"noc_resp":0,"total":0}
`

// mtstat runs the command over stdin and args and returns its exit code
// and outputs.
func mtstat(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustRender runs mtstat and fails unless it exits 0.
func mustRender(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	code, out, errOut := mtstat(t, stdin, args...)
	if code != 0 {
		t.Fatalf("mtstat %v exited %d: %s", args, code, errOut)
	}
	return out
}

// rowOf returns the first output line starting with prefix.
func rowOf(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no line starts with %q:\n%s", prefix, out)
	return ""
}

func wantAll(t *testing.T, what, got string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("%s missing %q:\n%s", what, w, got)
		}
	}
}

func TestPFReportSummaryTable(t *testing.T) {
	out := mustRender(t, pfJSONL)
	if !strings.HasPrefix(out, "2 run(s), 150 demand transactions\n") {
		t.Errorf("header wrong:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 4 { // header, columns, two sources
		t.Fatalf("got %d lines, want 4:\n%s", n, out)
	}
	// accuracy (6+2)/10, merge ratio 2/10, early rate 2/(6+2)
	wantAll(t, "stride-rpt row", rowOf(t, out, "stride-rpt"), "0.800", "0.200", "0.250")
	wantAll(t, "hw-ip row", rowOf(t, out, "hw-ip"), "0.750") // accuracy 3/4
}

// TestPFReportPerPCTable: -detail rebuilds the per-(source, PC) report,
// which must satisfy the conservation identities the simulator
// enforces.
func TestPFReportPerPCTable(t *testing.T) {
	a := newAggregate(io.Discard)
	if err := a.read(strings.NewReader(pfJSONL), nil); err != nil {
		t.Fatal(err)
	}
	if err := a.pfRep.CheckConservation(0); err != nil {
		t.Fatalf("rebuilt ledger does not balance: %v", err)
	}
	summary := mustRender(t, pfJSONL)
	out := mustRender(t, pfJSONL, "-detail")
	perPC, ok := strings.CutPrefix(out, summary+"\n")
	if !ok {
		t.Fatalf("-detail does not extend the summary by a blank line and a table:\n%s", out)
	}
	wantAll(t, "per-PC table", perPC, "stride-rpt", "hw-ip", "accuracy", "lateness")
}

func TestCPIStackSummaryTable(t *testing.T) {
	out := mustRender(t, cpiJSONL)
	if !strings.HasPrefix(out, "2 run(s)\n") {
		t.Errorf("header wrong:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 4 { // header, columns, two runs
		t.Fatalf("got %d lines, want 4:\n%s", n, out)
	}
	// run a: 2 cores, 2000 cycles; issued 50.0, scoreboard 20.0,
	// mrq_full 15.0, idle 10.0, drain 5.0
	wantAll(t, "run a row", rowOf(t, out, "hw/a/"), " 2 ", "2000", "50.0", "20.0", "15.0", "10.0", "5.0")
	wantAll(t, "run b row", rowOf(t, out, "hw/b/"), "500", "100.0", "0.0")
}

func TestCPIStackByCoreTable(t *testing.T) {
	summary := mustRender(t, cpiJSONL)
	out := mustRender(t, cpiJSONL, "-detail")
	byCore, ok := strings.CutPrefix(out, summary)
	if !ok {
		t.Fatalf("-detail does not extend the summary:\n%s", out)
	}
	wantAll(t, "per-core tables", byCore, "\nhw/a/stride/true\n", "\nhw/b/none/false\n",
		"scoreboard", "mrq_full")
	// Raw counts per core: run a's core 0 issued 600 of 1000 cycles.
	wantAll(t, "core 0 row", rowOf(t, byCore, "0 "), "1000", "600", "100", "200")
}

func TestSpanWaterfall(t *testing.T) {
	out := mustRender(t, spanJSONL)
	if !strings.HasPrefix(out, "2 run(s), 5 sampled span(s)\n") {
		t.Errorf("header wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[2], "none ") || !strings.HasPrefix(lines[3], "stride-rpt ") {
		t.Fatalf("want a header, the columns, and rows sorted by source name:\n%s", out)
	}
	wantAll(t, "columns", lines[1], "fills", "merged", "reject", "dropped", "dramsvc%")
	// none: 2 fills, 1 merged, mean 200 cycles, DRAM service 200/400.
	if got := strings.Fields(lines[2]); got[1] != "2" || got[2] != "1" || got[5] != "200.0" || got[9] != "50.0" {
		t.Errorf("none row = %q", lines[2])
	}
	// stride-rpt: 1 fill, 1 reject, MRQ 40/100.
	if got := strings.Fields(lines[3]); got[1] != "1" || got[3] != "1" || got[6] != "40.0" {
		t.Errorf("stride-rpt row = %q", lines[3])
	}
	detail := mustRender(t, spanJSONL, "-detail")
	perRun, ok := strings.CutPrefix(detail, out)
	if !ok {
		t.Fatalf("-detail does not extend the cross-run waterfall:\n%s", detail)
	}
	a := strings.Index(perRun, "\nhw/a/stride/true\n")
	b := strings.Index(perRun, "\nhw/b/none/false\n")
	if a != 0 || b < a {
		t.Fatalf("per-run waterfalls missing or out of order:\n%s", perRun)
	}
	if n := strings.Count(perRun[b:], "\nnone "); n != 1 || strings.Contains(perRun[b:], "stride-rpt") {
		t.Errorf("run b's waterfall should hold only source none:\n%s", perRun[b:])
	}
}

// TestSectionsInOrder: a mixed input prints each stream's section
// exactly as that stream alone renders it, in the order pfreport,
// cpistack, spans, one blank line apart, whatever order the records
// arrive in.
func TestSectionsInOrder(t *testing.T) {
	for _, args := range [][]string{nil, {"-detail"}} {
		want := mustRender(t, pfJSONL, args...) + "\n" +
			mustRender(t, cpiJSONL, args...) + "\n" +
			mustRender(t, spanJSONL, args...)
		if got := mustRender(t, spanJSONL+cpiJSONL+pfJSONL, args...); got != want {
			t.Errorf("mtstat %v of a mixed stream:\n%s\nwant:\n%s", args, got, want)
		}
	}
	// A stream with no records prints no section.
	if got, want := mustRender(t, spanJSONL+pfJSONL), mustRender(t, pfJSONL)+"\n"+mustRender(t, spanJSONL); got != want {
		t.Errorf("pfreport+spans:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunFilter: -run keeps only the records of matching runs, in each
// stream and across a mixed input.
func TestRunFilter(t *testing.T) {
	t.Run("pfreport", func(t *testing.T) {
		out := mustRender(t, pfJSONL, "-run", "stride")
		wantAll(t, "pfreport header", out, "1 run(s), 100 demand transactions\n")
		if strings.Contains(out, "hw-ip") {
			t.Errorf("filtered-out run's source still aggregated:\n%s", out)
		}
	})
	t.Run("cpistack", func(t *testing.T) {
		out := mustRender(t, cpiJSONL, "-run", "stride")
		wantAll(t, "cpistack header", out, "1 run(s)\n")
		if strings.Contains(out, "hw/b/") {
			t.Errorf("filtered-out run still aggregated:\n%s", out)
		}
	})
	t.Run("all_streams", func(t *testing.T) {
		all := pfJSONL + cpiJSONL + spanJSONL
		keep := func(run string) string {
			var b strings.Builder
			for _, l := range strings.SplitAfter(all, "\n") {
				if strings.Contains(l, `"run":"`+run) {
					b.WriteString(l)
				}
			}
			return b.String()
		}
		for _, args := range [][]string{nil, {"-detail"}} {
			got := mustRender(t, all, append([]string{"-run", "^hw/a/"}, args...)...)
			if want := mustRender(t, keep("hw/a/"), args...); got != want {
				t.Errorf("-run ^hw/a/ %v:\n%s\nwant the records of run a alone:\n%s", args, got, want)
			}
			if strings.Contains(got, "hw-ip") || strings.Contains(got, "hw/b/") {
				t.Errorf("filtered-out run still aggregated:\n%s", got)
			}
		}
	})
}

// TestMergesAcrossFiles: several files aggregate as one input, both
// when they hold different runs and when they repeat the same ones.
func TestMergesAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pf := write("pf.jsonl", pfJSONL)
	cpi := write("cpi.jsonl", cpiJSONL)

	t.Run("streams", func(t *testing.T) {
		spans := write("spans.jsonl", spanJSONL)
		if got, want := mustRender(t, "", pf, cpi, spans), mustRender(t, pfJSONL+cpiJSONL+spanJSONL); got != want {
			t.Errorf("three files:\n%s\nwant their concatenation:\n%s", got, want)
		}
	})
	t.Run("pfreport", func(t *testing.T) {
		pf2 := write("pf2.jsonl", strings.ReplaceAll(pfJSONL, "hw/b/", "hw/c/"))
		out := mustRender(t, "", pf, pf2)
		wantAll(t, "two pfreport files", out, "3 run(s), 300 demand transactions")
		wantAll(t, "stride-rpt row", rowOf(t, out, "stride-rpt"), " 24 ", " 20 ") // generated, issued
	})
	t.Run("cpistack", func(t *testing.T) {
		out := mustRender(t, "", "-detail", cpi, cpi)
		wantAll(t, "run a row", rowOf(t, out, "hw/a/"), " 2 ", "4000")
		wantAll(t, "one file read twice", out, "\nhw/a/stride/true\ncore ")
	})
}

// TestEmptyInput: input without a single pfreport, cpistack or span
// record exits 1 with a message naming the streams' mtpref flags, or
// the -run pattern that matched nothing, instead of printing an empty
// table.
func TestEmptyInput(t *testing.T) {
	wantEmpty := func(t *testing.T, in string) {
		t.Helper()
		code, out, errOut := mtstat(t, in)
		if code != 1 || out != "" {
			t.Errorf("input %q: exit %d, stdout %q; want 1 and nothing", in, code, out)
		}
		wantAll(t, "empty-input message", errOut, "-pfreport", "-cpistack", "-spans")
	}
	t.Run("no_records", func(t *testing.T) {
		for _, in := range []string{"", "\n\n"} {
			a := newAggregate(io.Discard)
			if err := a.read(strings.NewReader(in), nil); err != nil || !a.empty() {
				t.Errorf("input %q: read error %v, empty %v; want no error and empty", in, err, a.empty())
			}
			wantEmpty(t, in)
		}
	})
	// Metrics lines, the epoch records and the untagged lines of older
	// files, print nothing; they change nothing beside a stream's own
	// records.
	others := `{"record":"epoch","run":"x","cycle":1}` + "\n" + `{"run":"x","cycle":10000,"ipc":0.5}` + "\n"
	for _, s := range []struct{ name, records string }{
		{"pfreport", pfJSONL}, {"cpistack", cpiJSONL}, {"spans", spanJSONL},
	} {
		t.Run(s.name, func(t *testing.T) {
			wantEmpty(t, others)
			if got, want := mustRender(t, others+s.records), mustRender(t, s.records); got != want {
				t.Errorf("other record kinds changed the output:\n%s\nwant:\n%s", got, want)
			}
		})
	}
	t.Run("run_filter", func(t *testing.T) {
		code, _, errOut := mtstat(t, pfJSONL+cpiJSONL+spanJSONL, "-run", "^nomatch")
		if code != 1 || !strings.Contains(errOut, `-run "^nomatch"`) {
			t.Errorf("-run matching nothing: exit %d, stderr %q", code, errOut)
		}
	})
}

// TestRejectsGarbage: a line that is not JSON, or a record whose fields
// do not decode into the type internal/obs encodes it from, exits 1
// with nothing printed.
func TestRejectsGarbage(t *testing.T) {
	for _, c := range []struct {
		name string
		ins  []string
	}{
		{"not_json", []string{"not json\n", pfJSONL + "{\"record\":\"pfreport\",\n"}},
		{"pfreport", []string{pfJSONL + `{"record":"pfreport","run":"x","source":"hw-ip","issued":"ten"}` + "\n"}},
		{"cpistack", []string{`{"record":"cpistack","run":"x","core":"zero"}` + "\n"}},
		{"spans", []string{spanJSONL + `{"record":"span","run":"x","source":"none","total":-1}` + "\n"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, in := range c.ins {
				code, out, errOut := mtstat(t, in)
				if code != 1 || out != "" || !strings.Contains(errOut, "bad JSONL line") {
					t.Errorf("input %.40q: exit %d, stdout %q, stderr %q", in, code, out, errOut)
				}
			}
		})
	}
	t.Run("missing_file", func(t *testing.T) {
		if code, _, errOut := mtstat(t, "", filepath.Join(t.TempDir(), "missing.jsonl")); code != 1 || errOut == "" {
			t.Errorf("missing file: exit %d, stderr %q", code, errOut)
		}
	})
}

// TestReadSkipsBlankLines: blank lines, CRLF line ends, an unterminated
// last line and record kinds no section reads change nothing.
func TestReadSkipsBlankLines(t *testing.T) {
	want := mustRender(t, pfJSONL)
	for _, c := range []struct{ name, in string }{
		{"unread_kinds", "\n" + strings.ReplaceAll(pfJSONL, "\n", "\n\n") +
			`{"record":"pfnew","run":"hw/a/stride/true","x":1}` + "\n"},
		{"crlf", strings.TrimSuffix(strings.ReplaceAll(pfJSONL, "\n", "\r\n\r\n"), "\r\n\r\n")},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := mustRender(t, c.in); got != want {
				t.Errorf("input %.60q changed the output:\n%s\nwant:\n%s", c.in, got, want)
			}
		})
	}
}

// TestLongLines: lines far beyond bufio.Scanner's token limit (run keys
// are unbounded) must parse, not fail with "token too long", in every
// stream and between short lines.
func TestLongLines(t *testing.T) {
	run2 := strings.Repeat("r", 2<<20)
	read := func(t *testing.T, in string) *aggregate {
		t.Helper()
		a := newAggregate(io.Discard)
		if err := a.read(strings.NewReader(in), nil); err != nil {
			t.Fatalf("read with MiB lines: %v", err)
		}
		return a
	}
	long := func(stream string) string {
		return strings.ReplaceAll(stream, `"run":"hw/a/stride/true"`, `"run":"`+run2+`"`)
	}
	t.Run("pfreport", func(t *testing.T) {
		if a := read(t, long(pfJSONL)); !a.pfRuns[run2] {
			t.Error("long-named run not aggregated")
		}
	})
	t.Run("cpistack", func(t *testing.T) {
		if a := read(t, long(cpiJSONL)); a.cpiRuns[run2] == nil {
			t.Error("long-named run not aggregated")
		}
	})
	t.Run("spans", func(t *testing.T) {
		if a := read(t, long(spanJSONL)); a.spanRuns[run2] == nil {
			t.Error("long-named run not aggregated")
		}
	})
	// A 3 MiB and a 256 KiB line between short ones all come back whole.
	t.Run("framing", func(t *testing.T) {
		runs := []string{"short", strings.Repeat("s", 3<<20), strings.Repeat("t", 256<<10), "last"}
		var in strings.Builder
		for i, run := range runs {
			if i > 0 {
				in.WriteString("\n")
			}
			in.WriteString(`{"record":"cpistack","run":"` + run + `","core":0,"cycles":1,"issued":1}`)
		}
		a := read(t, in.String())
		for _, run := range runs {
			if a.cpiRuns[run] == nil {
				t.Errorf("run of %d bytes not aggregated", len(run))
			}
		}
		if len(a.cpiRuns) != len(runs) {
			t.Errorf("read %d runs, want %d", len(a.cpiRuns), len(runs))
		}
	})
}

// TestUnterminatedLastLine: a final record without a newline still
// counts.
func TestUnterminatedLastLine(t *testing.T) {
	long := `{"record":"cpistack","run":"` + strings.Repeat("z", 1<<20) + `","core":0,"cycles":7,"issued":7}`
	for _, in := range []string{strings.TrimSuffix(cpiJSONL, "\n"), cpiJSONL + long} {
		a := newAggregate(io.Discard)
		if err := a.read(strings.NewReader(in), nil); err != nil {
			t.Fatal(err)
		}
		last := in[strings.LastIndex(in, `"run":"`)+7:]
		last = last[:strings.IndexByte(last, '"')]
		if a.cpiRuns[last] == nil {
			t.Errorf("unterminated last record (run %.20q...) not aggregated", last)
		}
	}
}

// TestRejectsNegativeCore: a negative core id is malformed input — an
// error that aborts the read (exit 1, nothing printed), never a crash.
func TestRejectsNegativeCore(t *testing.T) {
	in := `{"record":"cpistack","run":"x","core":-1,"cycles":1,"issued":1}` + "\n" + cpiJSONL
	code, out, errOut := mtstat(t, in)
	if code != 1 || out != "" || !strings.Contains(errOut, "negative core -1") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

// TestReadLineErrorPropagates: an error aggregating one record aborts
// the read with that error, and no later record is aggregated.
func TestReadLineErrorPropagates(t *testing.T) {
	in := cpiJSONL + `{"record":"cpistack","run":"x","core":-1,"cycles":1,"issued":1}` + "\n" + pfJSONL
	a := newAggregate(io.Discard)
	err := a.read(strings.NewReader(in), nil)
	if err == nil || !strings.Contains(err.Error(), "negative core -1") {
		t.Fatalf("read returned %v, want the negative-core error", err)
	}
	if len(a.cpiRuns) != 2 || a.hasPF() {
		t.Errorf("read went on past the bad record: %d cpistack runs, pfreport records read: %v", len(a.cpiRuns), a.hasPF())
	}
}

// TestSparseCoreIDs: per-core rows follow the records read, so one
// record with a huge core id must not allocate a row per smaller id.
func TestSparseCoreIDs(t *testing.T) {
	in := fmt.Sprintf(`{"record":"cpistack","run":"x","core":%d,"cycles":1,"issued":1}`+"\n", 1<<20)
	a := newAggregate(io.Discard)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := a.read(strings.NewReader(in), nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("one record with core %d allocated %d bytes, want < 1 MiB", 1<<20, n)
	}
	if r := a.cpiRuns["x"]; r == nil || len(r.cores) != 1 {
		t.Error("run x not aggregated into exactly one core row")
	}
	out := mustRender(t, in, "-detail")
	wantAll(t, "per-core table", out, fmt.Sprintf("\n%-5d %14d", 1<<20, 1))
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-bypc"}, {"-run", "("}} {
		if code, out, errOut := mtstat(t, pfJSONL, args...); code != 2 || out != "" || errOut == "" {
			t.Errorf("mtstat %v: exit %d, stdout %q, stderr %q; want 2 and a diagnostic", args, code, out, errOut)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ci/*-gstable.golden from this run")

// TestGSTableGolden runs the GS-table sweep once in-process, as
// `mtpref -waves 1 -metrics F -pfreport F -cpistack F -spans F run
// gstable` would. Every line of the four streams must carry a record
// kind and a run key, and the kind must be one a section reads or the
// metrics stream's epoch, so no stream grows records without a reader.
// Each read stream is then rendered alone and diffed against its golden:
// ci/pfstat-gstable.golden (rendered with -detail),
// ci/cpistat-gstable.golden and ci/spanstat-gstable.golden. After a
// deliberate output change, rerun with -update and review the golden
// diffs.
func TestGSTableGolden(t *testing.T) {
	var metrics, pf, cpi, spans bytes.Buffer
	sink, err := obs.NewSink(&metrics, nil, &pf, &cpi, &spans, obs.Config{SampleEvery: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := harness.ByID("gstable").Run(harness.Config{Waves: 1, Obs: sink}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	t.Run("tagged", func(t *testing.T) {
		kinds := map[string]bool{"pfreport": true, "pfsummary": true, "cpistack": true, "span": true, "epoch": true}
		for name, stream := range map[string]*bytes.Buffer{"metrics": &metrics, "pfreport": &pf, "cpistack": &cpi, "spans": &spans} {
			lines := bytes.Split(bytes.TrimSuffix(stream.Bytes(), []byte("\n")), []byte("\n"))
			if len(lines) == 0 || len(lines[0]) == 0 {
				t.Errorf("%s stream is empty", name)
				continue
			}
			for _, l := range lines {
				var probe struct{ Record, Run string }
				if err := json.Unmarshal(l, &probe); err != nil {
					t.Fatalf("%s: %v: %s", name, err, l)
				}
				if probe.Run == "" || !kinds[probe.Record] {
					t.Fatalf("%s line without a run key or with a record kind mtstat does not read: %s", name, l)
				}
			}
		}
	})
	for _, g := range []struct {
		name, golden string
		stream       *bytes.Buffer
		detail       bool
	}{
		{"pfreport", "../../ci/pfstat-gstable.golden", &pf, true},
		{"cpistack", "../../ci/cpistat-gstable.golden", &cpi, false},
		{"spans", "../../ci/spanstat-gstable.golden", &spans, false},
	} {
		t.Run(g.name, func(t *testing.T) {
			a := newAggregate(io.Discard)
			if err := a.read(g.stream, nil); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := a.render(&got, g.detail); err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(g.golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(g.golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("mtstat output differs from %s (rerun with -update after a deliberate change):\n--- got ---\n%s--- want ---\n%s",
					g.golden, got.Bytes(), want)
			}
		})
	}
}
