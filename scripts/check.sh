#!/bin/sh
# The verification gate, the one list of its steps: `make check` runs
# this script and `make chaos` runs its chaos step. It writes no tracked
# file unless a fuzz target fails, when Go saves the failing input under
# that package's testdata/fuzz.
#
#   scripts/check.sh         the full gate
#   scripts/check.sh chaos   the fault-injection suite only
#
# GO names the go command (default go).
#
# The full gate runs vet, build, race-enabled tests (including the
# scaled-down parallel-harness sweep, see harness_test.go, whose
# reference diff against results_reference.txt covers Tables II, V and
# VI under the race detector and every table without it, and the
# allocation budgets, see alloc_test.go), the fault-injection suite, then
# 15 s of fuzzing each for the coalescer against its per-lane reference
# (FuzzTransactions), DRAM retirement against the per-cycle walk
# (FuzzRetireOrder), the kernel-spec parser (FuzzParseSpec), whole runs
# of arbitrary specs with the invariant sweep on (FuzzRunSpec), result-
# store entry decoding (FuzzDecodeEntry) and mtstat on arbitrary input
# (FuzzMtstat); plain `go test` only replays their seed corpora.
set -eux
cd "$(dirname "$0")/.."
GO=${GO:-go}

# Fault-injection suite: injected livelocks, dropped completions, and
# corrupted stride tables must be caught by the watchdog / invariant
# checker (internal/faults); a poisoned run must degrade to ERR cells
# without disturbing its siblings (internal/harness); the result store
# must quarantine corruption, survive torn writes and kill-9, and degrade
# on a failed commit until one succeeds (internal/store, internal/faults);
# and a sweep must honour its run deadline and drain gracefully
# (internal/harness).
chaos() {
	$GO test -timeout 10m -run 'Chaos|Stalled|Dropped|Corrupt|CleanRun|Poisoned|CrashDump|Taxonomy|Store|Torn|Quarantine|Resume|Drain|RunTimeout|Sanitize' \
		./internal/faults/... ./internal/harness/... ./internal/store/...
}

# fuzz TARGET PACKAGE runs one fuzz target for 15 s.
fuzz() {
	$GO test -run '^$' -fuzz "^$1\$" -fuzztime 15s "$2"
}

case "${1:-all}" in
chaos)
	chaos
	exit
	;;
all) ;;
*)
	echo "usage: scripts/check.sh [chaos]" >&2
	exit 2
	;;
esac

$GO vet ./...
$GO build ./...
$GO test -race ./...
chaos
fuzz FuzzTransactions ./internal/kernel
fuzz FuzzRetireOrder ./internal/dram
fuzz FuzzParseSpec ./internal/workload
fuzz FuzzRunSpec ./internal/core
fuzz FuzzDecodeEntry ./internal/store
fuzz FuzzMtstat ./cmd/mtstat
