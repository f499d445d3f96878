GO ?= go

.PHONY: check build test vet race chaos stats

# The full gate used before committing: vet, build, race-enabled tests
# (including the scaled-down parallel-harness sweep, see harness_test.go,
# and the allocation budgets, see alloc_test.go), the fault-injection
# suite, then 15 s of fuzzing each for the coalescer against its per-lane
# reference (FuzzTransactions), DRAM retirement against the per-cycle
# walk (FuzzRetireOrder), the kernel-spec parser (FuzzParseSpec), whole
# runs of arbitrary specs with the invariant sweep on (FuzzRunSpec) and
# result-store entry decoding (FuzzDecodeEntry); plain `go test` only
# replays their seed corpora. It writes no tracked file unless a fuzz
# target fails, when Go saves the failing input under that package's
# testdata/fuzz.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) chaos
	$(GO) test -run '^$$' -fuzz '^FuzzTransactions$$' -fuzztime 15s ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzRetireOrder$$' -fuzztime 15s ./internal/dram
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 15s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzRunSpec$$' -fuzztime 15s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime 15s ./internal/store

# Fault-injection suite: injected livelocks, dropped completions, and
# corrupted stride tables must be caught by the watchdog / invariant
# checker (internal/faults); a poisoned run must degrade to ERR cells
# without disturbing its siblings (internal/harness); the result store
# must quarantine corruption, survive torn writes and kill-9, and degrade
# on a failed commit until one succeeds (internal/store, internal/faults);
# and a sweep must honour its run deadline and drain gracefully
# (internal/harness).
chaos:
	$(GO) test -timeout 10m -run 'Chaos|Stalled|Dropped|Corrupt|CleanRun|Poisoned|CrashDump|Taxonomy|Store|Torn|Quarantine|Resume|Drain|RunTimeout|Sanitize' \
		./internal/faults/... ./internal/harness/... ./internal/store/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Observability demo: run the GS-table sweep with prefetch attribution,
# CPI stacks and request spans enabled, then render all three with
# cmd/mtstat — the per-source accuracy / coverage / merge-ratio /
# early-eviction table, each run's CPI stack (each loss bucket's share
# of all core-cycles), and the per-source latency waterfall (MRQ, NoC,
# DRAM queueing, DRAM service, response NoC). Leaves the raw JSONL in
# pfreport.jsonl, cpistack.jsonl and spans.jsonl for further
# post-processing (e.g. mtstat -detail, or mtstat -run REGEX).
stats:
	$(GO) run ./cmd/mtpref -waves 1 -pfreport pfreport.jsonl -cpistack cpistack.jsonl -spans spans.jsonl run gstable > /dev/null
	$(GO) run ./cmd/mtstat pfreport.jsonl cpistack.jsonl spans.jsonl
