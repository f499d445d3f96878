GO ?= go

.PHONY: check build test vet race chaos stats

# The full gate used before committing: vet, build, race-enabled tests
# (including the scaled-down parallel-harness sweep, see harness_test.go,
# and the allocation budgets, see alloc_test.go), then the
# fault-injection suite. It writes no tracked file.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) chaos

# Fault-injection suite: injected livelocks, dropped completions, and
# corrupted stride tables must be caught by the watchdog / invariant
# checker (internal/faults); a poisoned run must degrade to ERR cells
# without disturbing its siblings (internal/harness); and the result
# store must quarantine corruption, survive torn writes and kill-9,
# retry transient faults to byte-identical output, and drain gracefully
# (internal/store, internal/faults, internal/harness).
chaos:
	$(GO) test -timeout 10m -run 'Chaos|Stalled|Dropped|Corrupt|CleanRun|Poisoned|CrashDump|Taxonomy|Store|Torn|Quarantine|Resume|Flake|Retry|Drain|RunTimeout|Sanitize' \
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
