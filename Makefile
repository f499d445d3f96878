GO ?= go

.PHONY: check build test vet race chaos pfreport cpistack spans

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

# Prefetch attribution demo: run the GS-table sweep with per-(source, PC)
# lifecycle attribution enabled, then render the per-source summary and
# per-PC breakdown with cmd/pfstat. Leaves the raw JSONL in
# pfreport.jsonl for further post-processing (e.g. pfstat -run REGEX).
pfreport:
	$(GO) run ./cmd/mtpref -waves 1 -pfreport pfreport.jsonl run gstable > /dev/null
	$(GO) run ./cmd/pfstat -bypc pfreport.jsonl

# Cycle-accounting demo: run the GS-table sweep with CPI stacks enabled,
# then render the per-run breakdown (each bucket's share of all
# core-cycles) with cmd/cpistat. Leaves the raw JSONL in cpistack.jsonl
# for further post-processing (e.g. cpistat -bycore, or the epoch time
# series under the "cpiepoch"/"cpitol" records).
cpistack:
	$(GO) run ./cmd/mtpref -waves 1 -cpistack cpistack.jsonl run gstable > /dev/null
	$(GO) run ./cmd/cpistat cpistack.jsonl

# Span-tracing demo: run the GS-table sweep with request span sampling
# enabled, then render the per-source latency waterfall (where each
# sampled request's end-to-end cycles went: MRQ, NoC, DRAM queueing,
# DRAM service, response NoC) with cmd/spanstat. Leaves the raw JSONL in
# spans.jsonl for further post-processing (e.g. spanstat -byrun).
spans:
	$(GO) run ./cmd/mtpref -waves 1 -spans spans.jsonl run gstable > /dev/null
	$(GO) run ./cmd/spanstat spans.jsonl
