GO ?= go

.PHONY: check build test vet race chaos stats

# The full gate used before committing, and the fault-injection suite
# alone: scripts/check.sh holds the one list of their steps.
check:
	GO='$(GO)' sh scripts/check.sh

chaos:
	GO='$(GO)' sh scripts/check.sh chaos

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
