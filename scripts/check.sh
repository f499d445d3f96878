#!/bin/sh
# Full verification gate: vet, build, race-enabled tests (the allocation
# budgets included), chaos suite, 15 s of each fuzz target. Runs exactly
# what `make check` runs, for environments without make, and like it
# writes no tracked file unless a fuzz target fails.
set -eux
cd "$(dirname "$0")/.."
go vet ./...
go build ./...
go test -race ./...
go test -timeout 10m -run 'Chaos|Stalled|Dropped|Corrupt|CleanRun|Poisoned|CrashDump|Taxonomy|Store|Torn|Quarantine|Resume|Drain|RunTimeout|Sanitize' \
	./internal/faults/... ./internal/harness/... ./internal/store/...
go test -run '^$' -fuzz '^FuzzTransactions$' -fuzztime 15s ./internal/kernel
go test -run '^$' -fuzz '^FuzzRetireOrder$' -fuzztime 15s ./internal/dram
go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 15s ./internal/workload
