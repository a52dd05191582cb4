GO ?= go

.PHONY: build test race vet lint benchsmoke check bench chaos loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also gates formatting: any file gofmt would rewrite fails the
# build. testdata/ is exempt — the lint goldens pin source positions.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l . | grep -v '/testdata/')"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# race runs the full suite under the race detector — the concurrent
# breaker, LRU-cache and retry paths in internal/hub depend on it. The
# experiment-reproduction packages slow down ~10x under race, so the
# per-package timeout is raised above go test's 10m default.
race:
	$(GO) test -race -timeout 30m ./...

# lint runs sommlint, the repo's own analyzer suite (see DESIGN.md
# "Invariants and static enforcement"): lock-annotation discipline,
# snapshot immutability, determinism, context plumbing, sentinel error
# comparison, plus the flow-sensitive checks (lockflow, leakcheck,
# errflow) — locks released on every path and never held across I/O,
# resources closed on every path, error chains wrapped with %w. Exit 1
# means findings; use `-json` for tooling and `//lint:ignore <analyzer>
# <reason>` for justified one-line suppressions.
lint:
	$(GO) run ./cmd/sommlint ./...

# benchsmoke vets and tests the bench/ module. It is a module of its
# own (BENCHMARK.json's harness), so the root ./... patterns neither
# build nor test it, yet bench/layers.go calls internal/catalog,
# internal/index and internal/lsh directly: an internal-API change that
# breaks the benchmark's build must fail here, not at the next
# benchmark run.
benchsmoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# check is the CI gate: vet (and its gofmt gate), then sommlint, then
# the bench-module smoke, then the race-detector run. lint sits before race because it is ~100x
# cheaper and catches the invariant violations race can only hope to
# trip over; benchsmoke (~30 s) before race for the same reason. It is
# the gate's benchmark half: sommperf's hard checks (batch_equals_serial,
# oracle_no_stray_result, hydrate_byte_identical, coordinator_full, …)
# run there at the 3-second rung and fail the build when they break.
check: vet lint benchsmoke race

# bench is the one way to benchmark: sommperf's whole suite (the four
# BENCHMARK.json workloads), untraced for the end-to-end metrics and
# then traced for the per-layer ones. bench/README.md documents the
# flags for a single run and the noise study.
bench:
	bash bench/run.sh

# chaos runs the seeded fault-schedule matrix under the race detector:
# every TestChaos* case in internal/cluster (replica kill mid-query,
# full shard loss, flake, slow-replica timeout, kill mid-upload and
# mid-rebalance, concurrent stress) plus the schedule-replay tests in
# internal/faults. -v prints per-schedule PASS/FAIL; every schedule is
# seed-programmed, so a failure reproduces byte-for-byte.
chaos:
	$(GO) test -race -v -run 'TestChaos|TestSchedule|TestComposedFlakyStores' \
		./internal/cluster/ ./internal/faults/

# loc prints the two line counts ROADMAP's subtraction budget is stated
# in: non-test Go outside bench/ and testdata/, and test Go outside
# bench/. Plain `wc -l` over `find`, so the count is reproducible.
loc:
	@printf 'non-test Go (outside bench/, testdata/): '; \
	find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l
	@printf 'test Go (outside bench/): '; \
	find . -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l
