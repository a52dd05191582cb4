GO ?= go

.PHONY: build test race vet lint benchsmoke check bench benchdiff chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

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

# check is the CI gate: vet, then sommlint, then the bench-module smoke,
# then the race-detector run, then the benchmark-baseline diff. lint
# sits before race because it is ~100x cheaper and catches the invariant
# violations race can only hope to trip over; benchsmoke (~30 s) before
# race for the same reason; benchdiff last because it only compares JSON
# already on disk (regenerate with `make bench` to compare fresh
# numbers).
check: vet lint benchsmoke race benchdiff

# bench runs the Go micro-benchmarks, then the serial-vs-parallel
# indexing benchmark, the query-latency benchmark, the cluster
# scatter-gather load harness, the content-addressed storage harness,
# and the serving-cluster matrix, leaving their machine-readable
# results in BENCH_index.json, BENCH_query.json, BENCH_cluster.json,
# BENCH_store.json and BENCH_serving.json (latency percentiles come
# from the *_ms histograms; the serving numbers are virtual-time and
# therefore exact — a p95 shift there is a semantic change, not noise).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...
	$(GO) run ./cmd/sommbench -exp indexbench -index-out BENCH_index.json
	$(GO) run ./cmd/sommbench -exp querybench -query-out BENCH_query.json
	$(GO) run ./cmd/sommbench -exp clusterbench -cluster-out BENCH_cluster.json
	$(GO) run ./cmd/sommbench -exp storebench -store-out BENCH_store.json
	$(GO) run ./cmd/sommbench -exp servebench -serving-out BENCH_serving.json

# benchdiff fails when a freshly generated BENCH_*.json shows a p95
# latency more than 20% (and more than a noise floor) worse than the
# committed baseline. Skips files with no committed baseline.
benchdiff:
	$(GO) run ./cmd/benchdiff

# chaos runs the seeded fault-schedule matrix under the race detector:
# every TestChaos* case in internal/cluster (replica kill mid-query,
# full shard loss, flake, slow-replica timeout, kill mid-upload and
# mid-rebalance, concurrent stress) plus the schedule-replay tests in
# internal/faults. -v prints per-schedule PASS/FAIL; every schedule is
# seed-programmed, so a failure reproduces byte-for-byte.
chaos:
	$(GO) test -race -v -run 'TestChaos|TestSchedule|TestComposedFlakyStores' \
		./internal/cluster/ ./internal/faults/
