GO ?= go

.PHONY: build test race vet lint benchsmoke layerbench check bench chaos fuzz loc

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
# "Invariants and static enforcement"): determinism (detcheck) and
# context plumbing (ctxcheck), plus the flow-sensitive checks
# (lockflow, leakcheck, errflow) — locks released on every path and
# never held across I/O, resources closed on every path, error chains
# wrapped with %w. Exit 1 means findings; use `-json` for tooling.
# There is no suppression directive: a finding is fixed.
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

# layerbench runs the storage layer's benchmarks — hydration, the
# encoder, the pack reader and the manifest codec — the register
# path's one-model Index, the dense and spectral-norm kernels and one
# model observation once each, so a benchmark that stops building or
# panics fails the gate; the numbers it prints are not judged here
# (TestHydrateCopiesOnce and TestEncodeAddressesTensorsInPlace bound
# the bytes). IndexOne includes BenchmarkIndexOne/series, whose one op
# registers a whole fine-tuned series, so the sweeps that resume from
# a cached cut run here too.
layerbench:
	$(GO) test -run '^$$' -bench 'Join|Hydrate|Encode|ReadPack|ManifestCodec|IndexOne' -benchtime 1x ./internal/chunk ./internal/cas ./internal/catalog
	$(GO) test -run '^$$' -bench 'DenseBatch|SpectralNorm' -benchtime 1x ./internal/tensor
	$(GO) test -run '^$$' -bench 'Observe' -benchtime 1x ./internal/equiv

# check is the CI gate: vet (and its gofmt gate), then sommlint, then
# the bench-module smoke and the layer benchmarks, then the
# race-detector run. lint and benchsmoke (~30 s) sit before race
# because they are far cheaper. race stays last and stays in: it is
# what catches a `// guarded by mu` field touched without its mutex
# (DESIGN.md's lint table). benchsmoke is the gate's benchmark half:
# sommperf's hard checks (batch_equals_serial, oracle_no_stray_result,
# hydrate_byte_identical, coordinator_full, …) run there at the
# 3-second rung and fail the build when they break.
check: vet lint benchsmoke layerbench race

# bench is the one way to benchmark: sommperf's whole suite (the four
# BENCHMARK.json workloads), untraced for the end-to-end metrics and
# then traced for the per-layer ones. bench/README.md documents the
# flags for a single run and the noise study.
bench:
	bash bench/run.sh

# chaos runs the seeded fault-schedule matrix under the race detector:
# every TestChaos* case in internal/cluster (replica kill mid-query,
# full shard loss, flake, slow-replica timeout, kill mid-upload,
# concurrent stress) plus the schedule-replay tests in
# internal/faults. -v prints per-schedule PASS/FAIL; every schedule is
# seed-programmed, so a failure reproduces byte-for-byte.
chaos:
	$(GO) test -race -v -run 'TestChaos|TestSchedule|TestComposedFlakyStores' \
		./internal/cluster/ ./internal/faults/

# fuzz runs every decoder of outside bytes under its fuzz target for 60
# s each: the index snapshot (root), the query wire frames (hub), packs
# and manifests (cas), query text (query) and SOMX models (graph); and
# the dense kernels (tensor) against their one-row loops, on the AVX2
# path where the host has it and on the scalar path everywhere. No
# hub reads SOMX, but it stays the reference encoding tests and the
# bench module compare and time models by, so its decoder keeps its
# target. go test fuzzes one target per run, so each gets its own line;
# a crasher fails the run and lands in that package's testdata/fuzz/.
# go test's default 60 s to minimize each new interesting input would
# spend the whole run on one kB-sized pack or manifest (8 executions in
# 60 s), so minimizing gets 5 s.
FUZZ = $(GO) test -run '^$$' -fuzztime 60s -fuzzminimizetime 5s -fuzz

fuzz:
	$(FUZZ) '^FuzzLoadIndexes$$' .
	$(FUZZ) '^FuzzReadResults$$' ./internal/hub
	$(FUZZ) '^FuzzReadQueries$$' ./internal/hub
	$(FUZZ) '^FuzzReadPack$$' ./internal/cas
	$(FUZZ) '^FuzzDecodeManifest$$' ./internal/cas
	$(FUZZ) '^FuzzParse$$' ./internal/query
	$(FUZZ) '^FuzzDecode$$' ./internal/graph
	$(FUZZ) '^FuzzKernelsMatchOneRowReference$$' ./internal/tensor

# loc prints the line counts ROADMAP's subtraction budget is stated
# in: non-test Go outside bench/ and testdata/, and test Go outside
# bench/; and the assembly (.s) outside bench/ and testdata/, which
# neither Go count includes. Plain `wc -l` over `find`, so the count is
# reproducible.
loc:
	@printf 'non-test Go (outside bench/, testdata/): '; \
	find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l
	@printf 'test Go (outside bench/): '; \
	find . -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l
	@printf 'assembly (outside bench/, testdata/): '; \
	find . -name '*.s' ! -path './bench/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l
