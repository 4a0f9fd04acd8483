# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-race check bench bench-smoke figures figures-paper examples fuzz fuzz-smoke fuzz-list

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# Race-detector lane over every package: the goroutine-bearing internal
# packages (Pool.For barriers, the recursive limiter, stream-group
# fan-out, the engine and its store), the sharded serving tier, and the
# CLI and loadgen end-to-end tests. The zero-alloc guards only compile
# without -race, so they run in `go test ./...` instead.
test-race:
	go test -race ./...

# The one pre-merge gate: static checks (gofmt must list no file, and
# FUZZ_TARGETS must name exactly the tree's fuzz functions), build,
# the whole test suite (alloc guards included), the race lane, and the
# bench module's vet and tests (bench/ is its own Go module, compiled
# against the engine, server, stream and obs APIs, so a break there
# surfaces nowhere else).
# CI runs exactly this, plus fuzz-smoke and bench-smoke.
check:
	test -z "$$(gofmt -l .)"
	$(MAKE) fuzz-list
	go vet ./...
	go build ./...
	go test ./...
	$(MAKE) test-race
	cd bench && go vet ./... && go test ./...

bench:
	go test -bench=. -benchmem ./...

# Benchmark regression lane: run every benchmark exactly once. This
# does not measure anything meaningful — it exists so CI catches
# benchmarks that stop compiling, panic, or start allocating where a
# hot path should not (inspect with -benchmem locally). The figure run
# executes the drivers that call combing and hybrid directly (Figures
# 4c, 6 and 7), which otherwise only compile.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...
	go run ./cmd/loadgen -shards 2 -clients 4 -duration 1s -hot 8 -size 128
	go run ./cmd/benchsuite -scale quick -reps 1 -maxthreads 2 fig4c fig6 fig7

# Regenerate every figure of the paper at moderate sizes.
figures:
	go run ./cmd/benchsuite -scale default all

# Publication sizes (hours on small machines).
figures-paper:
	go run ./cmd/benchsuite -scale paper all

examples:
	go run ./examples/quickstart
	go run ./examples/approxmatch
	go run ./examples/genomes
	go run ./examples/timeseries
	go run ./examples/fuzzysearch

# Every fuzz target as Target:package; both fuzz lanes run the whole
# list, so a new target is added here once.
FUZZ_TARGETS := \
	FuzzKernelAgreement:./internal/combing \
	FuzzBinaryScore:./internal/bitlcs \
	FuzzMultiply:./internal/steadyant \
	FuzzDifferential:./internal/core \
	FuzzEditWindows:./internal/editdist \
	FuzzSessionQueries:./internal/query \
	FuzzStreamAppend:./internal/stream \
	FuzzStreamGroup:./internal/stream \
	FuzzComposeB:./internal/stream \
	FuzzBandedDistance:./internal/banded \
	FuzzProbeBand:./internal/banded \
	FuzzKernelRoundtrip:./internal/core \
	FuzzStoreOpen:./internal/store \
	FuzzServerRequest:./internal/server \
	FuzzDecodeRequest:./internal/server

# Short fuzzing passes over every fuzz target.
fuzz: FUZZTIME := 30s
# Ten-second smoke pass per target — quick enough for CI, long enough to
# mutate beyond the checked-in seed corpora under testdata/fuzz.
fuzz-smoke: FUZZTIME := 10s
fuzz fuzz-smoke:
	@set -e; for tp in $(FUZZ_TARGETS); do \
		echo "go test -fuzz $${tp%%:*} -fuzztime $(FUZZTIME) $${tp#*:}"; \
		go test -fuzz $${tp%%:*} -fuzztime $(FUZZTIME) $${tp#*:}; \
	done

# Fails when FUZZ_TARGETS and the tree's `func Fuzz...` declarations
# (outside the bench module) differ, so a fuzz target can neither drop
# out of the fuzz lanes nor outlive its package.
fuzz-list:
	@tree=$$(grep -rHoE --include='*_test.go' --exclude-dir=bench '^func Fuzz[A-Za-z0-9_]+' . \
		| sed -E 's#^(.*)/[^/]+:func (Fuzz[A-Za-z0-9_]+)$$#\2:\1#' | sort); \
	listed=$$(printf '%s\n' $(FUZZ_TARGETS) | sort); \
	extra=$$(echo "$$listed" | grep -vxF "$$tree"); \
	missing=$$(echo "$$tree" | grep -vxF "$$listed"); \
	[ -z "$$extra" ] || echo "FUZZ_TARGETS names no such fuzz function: $$extra"; \
	[ -z "$$missing" ] || echo "fuzz functions missing from FUZZ_TARGETS: $$missing"; \
	[ -z "$$extra$$missing" ]
