# TANGO temporal middleware — build / verify targets.

GO ?= go

# Fuzz smoke budget per target (ci runs each fuzzer this long).
FUZZTIME ?= 10s

.PHONY: all build fmt vet lint lint-fix lint-report test race fuzz chaos crash load bench-smoke bench-json perfbench ci clean

# Benchmark report written by bench-json.
BENCHOUT ?= BENCH_10.json

all: ci

build:
	$(GO) build ./...

# fmt fails when any Go file outside testdata/ is not gofmt-clean
# (analyzer fixtures under testdata/ keep their deliberate layouts).
fmt:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path '*/testdata/*')); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the project-specific analyzers (iterator and span
# lifecycles, dropped errors, mixed atomic/plain field access,
# hand-written operator schemas, and the interprocedural concurrency
# suite: latch order, lock-held I/O, goroutine leaks) over the whole
# tree, with per-package parallelism and a content-hash summary cache
# under .tangolint-cache/ — the stderr summary prints elapsed time and
# how many packages were served from the cache, so a warm rerun shows
# its speedup directly. Exit status 1 means findings.
lint:
	$(GO) run ./cmd/tangolint -cache .tangolint-cache ./...

# lint-fix is lint plus the machine-applyable suggestion attached to
# each finding that has one (e.g. "delete the suppression comment").
lint-fix:
	$(GO) run ./cmd/tangolint -fix -cache .tangolint-cache ./...

# lint-report is the ci form: same gate (a finding fails the build),
# but the machine-readable report is published to lint.json either
# way — stdout is redirected before the exit status is checked.
lint-report:
	$(GO) run ./cmd/tangolint -json -cache .tangolint-cache ./... > lint.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz smoke-runs the parser fuzz targets, the fault-schedule, frame,
# request/reply and batch decoders and the WAL decoder for FUZZTIME each, seeded
# from the evaluation workload. Any crasher is written to the
# package's testdata/fuzz corpus and replays under plain `go test`.
fuzz:
	$(GO) test ./internal/sqlparser/ -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tsql/ -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -run='^$$' -fuzz=FuzzParseSchedule -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -run='^$$' -fuzz=FuzzDecodeBatch -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/storage/ -run='^$$' -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME)

# chaos runs the seeded fault-injection sweep (every seed query under
# drop/stall/partial schedules at both parallelism widths, plus the
# 8-session concurrent sweep sharing one server) and the wire-death
# regression tests under the race detector. -short trims
# the schedule grid so ci stays fast; run `go test ./internal/bench/
# -run Chaos` for the full sweep.
chaos:
	$(GO) test ./internal/bench/ -run 'Chaos' -race -short
	$(GO) test ./internal/client/ -run 'Windowed|Do|Backoff' -race

# crash runs the deterministic crash matrix under the race detector:
# every scripted WAL/page death point in the standard workload is
# swept (strided in -short), plus the concurrent variant — a store
# death mid-T^D-load under 16 live reader sessions — and after each
# the directory is reopened and the recovered state must equal a
# committed pre- or post-load state — never a torn one. Run `go test ./internal/bench/ -run TestCrash`
# for the unstrided sweep.
crash:
	$(GO) test ./internal/bench/ -run 'TestCrash|TestSplitSchedule' -race -short

# load is the TCP serving-path smoke: LOADSESSIONS simulated
# sessions replay the mixed workload over real sockets — through the
# fault-injecting chaos proxy — against an embedded admission-
# controlled server, under the race detector. The run fails on any
# untyped error or leaked cursor/temp-table/session after drain.
# `make load LOADSESSIONS=1024` is the full thousand-session sweep.
LOADSESSIONS ?= 256
load:
	$(GO) run -race ./cmd/tangoload -sessions $(LOADSESSIONS) -ops 2 -retries 8 -op-timeout 2s -deadline 15s -chaos "seed=7;stall=200us;fetch@3=drop"

# bench-smoke runs every benchmark for a single iteration at both
# GOMAXPROCS widths, so ci catches benchmarks that no longer compile
# or crash without paying for real measurement. The Query1 pattern
# also matches Query1Tracing, so ci smokes the tracing-overhead pair
# on every run; GroupCommit smokes the concurrent commit path,
# Optimize the optimizer alone on Q1–Q4, and EngineSort, EngineJoin and
# HeapScan the DBMS sort, the DBMS joins under the generator's nested
# statements and the storage scan alone (with -benchmem).
bench-smoke:
	$(GO) test ./internal/bench/ -run '^$$' -bench 'Query1|SortM|GroupCommit|Optimize|EngineSort|EngineJoin|HeapScan' -benchmem -benchtime 1x -cpu 1,2
	$(GO) test ./internal/wire/ -run '^$$' -bench . -benchtime 1x

# bench-json measures the sequential-vs-parallel query benchmarks
# (-cpu 1,4: 1 = sequential algorithms, 4 = windowed fetch pipeline,
# prefetched transfers, partitioned operators) plus the wire codec
# benchmarks, and archives the parsed numbers — ns/op, B/op,
# allocs/op, rows/s, seq-vs-parallel speedups, and the tracing
# overhead ratio (Query1Tracing vs Query1; bar <= 5%) — in
# $(BENCHOUT). 15 iterations per benchmark keeps the overhead ratio
# above measurement noise on small machines.
# GroupCommit runs 200 commits per session count so the
# fsyncs/commit metric is measured under real contention: the
# archived number must fall below 1 at 8 and 64 sessions.
bench-json:
	{ $(GO) test ./internal/bench/ -run '^$$' -bench 'Query1|SortM' -benchtime 15x -cpu 1,4; \
	  $(GO) test ./internal/bench/ -run '^$$' -bench 'GroupCommit' -benchtime 200x; \
	  $(GO) test ./internal/bench/ -run '^$$' -bench 'TCPLoad' -benchtime 1x; \
	  $(GO) test ./internal/wire/ -run '^$$' -bench . -benchtime 2000x; } | $(GO) run ./cmd/benchjson > $(BENCHOUT)

# perfbench builds and tests the repository benchmark, a module of its
# own (perfbench/go.mod) that ./... does not reach: an API change the
# benchmark depends on fails here.
perfbench:
	cd perfbench && $(GO) test .

# ci is the full verification gate: compile everything, check gofmt,
# vet, run the project analyzers (publishing lint.json), smoke the
# fuzz targets and the benchmarks, run the test suite under the race
# detector (tests also planck-check every plan), run the short chaos
# sweep under -race, sweep the crash-recovery matrix under -race, and
# build and test the repository benchmark.
ci: build fmt vet lint-report fuzz race chaos crash load bench-smoke perfbench

clean:
	$(GO) clean ./...
