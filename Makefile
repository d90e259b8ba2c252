GO ?= go

# The full gate: everything CI (and the trace-compatibility suite) needs.
# Performance changes should also refresh the committed baseline with
# `make bench-json` and include the BENCH_sched.json diff in the review.
.PHONY: check
check: build vet race shuffle cpu-matrix soak-smoke explore-smoke controlplane-smoke

# Scheduler tests at -cpu 1 and 4: the turn lease and the spin-then-park grant
# path behave differently with and without real parallelism available
# (spinning is skipped at GOMAXPROCS 1), so both shapes are exercised. The
# cross-procs domain-neutrality loop additionally runs under -race at -cpu 4.
.PHONY: cpu-matrix
cpu-matrix:
	$(GO) test -cpu 1,4 -count=1 ./internal/core ./internal/domain
	$(GO) test -race -cpu 4 -count=1 -run 'TestDomainsScheduleNeutralAcrossProcs|TestLeaseTraceNeutral' ./internal/harness

# What .github/workflows/ci.yml runs: the full gate plus the performance
# gate, which re-runs the BENCH_sched.json benchmarks at a short benchtime
# and fails on any >25% ns/op regression against the committed baseline.
.PHONY: ci
ci: check bench-compare

.PHONY: bench-compare
bench-compare:
	$(GO) run ./cmd/qibenchjson -compare BENCH_sched.json -short

.PHONY: build
build:
	$(GO) build ./...

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# Shuffled test order: catches inter-test state leaks (shared runtimes,
# leftover goroutines) that a fixed order can mask.
.PHONY: shuffle
shuffle:
	$(GO) test -shuffle=on ./...

# E19 million-event soak: streaming (bounded-memory) record of a ~2M-event
# ingress run with epoch checkpoints, then binary-vs-text size and load-time
# ratios and a streamed replay equality check. soak-smoke is the same
# experiment at a size small enough for every `make check`.
.PHONY: soak
soak:
	$(GO) run ./cmd/qibench -experiment soak

.PHONY: soak-smoke
soak-smoke:
	$(GO) run ./cmd/qibench -experiment soak -soak-events 8000

# Bounded schedule-space exploration (EXPERIMENTS.md E20): a few hundred
# DPOR runs over the seeded-bug program MUST find the atomicity bug and emit
# a minimized repro (-require-bug exits nonzero otherwise), and the repro
# must replay 20/20 through qireplay. Well under 10s end to end.
.PHONY: explore-smoke
explore-smoke:
	@rm -rf .explore_smoke
	$(GO) run ./cmd/qiexplore -program buggy -dir .explore_smoke -budget 400 -workers 4 -require-bug
	$(GO) run ./cmd/qireplay -program buggy -runs 20 \
		-schedule "$$(ls .explore_smoke/repro-*.sched | head -1)"
	@rm -rf .explore_smoke

# The control-plane pipeline end to end (EXPERIMENTS.md E22): the detcluster
# example records a live cluster, replays it, and injects faults
# deterministically; then qiexplore MUST find the seeded missing-recheck race
# within the smoke budget, the minimized repro MUST reproduce it 20/20, and
# the SAME schedule replayed against the fixed program MUST run clean
# (-expect ok) — the fix proven on the exact interleaving that failed.
.PHONY: controlplane-smoke
controlplane-smoke:
	@rm -rf .controlplane_smoke
	$(GO) run ./examples/detcluster -smoke
	$(GO) run ./cmd/qiexplore -program controlplane-race -dir .controlplane_smoke -budget 400 -workers 4 -require-bug
	$(GO) run ./cmd/qireplay -program controlplane-race -runs 20 \
		-schedule "$$(ls .controlplane_smoke/repro-*.sched | head -1)"
	$(GO) run ./cmd/qireplay -program controlplane-fixed -runs 20 -expect ok \
		-schedule "$$(ls .controlplane_smoke/repro-*.sched | head -1)"
	@rm -rf .controlplane_smoke

# The parallel engine under the race detector: worker-count invariance, the
# HB pruner and the flock/atomic-rename persistence paths all run at
# workers=4 inside these tests.
.PHONY: explore-race
explore-race:
	$(GO) test -race -count=1 ./internal/explore

# Mechanism and policy-dispatch micro-benchmarks (see EXPERIMENTS.md E9/E13).
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMechanism|BenchmarkPolicyDispatch' -count 5 -benchtime 1s .

# Scheduler hot-path baseline: run the E14 micro-benchmarks and regenerate
# BENCH_sched.json (benchmark name -> ns/op, allocs/op, averaged over 3 reps).
# The two steps run sequentially (not a pipe) so compiling the converter
# does not steal CPU from the benchmarks.
.PHONY: bench-json
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkMechanism|BenchmarkPolicyDispatch|BenchmarkBroadcastStorm|BenchmarkTimedWaitChurn|BenchmarkTurnHandoff|BenchmarkDomains|BenchmarkIngress|BenchmarkControlPlane|BenchmarkLogReplay|BenchmarkExplore' \
		-benchmem -benchtime 300ms -count 3 . > .bench_sched.out
	$(GO) run ./cmd/qibenchjson < .bench_sched.out > BENCH_sched.json
	@rm -f .bench_sched.out
