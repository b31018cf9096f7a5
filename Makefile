GO ?= go

.PHONY: help ci vet verify-static build test smoke explore-smoke paper \
	race-equivalence bench bench-full bench-baseline docs-verify docs \
	daemon-smoke crash-smoke perfbench-test paper-identical

# help lists every target with its one-line purpose (the `##` comment on
# the target line). Run `make help` when lost.
help:
	@grep -E '^[a-z][a-z-]*:.*##' $(MAKEFILE_LIST) | \
		awk -F':.*## ' '{printf "  %-16s %s\n", $$1, $$2}'

# ci is the gate: static checks, full build, full test suite, the chaos
# smoke (fault injection + verification on a representative cell), a
# bounded schedule-exploration smoke (adversarial scheduler + oracle),
# the IR-level static verification of every workload, the engine
# differential suite (cooperative vs reference, byte-identical, -race),
# the race-mode parallel-sweep equivalence suite, the paper-output
# worker-count identity check, the daemon lifecycle smoke, the
# crash-recovery harness, the generated-docs drift check, and the
# benchmark module's tests.
ci: vet build test smoke explore-smoke verify-static conflict-verify equivalence race-equivalence paper-identical daemon-smoke crash-smoke docs-verify perfbench-test ## full CI gate (all of the below)

# vet layers three static gates: formatting, the standard go vet, and
# the repo's own staggervet analyzers (determinism, ntstore, siteattr,
# errshadow, fsyncpath, ctxdone), self-hosted over the whole tree and
# checked against the committed findings baseline. Any unbaselined
# diagnostic — or a stale baseline entry — exits nonzero and fails the
# build.
vet: ## gofmt + go vet + staggervet analyzers (baseline-checked)
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/staggervet -baseline cmd/staggervet/baseline.txt

# verify-static proves the four IR invariants (anchor scope, lock
# order, coverage, static/dynamic conformance) on all ten workloads.
verify-static: ## IR invariants: anchor scope, lock order, coverage, conformance
	$(GO) run ./cmd/staggersim -verify-static

# conflict-verify is the static conflict-prediction gate: for every
# workload it builds the may-conflict matrix, proves advisory-lock
# sufficiency and precision, and cross-validates the matrix against the
# conflicting site pairs observed dynamically across three seeds.
conflict-verify: ## may-conflict matrix: sufficiency, precision, dynamic containment
	$(GO) run ./cmd/staggersim -verify-conflicts

# perfbench-test runs the benchmark module's own tests. perfbench is a
# separate Go module, so `go build ./...` and `go test ./...` never
# compile it: without this target a harness or service API change could
# break the benchmark unnoticed.
perfbench-test: ## compile and test the perfbench benchmark module
	cd perfbench && $(GO) test .

build: ## go build ./...
	$(GO) build ./...

test: ## go test ./...
	$(GO) test ./...

smoke: ## chaos smoke: fault injection + verification, one cell
	$(GO) test ./internal/harness -run TestChaosSmoke -count=1

# daemon-smoke boots the real staggerd on a kernel-assigned port with a
# throwaway store, drives one paper-table job through the HTTP lifecycle
# with staggerctl, proves a resubmission is served byte-identically from
# the durable store, then SIGTERM-drains and requires a clean exit.
daemon-smoke: ## staggerd lifecycle: submit over HTTP, store hit, SIGTERM drain
	GO=$(GO) sh scripts/daemon_smoke.sh

# crash-smoke is the crash-recovery harness: the Go half SIGKILLs the
# real daemon (and crashes it via deterministic disk failpoints) under
# -race, the shell half drives the same scenarios the way a supervisor
# would, including a staggerctl -reconnect waiter riding through a
# restart. Both assert every accepted job reaches a terminal state with
# byte-identical results and that damaged journal tails are quarantined.
# Failure artifacts (journal, store, daemon logs) land in $CRASH_ARTIFACTS.
crash-smoke: ## crash harness: SIGKILL + failpoint recovery, byte-identical results
	$(GO) test -race ./cmd/staggerd -count=1
	GO=$(GO) sh scripts/crash_smoke.sh

# explore-smoke runs 25 PCT(d=3) schedules per workload through the
# serializability oracle on two representative cells; any violation fails.
explore-smoke: ## 25 adversarial schedules per cell through the oracle
	$(GO) run ./cmd/staggersim -bench list-hi,kmeans -mode staggered -threads 4 \
		-ops 160 -explore -explore-runs 25 -sched pct:3

# race-equivalence runs the determinism-equivalence suite (same results
# and bytes at workers=1 and workers=4) under the race detector, so the
# parallel sweep runner is checked for data races on every CI run. The
# service lifecycle and recovery tests (drain under a live chaos job,
# cancellation, crash-restart durability, journal replay, resumed
# sweeps) run here too, as do the journal, store, and fault-injection
# filesystem packages: their goroutine-leak, shutdown, and concurrent
# append/put assertions are exactly the kind -race strengthens.
# equivalence is the engine differential gate: every workload × seed ×
# {plain, staggered, hardened, chaos, PCT} cell runs on the cooperative
# engine and the reference engine and must be byte-identical in traces,
# metrics JSON, statistics, oracle verdicts, and workload verification —
# under -race, so the coroutine handoff protocol is checked at the same
# time. Record/replay cross-engine determinism and the fuzz seed corpus
# run in the same package. On a mismatch the suite writes both traces
# and the first-divergence index under EQUIVALENCE_ARTIFACTS (default
# ./equivalence-artifacts), which CI uploads.
equivalence: ## cooperative-vs-reference engine differential suite under -race
	$(GO) test -race ./internal/htm/equivalence -count=1

race-equivalence: ## determinism-equivalence + service lifecycle under -race
	$(GO) test -race ./internal/harness -count=1 \
		-run 'TestDeterminism|TestTableOutputIdentical|TestRunVerified|TestChaosSweepIdentical|TestExploreIdentical|TestCacheShared|TestRunAllOrdering|TestRunCtxCancel|TestRunAllCancel|TestRunAllContained'
	$(GO) test -race ./internal/service -count=1 \
		-run 'TestDrain|TestCancel|TestCrashRestart|TestBoot|TestResumed|TestIdempotency|TestSubmitRejected|TestCleanShutdown|TestMetricsExposeJournal'
	$(GO) test -race ./internal/journal ./internal/vfs ./internal/chaos ./internal/store -count=1

# paper-identical regenerates the paper's evaluation at -workers 1 and
# -workers 4 and byte-compares the two: the default run (every table,
# figure and the headline claims), then the lazy-TM and list-hi scaling
# extensions. Any difference is a determinism bug in the parallel sweep.
paper-identical: ## cmd/paper output byte-identical at -workers 1 and 4
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/paper ./cmd/paper && \
	for args in "" "-lazy -scaling list-hi"; do \
		echo "paper $${args:-(default)}: -workers 1 vs -workers 4"; \
		$$tmp/paper -workers 1 $$args > $$tmp/w1 && \
		$$tmp/paper -workers 4 $$args > $$tmp/w4 && \
		cmp $$tmp/w1 $$tmp/w4 || exit 1; \
	done

# docs-verify regenerates the generated documentation sections — the
# EXPERIMENTS.md abort-attribution appendix, its cross-backend arena
# table, and the README.md repo map — and fails if the committed text
# disagrees with the source tree. Run `make docs` after changing the
# simulator, a backend, or package doc comments.
docs-verify: ## fail if generated docs sections drifted from the source
	$(GO) run ./cmd/staggerreport -appendix -backends -repomap -check

docs: ## regenerate the generated docs sections in place
	$(GO) run ./cmd/staggerreport -appendix -backends -repomap -write

# bench is the performance regression gate: the quick matrix plus the
# paper table set, compared against the committed baseline; any timed
# metric more than 25% slower (or allocs/event more than 10% higher)
# fails. bench-full runs the full matrix without a gate; bench-baseline
# re-records the committed baseline (do this deliberately, on a quiet
# machine, when the simulation itself changes).
bench: ## perf regression gate vs bench_baseline.json (quick matrix)
	$(GO) run ./cmd/staggerbench -quick -baseline bench_baseline.json

bench-full: ## full benchmark matrix, no gate
	$(GO) run ./cmd/staggerbench

bench-baseline: ## re-record the committed benchmark baseline
	$(GO) run ./cmd/staggerbench -quick -out bench_baseline.json

paper: ## regenerate every table and figure of the paper
	$(GO) run ./cmd/paper
