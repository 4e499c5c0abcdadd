# Developer entry points. `make ci` is the gate every change must
# pass: it builds everything, vets, checks formatting, runs the repo
# linter (cmd/repolint), and runs the full test suite under the race
# detector (the concurrent tree executor and the parallel naive pool
# are exercised heavily there). Each gate prints a one-line verdict;
# the first failing gate stops the run and names itself.

GO ?= go

.PHONY: ci build vet fmt lint test purego race exec-stress short bench-exec bench-obs bench-eval bench-eqsat bench-check perfbench-test server-smoke fleet-smoke

# gate runs one CI stage, echoing "ci: <name> ok" on success and
# "ci: FAIL at gate <name>" (then exiting nonzero) on failure, so a
# red run always ends by naming the gate that broke.
define gate
	@echo "ci: $(1)..."; if $(2); then echo "ci: $(1) ok"; else echo "ci: FAIL at gate $(1)"; exit 1; fi
endef

ci:
	$(call gate,build,$(GO) build ./...)
	$(call gate,vet,$(GO) vet ./...)
	$(call gate,fmt,$(MAKE) -s fmt)
	$(call gate,lint,$(GO) run ./cmd/repolint)
	$(call gate,fuzz,$(GO) test -run FuzzIncrementalEval ./internal/search/ && $(GO) test -run FuzzOfPlanBlocks ./internal/cost/ && $(GO) test -run FuzzEqSat ./internal/eqsat/ && $(GO) test -run FuzzAbstractDomains ./internal/prog/analysis/absint/)
	$(call gate,purego,$(MAKE) -s purego)
	$(call gate,eqsat-smoke,$(GO) test -run TestEqSatSmoke -count=1 ./internal/eqsat/)
	$(call gate,bench-eval,$(MAKE) -s bench-check)
	$(call gate,perfbench-test,$(MAKE) -s perfbench-test)
	$(call gate,race,$(GO) test -race ./...)
	$(call gate,exec-stress,$(MAKE) -s exec-stress)
	$(call gate,server-smoke,sh scripts/server_smoke.sh)
	$(call gate,fleet-smoke,sh scripts/fleet_smoke.sh)
	@echo "ci: all gates passed (build vet fmt lint fuzz[4 corpora] purego[scalar kernels + arm64 vet] eqsat-smoke bench-eval perfbench-test[vet+test] race exec-stress server-smoke fleet-smoke)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; \
	fi

# lint runs the repository's own static checks: sync/atomic
# containment and nil-guarded obs hook access (see cmd/repolint).
lint:
	$(GO) run ./cmd/repolint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The portable path. On amd64 with AVX-512 the plan kernels and cost
# sums run as vector assembly; the purego build tag (the Go convention
# for "no assembly") selects the scalar Go kernels, the only path on
# other CPUs and other GOARCH values. Test the packages that carry them
# and replay the two bit-identity fuzz corpora on that path, then vet
# the plan and cost packages for arm64, where no assembly builds.
purego:
	$(GO) test -tags purego ./internal/prog/plan/ ./internal/cost/ ./internal/search/ .
	$(GO) test -tags purego -run FuzzIncrementalEval ./internal/search/
	$(GO) test -tags purego -run FuzzOfPlanBlocks ./internal/cost/
	GOARCH=arm64 $(GO) vet ./internal/prog/plan/ ./internal/cost/

# Repeat the concurrent tree executor's tests under the race detector:
# oracle equivalence, cancellation, pass overlap and early-solve exit
# depend on goroutine interleaving, which one run samples only once.
exec-stress:
	$(GO) test -race -count=10 -run 'TreeExec|Cancel|Instrument|TreeObs' ./internal/restart/

short:
	$(GO) test -short ./...

# Print the concurrent executor's counters on a couple of benchmark
# problems (sequential-vs-concurrent wall clock, speculation, swaps,
# pool utilization).
bench-exec:
	$(GO) run ./cmd/bench -exp exec -problems 4 -budget 2000000

# Compare the bare search loop (baseline, plan engine) against the
# instrumented one (metrics registry attached) and the streamed one
# (tracer with cost sampling and a live subscriber). The acceptance bar
# for the observability layer is <= 2% overhead on ns/iter.
bench-obs:
	$(GO) test ./internal/search/ -run '^$$' -bench BenchmarkSearchLoop -benchtime 2s -count 3

# Compare the compiled plan engine against the from-scratch reference
# engine (the "legacy" arm, search.Options.LegacyEval) on the standing
# benchmark problems (same seed, same trajectory) and write
# BENCH_eval.json. Every row is measured twice per arm; the bench
# refuses to write the report on any fingerprint divergence — restart
# count or any of the four evaluation counters, between repeats or
# between the two arms — which is why it doubles as a ci gate. The
# acceptance bar is >= 3x geomean iterations/sec for the plan engine
# over the reference engine.
BENCH_FLAGS_eval = -exp eval -budget 2000000

bench-eval:
	$(GO) run ./cmd/bench $(BENCH_FLAGS_eval)

# Compare stochastic size minimization, equality-saturation extraction,
# and their hybrid on both suites (superopt references + expression
# fixtures) and write BENCH_eqsat.json. Every row is computed twice;
# the bench refuses to write the report on any divergence.
bench-eqsat:
	$(GO) run ./cmd/bench -exp eqsat -budget 2000000 -problems 8

# bench-check runs the eval experiment as bench-eval does, but from a
# temporary working directory that it then deletes, report and all. ci
# gates on the experiment's refusal checks this way, so a ci run leaves
# the committed BENCH_eval.json as it is.
bench-check:
	@tmp="$$(mktemp -d)" && $(GO) build -o "$$tmp/bench" ./cmd/bench && \
		(cd "$$tmp" && ./bench $(BENCH_FLAGS_eval)); st=$$?; rm -rf "$$tmp"; exit $$st

# Vet and run the benchmark harness's own tests. cmd/perfbench is a
# module of its own (it replaces stochsyn with the repo root), so the
# root `go vet ./...` and `go test ./...` do not reach it; its loop
# replica drives mutate/plan/cost/prog exactly like search.Run and must
# stay bit-identical to it.
perfbench-test:
	cd cmd/perfbench && $(GO) vet . && $(GO) test .

# Boot synthd on an ephemeral port, submit a small SyGuS job through
# `synth -remote`, and assert the server returns a solution; then
# stream a job's events live and check that reading the finished job's
# stream again (now replayed from its sealed log) gives the same bytes,
# and that a Last-Event-ID resume gives the matching tail.
server-smoke:
	sh scripts/server_smoke.sh

# Boot a 1-coordinator / 2-worker fleet, solve through the
# coordinator, kill a worker mid-run, and assert the job fails over to
# the survivor (see internal/server/fleet).
fleet-smoke:
	sh scripts/fleet_smoke.sh
