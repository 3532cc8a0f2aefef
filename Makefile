GO ?= go

.PHONY: check build test vet lint lint-fast bench-lint race smoke bench-paper fmt

# Tier-1 gate: vet, rcvet, build, tests and the race sweep. CI runs
# these plus bench-lint, rcvet as a vettool, gofmt and `make smoke`.
check: vet lint build test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Repo-specific static analysis (cmd/rcvet), thirteen analyzers over
# interprocedural call-graph summaries: determinism of seeded packages,
# map-iteration order, lock scope/copies, lock-order deadlock cycles,
# //rcvet:hotpath zero-alloc enforcement, goroutine join reachability,
# ignored I/O errors, constant metric names, the concurrency
# value-flow trio — mixed atomic/plain field access, sync.Pool and
# free-list escapes, and uncancellable blocking goroutines/handlers —
# and the CFG-based pair: typestate (lifecycle obligations: files,
# response bodies, spans, columnar writers, coalesced flights) and
# nilflow (guaranteed nil dereferences). Findings carry the witness
# call chain, are emitted in stable file:line order (-json for the
# machine-readable form), and any finding fails the build. Per-package
# summary sidecars are cached in .rcvet-cache (content-hash keyed;
# safe to delete). Also runnable as `go vet -vettool=$$(pwd)/bin/rcvet`.
lint:
	$(GO) run ./cmd/rcvet -summarydir .rcvet-cache ./...

# The sub-second inner-loop subset: every analyzer that needs neither
# the CFG solver nor the value-flow index, selected via -analyzers.
# Full fidelity (pool lifetimes, cancellation taint, typestate,
# nilness) still comes from `make lint`.
lint-fast:
	$(GO) run ./cmd/rcvet -summarydir .rcvet-cache \
		-analyzers determinism,maporder,lockscope,metricname,lockorder,allocfree,goroleak,errflow,atomicfield ./...

# Wall-clock for a full cold rcvet pass (summaries + all analyzers,
# whole module); also fails on any repo-wide finding. The budget test
# asserts the same cold pass stays under 250ms so new fact kinds don't
# regress lint latency. (History: 150ms through the flow-insensitive
# era; raised to 250ms when the CFG tier landed — typestate, nilflow,
# the poolescape/ctxflow upgrades, and obligation-fact summarization
# cost ~100ms of real analysis; rationale in DESIGN.md.)
bench-lint:
	$(GO) test -run '^$$' -bench BenchmarkRcvetWholeRepo ./internal/lint
	RCVET_BUDGET_MS=250 $(GO) test -run TestRcvetColdPassBudget -v ./internal/lint

# Race-check the whole module. This used to enumerate just the
# packages with concurrent hot paths; the full sweep costs only a few
# extra seconds and CI runs it verbatim, so nothing concurrent can
# slip through unlisted.
race:
	$(GO) test -race ./...

# Short seed-1 runs of four bench workloads. Each fails on a wrong
# answer, a bench/golden.json mismatch or any failed operation:
# sched.sweep drives the chunk-fed simulator, client.miss model
# execution, http.mixed the built rcserve binary over loopback, and
# offline.ingest the Azure transcode and the parallel columnar decode.
smoke:
	@for w in sched.sweep client.miss http.mixed offline.ingest; do \
		echo "== $$w"; \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | grep -q '"failed":0,' || { echo "smoke: $$w reported failed operations"; exit 1; }; \
	done

# Regenerate the paper's evaluation numbers (Tables 4-6, Figs 9-11).
bench-paper:
	$(GO) test -bench . -benchtime 1x .

fmt:
	gofmt -w $$(git ls-files '*.go')
