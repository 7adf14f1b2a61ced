GO ?= go

# The packages with first-class doc.go documentation; `make docs`
# smoke-tests that each still renders.
DOC_PKGS = repro/internal/jsontext repro/internal/infer \
           repro/internal/typelang repro/internal/mison repro/internal/core \
           repro/internal/registry repro/internal/daemon/intake \
           repro/internal/daemon/metrics

.PHONY: all build vet test test-wall race fuzz-smoke bench bench-stream bench-e2e bench-compare bench-budget test-bench docs loc fixtures serve smoke-daemon ab-identity ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Tier-1 wall time: each package's and the ten slowest top-level tests'
# (go test -json, read by awk); exits with go test's status.
test-wall:
	@GO='$(GO)' ./scripts/test_wall.sh

# Concurrency-sensitive packages under the race detector.
race:
	$(GO) test -race ./internal/infer/ ./internal/typelang/ ./internal/jsontext/ ./internal/mison/ ./internal/registry/ ./internal/daemon/... ./cmd/jsinferd/

# The differentials, $(FUZZTIME) each: the index walk and the token
# walk over mison's structural index against the reference lexer, the
# index's four bitmaps against a byte-at-a-time reference, the
# reference lexer against the DOM decoder, the absorption surface
# against MergeAll, windows (any target, one, two and four workers,
# every input kind) against the oracle — every walk final, whatever
# the bytes, and no byte walked twice on any input the oracle
# accepts; seeded with the engine table's small inputs (windowInputs,
# infer/oracle_test.go) — mison.Chunker against the
# byte-at-a-time splitter, an index walk whose pattern tree was
# trained on foreign bytes against the token walker, the daemon's body
# decoder against compress/gzip plus http.MaxBytesReader, Spark's
# fold against its projection of the K and L schemas (DOM and
# streamed), the soundness law: every document of a collection is a
# member of its streamed K and L schemas and of their JSON Schema
# documents, and the code generators over arbitrary field names: both
# outputs balanced with every string literal on one line, every Swift
# property a distinct legal identifier, and the registry's kept schema
# renderings against a fresh seal's over arbitrary bytes cut into
# ingests. They gate every change to a
# lexer, to either walk, to the input stage, to the intake, to the
# projection, to a schema writer, to a code generator or to the
# registry's read path;
# `go test -fuzz` takes one target of one package per run.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzIndexAbsorb$$' -fuzztime $(FUZZTIME) ./internal/infer/
	$(GO) test -run '^$$' -fuzz '^FuzzTokenSource$$' -fuzztime $(FUZZTIME) ./internal/mison/
	$(GO) test -run '^$$' -fuzz '^FuzzIndexBitmaps$$' -fuzztime $(FUZZTIME) ./internal/mison/
	$(GO) test -run '^$$' -fuzz '^FuzzTokenReader$$' -fuzztime $(FUZZTIME) ./internal/jsontext/
	$(GO) test -run '^$$' -fuzz '^FuzzAbsorbSurface$$' -fuzztime $(FUZZTIME) ./internal/typelang/
	$(GO) test -run '^$$' -fuzz '^FuzzStreamWindows$$' -fuzztime $(FUZZTIME) ./internal/infer/
	$(GO) test -run '^$$' -fuzz '^FuzzChunkerVsScan$$' -fuzztime $(FUZZTIME) ./internal/infer/
	$(GO) test -run '^$$' -fuzz '^FuzzPatternTree$$' -fuzztime $(FUZZTIME) ./internal/infer/
	$(GO) test -run '^$$' -fuzz '^FuzzIntakeBody$$' -fuzztime $(FUZZTIME) ./internal/daemon/intake/
	$(GO) test -run '^$$' -fuzz '^FuzzSparkFromType$$' -fuzztime $(FUZZTIME) ./internal/sparkinfer/
	$(GO) test -run '^$$' -fuzz '^FuzzInferredSchemaIsSound$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzCodegenNames$$' -fuzztime $(FUZZTIME) ./internal/codegen/
	$(GO) test -run '^$$' -fuzz '^FuzzKeptRenderingIsFresh$$' -fuzztime $(FUZZTIME) ./internal/registry/

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Short streaming benchmark — the dom/mison pairs, the
# reader-vs-bytes zero-copy pair, the colon-dense fields row (one
# row per shape: the streamed engine has one map phase) and the
# high-cardinality L sparse rows at one and two workers, plus the
# mison-vs-lexer token-throughput pair and the index pass alone
# (FieldWalker.Reset's MB/s on the jsperf-sized tweets, fields and
# sparse corpora). Every row is five samples of
# five iterations (benchstat-comparable; a time-based -benchtime gave
# the 50–350 ms tweets rows one iteration each, i.e. noise). CI runs this as a
# non-blocking step so the numbers land in every build log without
# gating merges on a noisy runner.
bench-stream:
	$(GO) test -run '^$$' -bench 'BenchmarkE3StreamingInference' -benchtime 5x -count 5 -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkTokenSourceVsLexer|BenchmarkFieldWalkerReset' -benchtime 5x -count 5 -benchmem ./internal/mison/

# The repository benchmark (BENCHMARK.json, bench/README.md): bench-e2e
# appends one result set — every workload, ten 25-second runs each — to
# $(SETS) under the label $(SET) (about 20 minutes); bench-compare
# applies BENCHMARK.json's bounds to two sets, each a file or
# file#label, and exits 1 if any row is worse. Paths must be absolute:
# the commands run inside bench/, a module of its own.
#   make bench-e2e SET=parent      (on the parent commit's checkout)
#   make bench-e2e SET=change SETS=/path/to/the/same/sets.json
#   make bench-compare OLD=/path/sets.json#parent NEW=/path/sets.json#change
SET  ?= a
SETS ?= $(CURDIR)/bench/out/sets.json
bench-e2e:
	$(GO) run -C bench ./jsperf -workload all -runs 10 -seed 1 -set $(SET) -out $(SETS)

bench-compare:
	$(GO) run -C bench ./jsperf -compare '$(OLD)' '$(NEW)'

# The layer budget of one workload from one traced run (a minute or
# two): jsperf's `# budget`, `# self time` and `# core.infer` notes and
# its per-layer metrics.
#   make bench-budget W=fields_par SEED=1
# The traced in-process layers (core.infer, mison.*, typelang.*,
# infer.*, registry.*) run inside jsperf's own binary; the built
# commands are timed by the cold CLI op clock of the `# core.infer`
# note, jsinfer.process_overhead_ms and the jsinferd.* latencies.
W    ?= fields_par
SEED ?= 1
bench-budget:
	@out="$$($(GO) run -C bench ./jsperf -workload $(W) -seed $(SEED) -trace 1)" || exit 1; \
		echo "$$out" | grep -E '^# (budget |self time:|core\.infer: |[a-zA-Z0-9_.]+ +-?[0-9])'

# The benchmark's own unit and smoke tests (bench/ is a nested module,
# so tier-1 `go test ./...` does not see them; about a minute).
test-bench:
	cd bench && $(GO) test ./...

# Documentation smoke: formatting is clean, vet is clean, and every
# documented package still renders a doc page.
docs:
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	@for pkg in $(DOC_PKGS); do \
		$(GO) doc $$pkg >/dev/null || exit 1; done
	@echo "docs ok"

# Lines of non-test Go outside bench/, all and code (neither blank nor a
# // comment), in total and per package: the count ROADMAP's "Sizes" uses.
loc:
	@./scripts/loc.sh

# Run the jsinferd ingest daemon locally (ctrl-C to stop).
serve:
	$(GO) run repro/cmd/jsinferd -addr :8787

# End-to-end daemon smoke: boot jsinferd, POST a checked-in fixture and
# two generated bodies of several read blocks (NDJSON and pretty-printed),
# and assert each served schema is byte-identical to `jsinfer` over the
# same file and each long body was absorbed in line.
smoke-daemon:
	./scripts/smoke_jsinferd.sh

# Identity A/B of jsinfer between two versions of this repository, each
# a checkout directory or a git revision: stdout, stderr and exit code
# over every valid and malformed cell scripts/ab_jsinfer.sh lists (a few
# thousand runs, some minutes); prints each cell that differs and exits
# 1 if any does.
#   make ab-identity OLD=HEAD~1 NEW=.
ab-identity:
	./scripts/ab_jsinfer.sh '$(OLD)' '$(NEW)'

# Regenerate the checked-in NDJSON fixtures (deterministic seeds).
fixtures:
	$(GO) run repro/cmd/jsfixtures -dir testdata

ci: build vet test
