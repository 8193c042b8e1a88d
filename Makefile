# repligc — common tasks. Everything is stdlib-only and offline.

.PHONY: all build lint test host-bench-test host-pairs loc fuzz-smoke bench bench-baseline bench-smoke serve-smoke crash-matrix crash-matrix-baseline trace pause-bound microbench experiments experiments-check quick-experiments examples

all: build lint test host-bench-test

build:
	go build ./...

# go vet plus the repository's invariant linter (cmd/gclint). Its
# confinement table says which packages may call what: raw heap words and
# forwarding pointers stay in the collector packages, the host clock out of
# internal/ and cmd/, file I/O in cmd/ and internal/checkpoint, panics out of
# the collector packages, runtime constructors in internal/rig, flight
# recorders in the commands, pause brackets in the collectors, a finished run
# is read through rig.Runtime.Stats, and the torture driver is imported by
# tests and the crash matrix only. Its other rules check stale heap.Values across may-flip
# calls, barrier completeness through helpers, pause-only collector state,
# deterministic iteration, dispatch exhaustiveness and the hygiene of its own
# annotations. See DESIGN.md, "Machine-checked invariants". gclint runs over
# ./..., which includes internal/analysis itself; like go build, it reads the
# host platform's files, so two cross-builds keep the other side of the heap
# arena's unix/!unix pair compiling. Last, gofmt must have nothing to say
# outside the frozen benchmark and the analyzer's fixtures, whose goldens pin
# line:column positions.
lint:
	go vet ./...
	go run ./cmd/gclint ./...
	GOOS=windows go build ./...
	GOOS=darwin go build ./...
	@unformatted=$$(gofmt -l $$(git ls-files -- '*.go' ':!benchmarks/*' ':!*/testdata/*')); \
		if [ -n "$$unformatted" ]; then echo "$$unformatted"; echo 'lint: gofmt -l lists the files above; run gofmt -w on them'; exit 1; fi

test:
	go test ./...

# The repository benchmark (benchmarks/host) is a nested module, so ./...
# does not reach its unit tests; they take a tenth of a second.
host-bench-test:
	go -C benchmarks/host test ./...

# What a claim about a host metric needs: N alternating pairs of benchmark
# runs, the parent commit (exported with git archive) against this tree,
# then per metric both sides' medians and quartiles, the pairs each won and
# the benchmark's own --compare verdicts.
#   make host-pairs PARENT=HEAD~1 WORKLOAD=sort N=10
N ?= 10
host-pairs:
	bash scripts/host-pairs.sh $(PARENT) $(WORKLOAD) $(N)

# The ROADMAP's tracked size metric: non-test Go lines per package and in
# total, over tracked files, without the benchmark's nested module and the
# analyzer's fixtures.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmarks/' -e '/testdata/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Ten seconds of native fuzzing per target, from the committed seed corpora
# (`go test` alone runs only the seeds): the streamed lexer against LexAll,
# Compile ending in a program, a positioned error or a typed OOM, the three
# decoders of external bytes — the shared frame reader, the serving trace and
# checkpoint recovery — each ending in an exact decode or a typed
# *artifact.CorruptError, and the two JSON readers — the serving spec, and the
# perf and serving report validators — each ending in a value or an error;
# never a panic. The targets over kilobyte inputs switch input minimisation
# off: by default the fuzzer spends up to a minute shrinking every
# coverage-expanding input, which at that size is the whole smoke.
fuzz-smoke:
	go test ./internal/lang -run '^$$' -fuzz '^FuzzLexStream$$' -fuzztime 10s
	go test ./internal/lang -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s
	go test ./internal/artifact -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s -fuzzminimizetime 0
	go test ./internal/workload -run '^$$' -fuzz '^FuzzDecodeTrace$$' -fuzztime 10s -fuzzminimizetime 0
	go test ./internal/checkpoint -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 10s -fuzzminimizetime 0
	go test ./internal/workload -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s -fuzzminimizetime 0
	go test ./internal/bench -run '^$$' -fuzz '^FuzzValidateReports$$' -fuzztime 10s -fuzzminimizetime 0

# The perf trajectory at full scale: per-workload
# baseline-vs-coalesced-vs-checkpointed log and pause metrics and the serving
# section (schema repligc-bench/10). All of it is simulated, so the report is a
# pure function of the tree and is rebuilt on demand, not committed.
bench:
	go run ./cmd/rtgc-bench -out /tmp/bench_full.json perf
	go run ./cmd/rtgc-bench validate /tmp/bench_full.json

# Regenerate the committed quick-scale report (BENCH_SMOKE.json, the only
# committed perf report) that bench-smoke compares fresh reports with.
# Simulated numbers are deterministic across machines, so the comparison is
# byte for byte; rerun this target only when a deliberate collector or
# cost-model change moves them.
bench-baseline:
	go run ./cmd/rtgc-bench -quick -out BENCH_SMOKE.json perf
	go run ./cmd/rtgc-bench validate BENCH_SMOKE.json

# CI's bench smoke: a fresh quick-scale report must equal the committed
# BENCH_SMOKE.json byte for byte (diff shows the lines that moved), and is
# validated for schema shape. Checkpoint recovery is crash-matrix's business:
# its baseline rows are the smoke.
bench-smoke:
	go run ./cmd/rtgc-bench -quick -out /tmp/bench_smoke.json perf
	diff -u BENCH_SMOKE.json /tmp/bench_smoke.json
	go run ./cmd/rtgc-bench validate /tmp/bench_smoke.json

# CI's serving smoke: serve the committed spec (recording the materialised
# trace), validate the report, replay the recorded trace, and require the
# replayed report to be byte-identical — record/replay is exact or the build
# fails.
serve-smoke:
	go run ./cmd/rtgc-bench -out /tmp/serve_smoke.json -record /tmp/serve_smoke.trace serve examples/serve/mixed.json
	go run ./cmd/rtgc-bench validate /tmp/serve_smoke.json
	go run ./cmd/rtgc-bench -out /tmp/serve_replay.json servereplay /tmp/serve_smoke.trace
	cmp /tmp/serve_smoke.json /tmp/serve_replay.json

# The deterministic crash-point matrix: seeded workloads × crash plans
# (snapshot/WAL × truncate/torn-word/duplicate-record, newest-epoch and
# all-epoch damage). Every cell must end in a fingerprint-verified recovery
# or a typed corruption rejection. The report is a pure function of the tree,
# so the fresh one (the CI artifact) must equal the committed
# crash_matrix.json byte for byte.
crash-matrix:
	go run ./cmd/rtgc-bench -out /tmp/crash_matrix.json crashmatrix
	go run ./cmd/rtgc-bench validate /tmp/crash_matrix.json
	cmp /tmp/crash_matrix.json crash_matrix.json

# Regenerate the committed report; only a deliberate change to the checkpoint
# format, the crash plans or the collector moves it.
crash-matrix-baseline:
	go run ./cmd/rtgc-bench -out crash_matrix.json crashmatrix
	go run ./cmd/rtgc-bench validate crash_matrix.json

# Emit a Perfetto-loadable Chrome trace per paper workload (full scale) and
# shape-check each artifact with the same validator CI uses: -out is what
# attaches a flight recorder.
trace:
	go run ./cmd/rtgc-bench -out /tmp/repligc_trace.json trace
	go run ./cmd/rtgc-bench validate /tmp/repligc_trace-primes.json
	go run ./cmd/rtgc-bench validate /tmp/repligc_trace-sort.json
	go run ./cmd/rtgc-bench validate /tmp/repligc_trace-comp.json

# The pause bound (DESIGN.md, "Pause bound") at full scale under rt, on
# Primes, Sort, Comp, the serving spec and a checkpointed program, read off
# the collector's pause record (no flight recorder): each command fails if a
# budgeted pause is longer than copying 2L + L/4 takes or copied more than
# that, lists the overruns (none here) and the three longest pauses by phase,
# and must print its "pause bound:" line. A checkpoint commit is an
# unbudgeted pause; the snapshot increments draw on their pause's budget.
pause-bound:
	go run ./cmd/rtgc-bench -worst 3 trace Primes | tee /dev/stderr | grep -q '^pause bound: the longest'
	go run ./cmd/rtgc-bench -worst 3 trace Sort | tee /dev/stderr | grep -q '^pause bound: the longest'
	go run ./cmd/rtgc-bench -worst 3 trace Comp | tee /dev/stderr | grep -q '^pause bound: the longest'
	go run ./cmd/rtgc -gc rt -worst 3 -serve examples/serve/mixed.json 2>&1 | tee /dev/stderr | grep -q '^pause bound: the longest'
	d=$$(mktemp -d) && go run ./cmd/rtgc -gc rt -checkpoint $$d -worst 3 -prelude examples/miniml/queens.ml 2>&1 | tee /dev/stderr | grep -q '^pause bound: the longest'; s=$$?; rm -rf $$d; exit $$s

# One testing.B benchmark per paper table/figure, at the quick scale.
microbench:
	go test -bench=. -benchmem -run '^$$' .

# Regenerate every table and figure of the paper at full scale.
experiments:
	go run ./cmd/rtgc-bench all

quick-experiments:
	go run ./cmd/rtgc-bench -quick all

# The paper section's gate: the committed full-scale run is what this tree
# prints. Everything in it is simulated, so the comparison is exact on any
# machine; a deliberate collector or cost-model change regenerates the file
# (go run ./cmd/rtgc-bench all > docs/full-run.txt) and re-reads EXPERIMENTS.md
# from it.
experiments-check:
	go run ./cmd/rtgc-bench all | cmp - docs/full-run.txt

examples:
	go run ./examples/quickstart
	go run ./examples/interactive
	go run ./examples/primes
	go run ./examples/futures
	go run ./examples/replay
	go run ./examples/lowlatency
