# repligc — common tasks. Everything is stdlib-only and offline.

.PHONY: all build lint test host-bench-test host-pairs loc fuzz-smoke bench bench-baseline bench-smoke serve-smoke crash-matrix crash-matrix-baseline trace pause-bound microbench experiments experiments-check quick-experiments examples

all: build lint test host-bench-test

build:
	go build ./...

# go vet plus the repository's invariant linter (cmd/gclint): write-barrier
# discipline (syntactic and interprocedural), from-space forwarding hygiene,
# stale heap.Values across may-flip calls, pause-only collector state,
# simulated-clock-only timing, deterministic iteration, dispatch
# exhaustiveness, and the annotation hygiene of //gclint:allow itself.
# See DESIGN.md, "Machine-checked invariants". gclint runs over ./..., which
# includes internal/analysis, internal/trace and internal/faultinject — the
# linter lints itself; like go build, it reads the host platform's files. Two
# cross-builds keep the other side of the heap arena's unix/!unix pair
# compiling. Seven shell checks follow. The first two keep runtime
# construction in one place: outside internal/rig (and recovery, which sizes
# a heap from a snapshot header, and the frozen benchmark), non-test Go may
# not call the constructors of a heap, a mutator, a group or a collector; and
# only a command (which does so when asked for a Chrome trace file) may
# construct a flight recorder — every digest reads the collector's own pause
# record. The third keeps reading a finished run in one place: the harness,
# the serving engine, the commands and the facade read rig.Runtime.Stats, not
# the collector's counters. The fourth keeps the torture driver
# (internal/gctest) a test driver: besides tests, only the crash matrix's
# reference runs and the frozen benchmark import it. The fifth and sixth keep
# the heap arena's lifetime rule: the arena may be mapped memory, valid only
# while its *Heap is reachable, so outside internal/heap no variable or field
# holds .Arena or a sub-slice of it, no call is handed the whole .Arena, and a
# file that loops over a sub-slice calls runtime.KeepAlive (that it keeps the
# right heap past the right loop is left to review). The last requires gofmt
# to have nothing to say outside the frozen benchmark and the analyzer's
# fixtures, whose goldens pin line:column positions.
lint:
	go vet ./...
	go run ./cmd/gclint ./...
	GOOS=windows go build ./...
	GOOS=darwin go build ./...
	@if git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmarks/' -e '/testdata/' -e '^internal/rig/' -e '^internal/checkpoint/recover\.go$$' | \
		xargs grep -nE 'heap\.New\(|core\.NewMutator\(|core\.NewGroup\(|core\.NewReplicating\(|stopcopy\.New\('; \
		then echo 'lint: a runtime is assembled outside internal/rig (lines above); call rig.New'; exit 1; fi
	@if git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmarks/' -e '/testdata/' -e '^cmd/' -e '^internal/trace/' | \
		xargs grep -nE 'trace\.NewRecorder\('; \
		then echo 'lint: a library layer attaches a flight recorder on its own (lines above); take rig.Config.Trace from the caller'; exit 1; fi
	@if git ls-files '*.go' | grep -v -e '_test\.go$$' | grep -e '^internal/bench/' -e '^internal/workload/' -e '^cmd/' -e '^repligc\.go$$' | \
		xargs grep -nE '\.GC\.(Stats|Pauses)\(\)'; \
		then echo 'lint: a finished run is read past its report (lines above); call rig.Runtime.Stats'; exit 1; fi
	@if git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmarks/' -e '/testdata/' -e '^internal/gctest/' -e '^internal/checkpoint/' | \
		xargs grep -n '"repligc/internal/gctest"'; \
		then echo 'lint: the torture driver is imported outside tests (lines above); it is a test driver'; exit 1; fi
	@if git ls-files '*.go' | grep -v -e '^internal/heap/' -e '^benchmarks/' -e '/testdata/' | \
		xargs grep -nE '(:?=|:)[[:space:]]*[[:alnum:]_.()]*\.Arena([[:space:]]*(,|\}|$$)|\[[^]]*:)|[(,][[:space:]]*[[:alnum:]_.]*\.Arena[[:space:]]*[,)]' | \
		grep -vE '(len|cap)\([[:alnum:]_.]*\.Arena\)'; \
		then echo 'lint: a heap arena is kept apart from its heap (lines above); index it through the *Heap, which keeps the mapping alive'; exit 1; fi
	@unkept=$$(git ls-files '*.go' | grep -v -e '^internal/heap/' -e '^benchmarks/' -e '/testdata/' | \
		xargs grep -lE '\.Arena\[[^]]*:' | xargs -r grep -L 'runtime\.KeepAlive('); \
		if [ -n "$$unkept" ]; then echo "$$unkept"; echo 'lint: the files above loop over a sub-slice of a heap arena and never call runtime.KeepAlive on the heap'; exit 1; fi
	@unformatted=$$(git ls-files '*.go' | grep -v -e '^benchmarks/' -e '/testdata/' | xargs gofmt -l); \
		if [ -n "$$unformatted" ]; then echo "$$unformatted"; echo 'lint: gofmt -l lists the files above; run gofmt -w on them'; exit 1; fi

test:
	go test ./...

# The repository benchmark (benchmarks/host) is a nested module, so ./...
# does not reach its unit tests; they take a tenth of a second.
host-bench-test:
	go -C benchmarks/host test ./...

# What a claim about a host metric needs: N alternating pairs of benchmark
# runs, the parent commit (in a git worktree) against this tree, then per
# metric both sides' medians and quartiles, the pairs each won and the
# benchmark's own --compare verdicts.
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

# Regenerate the committed quick-scale baseline (BENCH_SMOKE.json, the only
# committed perf report) that bench-smoke gates fresh reports against.
# Simulated numbers are deterministic across machines, so the gate compares
# exactly; rerun this target only when a deliberate collector or cost-model
# change moves them.
bench-baseline:
	go run ./cmd/rtgc-bench -quick -out BENCH_SMOKE.json perf
	go run ./cmd/rtgc-bench validate BENCH_SMOKE.json

# CI's bench smoke: a quick-scale report validated for schema shape and
# gated against the committed baseline (every field equal). Checkpoint
# recovery is crash-matrix's business: its baseline rows are the smoke.
bench-smoke:
	go run ./cmd/rtgc-bench -quick -out /tmp/bench_smoke.json -baseline BENCH_SMOKE.json perf
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
# Primes, Sort, Comp and the serving spec, read off the collector's pause
# record (no flight recorder): each command fails if a budgeted pause is
# longer than copying 2L + L/4 takes or copied more than that, lists the
# overruns (none here) and the three longest pauses by phase, and must print
# its "pause bound:" line.
pause-bound:
	go run ./cmd/rtgc-bench -worst 3 trace Primes | tee /dev/stderr | grep -q '^pause bound: the longest'
	go run ./cmd/rtgc-bench -worst 3 trace Sort | tee /dev/stderr | grep -q '^pause bound: the longest'
	go run ./cmd/rtgc-bench -worst 3 trace Comp | tee /dev/stderr | grep -q '^pause bound: the longest'
	go run ./cmd/rtgc -gc rt -worst 3 -serve examples/serve/mixed.json 2>&1 | tee /dev/stderr | grep -q '^pause bound: the longest'

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
