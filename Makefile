# repligc — common tasks. Everything is stdlib-only and offline.

.PHONY: all build vet lint test race host-bench-test host-pairs loc mutate fuzz-smoke bench bench-baseline bench-smoke serve-smoke crash-matrix crash-matrix-baseline trace pause-bound microbench experiments experiments-check quick-experiments examples examples-baseline

all: build lint test host-bench-test

build:
	go build ./...

# The repository's invariant linter (cmd/gclint), after vet. Its
# confinement table says which packages may call what: raw heap words stay
# in the collector packages, the host clock out of internal/ and cmd/, file
# I/O in cmd/ and internal/checkpoint, panics out of the collector packages,
# runtime constructors in internal/rig, pause brackets in the collectors, a
# finished run is read through rig.Runtime.Stats, and the torture driver is imported by
# tests and the crash matrix only. Its other rules check stale heap.Values across may-flip
# calls, deterministic iteration, dispatch exhaustiveness and the hygiene of its own
# annotations. See DESIGN.md, "Machine-checked invariants". gclint runs over
# ./..., which includes internal/analysis itself, and over the nested
# benchmark module, which go list's ./... does not enter. CI runs gclint on
# its own, with annotated findings, and vet in the build job.
lint: vet
	go run ./cmd/gclint ./... ./benchmarks/host

# go vet, two cross-builds and gofmt. Like go build, vet and gclint read the
# host platform's files, so the cross-builds keep the other side of the heap
# arena's unix/!unix pair compiling. Last, gofmt must have nothing to say
# outside the frozen benchmark and the analyzer's fixtures, whose goldens pin
# line:column positions.
vet:
	go vet ./...
	GOOS=windows go build ./...
	GOOS=darwin go build ./...
	@unformatted=$$(gofmt -l $$(git ls-files -- '*.go' ':!benchmarks/*' ':!*/testdata/*')); \
		if [ -n "$$unformatted" ]; then echo "$$unformatted"; echo 'vet: gofmt -l lists the files above; run gofmt -w on them'; exit 1; fi

# The test targets give the tests' temporary files to a tmpfs when one is
# writable: a fresh directory under /dev/shm as TMPDIR, removed afterwards
# (otherwise the command runs as it is). internal/checkpoint's crash and
# recovery tests spend seconds of wall time on file-system operations on a
# disk, milliseconds on a tmpfs.
tmpfs-run = if [ "$$(stat -f -c %T /dev/shm 2>/dev/null)" = tmpfs ] && [ -w /dev/shm ] && t=$$(mktemp -d /dev/shm/repligc-test.XXXXXX); \
	then TMPDIR=$$t $(1); s=$$?; rm -rf $$t; exit $$s; else $(1); fi

test:
	@$(call tmpfs-run,go test ./...)

# The race detector over the packages with process-wide state: the compiler
# parked between compiles (internal/lang, whose concurrent-compile test hands
# it between two goroutines), the count of mapped arenas that finalizers
# decrement (internal/heap) and the visit tables parked between reachability
# walks (internal/gctest, whose concurrent-walk test hands Verify's and
# internal/core's GraphDigest's between two goroutines; the race detector
# instruments core's code there, and core's own tests take minutes under it).
race:
	@$(call tmpfs-run,go test -race ./internal/lang ./internal/heap ./internal/gctest)

# The repository benchmark (benchmarks/host) is a nested module, so ./...
# does not reach its unit tests; they take a tenth of a second.
host-bench-test:
	go -C benchmarks/host test ./...

# What a claim about a host metric needs: N alternating pairs of benchmark
# runs, the parent commit (exported with git archive) against this tree,
# then per metric both sides' medians and quartiles, the pairs each won, the
# claim rule's verdict and the verdict against the benchmark's bound.
# WORKLOAD=all runs every workload in turn, a table each. SIM_CHANGE names
# the workloads whose simulated fingerprints the change moves on purpose
# (cmd/hostpairs -sim-change W=PARENT_FP:CHANGE_FP, comma-separated).
#   make host-pairs PARENT=HEAD~1 WORKLOAD=sort N=10 [SIM_CHANGE=sort=d7f6:21ed]
N ?= 10
host-pairs:
	SIM_CHANGE='$(SIM_CHANGE)' bash scripts/host-pairs.sh $(PARENT) $(WORKLOAD) $(N)

# The ROADMAP's tracked size metric: non-test Go lines per package and in
# total, over tracked files, without the benchmark's nested module and the
# analyzer's fixtures (scripts/loc.sh). With PARENT, each package's lines at
# that commit, here and the difference, which a change that claims to shrink
# the tree reports:
#   make loc PARENT=HEAD~1
loc:
	@bash scripts/loc.sh $(PARENT)

# The mutation matrix: each mutant of mutants.json (a one-site edit of the
# tree) applied to a copy of the tracked files, the tests of the packages
# that link the mutated one and gclint run on it, and mutation_matrix.json
# rewritten with the tests and rules that kill each mutant (cmd/mutate). A
# full run takes about an hour on two cores, so neither all nor CI runs it; a
# change adds its mutants to
# mutants.json and runs `go run ./cmd/mutate ID...` for their rows alone. The
# copy sits at the same path under TMPDIR every run (/dev/shm when it is a
# writable tmpfs), so an unchanged tree's second run reads the go command's
# caches.
mutate:
	@if [ "$$(stat -f -c %T /dev/shm 2>/dev/null)" = tmpfs ] && [ -w /dev/shm ]; then export TMPDIR=/dev/shm; fi; \
		go run ./cmd/mutate

# Ten seconds of native fuzzing per target, from the committed seed corpora
# (`go test` alone runs only the seeds): the parser's token array and its
# census against LexAll, Compile ending in a program, a positioned error or
# a typed OOM, the three decoders of external bytes — the shared frame
# reader, the serving trace and checkpoint recovery — each ending in an exact
# decode or a typed *artifact.CorruptError, the instruction decoder of the
# compiler's code buffers, ending in an exact re-encode and a printable
# instruction, and the two JSON readers — the serving spec, and the perf and
# serving report validators — each ending in a value or an error; never a
# panic. The torture driver's compaction, at points the input picks, must
# leave Verify passing and the heap its uncompacted twin's. The targets over kilobyte inputs switch input minimisation off: by
# default the fuzzer spends up to a minute shrinking every
# coverage-expanding input, which at that size is the whole smoke.
fuzz-smoke:
	go test ./internal/lang -run '^$$' -fuzz '^FuzzLexStream$$' -fuzztime 10s
	go test ./internal/lang -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s
	go test ./internal/artifact -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s -fuzzminimizetime 0
	go test ./internal/workload -run '^$$' -fuzz '^FuzzDecodeTrace$$' -fuzztime 10s -fuzzminimizetime 0
	go test ./internal/checkpoint -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 10s -fuzzminimizetime 0
	go test ./internal/workload -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s -fuzzminimizetime 0
	go test ./internal/bench -run '^$$' -fuzz '^FuzzValidateReports$$' -fuzztime 10s -fuzzminimizetime 0
	go test ./internal/bytecode -run '^$$' -fuzz '^FuzzDecodeInstr$$' -fuzztime 10s
	go test ./internal/gctest -run '^$$' -fuzz '^FuzzDriverCompact$$' -fuzztime 10s

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

# CI's serving smoke: serve the committed spec twice, validate the report,
# and require the two reports to be byte-identical — a spec serves the same
# traffic, bit for bit, or the build fails.
serve-smoke:
	go run ./cmd/rtgc-bench -out /tmp/serve_smoke.json serve examples/serve/mixed.json
	go run ./cmd/rtgc-bench validate /tmp/serve_smoke.json
	go run ./cmd/rtgc-bench -out /tmp/serve_again.json serve examples/serve/mixed.json
	cmp /tmp/serve_smoke.json /tmp/serve_again.json

# The deterministic crash-point matrix: seeded workloads × crash plans
# (an epoch file's image or commit section × truncate/torn-word/
# duplicate-record, newest-epoch and all-epoch damage). Every cell must end in
# a fingerprint-verified recovery or a typed corruption rejection. The report
# is a pure function of the tree, so the fresh one (the CI artifact) must
# equal the committed crash_matrix.json byte for byte (diff shows the cells
# that moved).
crash-matrix:
	go run ./cmd/rtgc-bench -out /tmp/crash_matrix.json crashmatrix
	go run ./cmd/rtgc-bench validate /tmp/crash_matrix.json
	diff -u crash_matrix.json /tmp/crash_matrix.json

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
# budgeted pause is longer than its budget and the last unit begun in it
# (51.207 ms) or copied more than 2L and a word, lists the overruns (none
# here) and the three longest pauses by phase, and must print its "pause
# bound:" line. A checkpoint commit is an
# unbudgeted pause; the snapshot increments draw on their pause's budget.
# pause-bound-run runs a command with its output in a temporary directory
# ($t in the command), shows the output on standard error and fails without
# the line. It writes through make's own standard error: reopening
# /dev/stderr by path (tee) would truncate a redirected log at every run.
pause-bound-run = t=$$(mktemp -d); $(1) > $$t/out 2>&1; cat $$t/out >&2; grep -q '^pause bound: the longest' $$t/out; s=$$?; rm -rf $$t; exit $$s

pause-bound:
	$(call pause-bound-run,go run ./cmd/rtgc-bench -worst 3 trace Primes)
	$(call pause-bound-run,go run ./cmd/rtgc-bench -worst 3 trace Sort)
	$(call pause-bound-run,go run ./cmd/rtgc-bench -worst 3 trace Comp)
	$(call pause-bound-run,go run ./cmd/rtgc -gc rt -worst 3 -serve examples/serve/mixed.json)
	$(call pause-bound-run,go run ./cmd/rtgc -gc rt -checkpoint $$t/ckpt -worst 3 -prelude examples/miniml/queens.ml)

# One testing.B benchmark per paper table/figure, at the quick scale, and
# internal/core's wall-clock pairs: the barrier's naive, dirty-hit, dirty-miss
# and nursery outcomes, naive against coalesced log replay, allocation,
# getheader and a minor collection.
microbench:
	go test -bench=. -benchmem -run '^$$' . ./internal/core

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

# The five facade programs run on simulated time only, so each one's stdout
# is a pure function of the tree: it must equal the committed
# examples/<name>/output.txt byte for byte (diff shows the lines that moved).
EXAMPLES = quickstart interactive primes futures replay
examples:
	@d=$$(mktemp -d); trap 'rm -rf $$d' EXIT; for e in $(EXAMPLES); do \
		echo "go run ./examples/$$e"; \
		go run ./examples/$$e > $$d/$$e.txt && diff -u examples/$$e/output.txt $$d/$$e.txt || exit 1; \
	done

# Regenerate the committed outputs; only a deliberate simulated change or a
# change to what an example prints moves them.
examples-baseline:
	@for e in $(EXAMPLES); do \
		echo "go run ./examples/$$e > examples/$$e/output.txt"; \
		go run ./examples/$$e > examples/$$e/output.txt || exit 1; \
	done
