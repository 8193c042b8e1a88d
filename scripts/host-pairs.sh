#!/usr/bin/env bash
# Paired, alternating runs of the repository benchmark on a parent commit and
# on this tree: the protocol every claim about a host metric needs
# (benchmarks/host/README.md, "Repeatability").
#
#   bash scripts/host-pairs.sh <parent-ref> <workload> [pairs=10] [seed=1] [seconds=12]
#
# The parent is exported with git archive into .bench_build/ (removed on
# exit). Each tree builds and runs its own benchmarks/host/run.sh, traced
# so the per-layer metrics are there, one run at a time, and which side goes
# first flips every pair; each run's progress lines are the end-to-end
# metrics and the harness's Go allocation volume and GC cycles. cmd/hostpairs
# then prints a table: per metric, both sides' medians and quartiles over the
# runs, the pairs each won, the claim rule's verdict and, for end-to-end
# metrics, the verdict against the benchmark's bound. The exit status is
# cmd/hostpairs': 1 when an end-to-end metric is over its bound or the sides'
# simulated fingerprints differ.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,17p' "$0" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=${3:-10} seed=${4:-1} seconds=${5:-12}

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build/pairs/$workload"
rm -rf "$out"
mkdir -p "$out"

tree="$root/.bench_build/pairs/parent-tree"
rm -rf "$tree"
mkdir -p "$tree"
git archive "$parent" | tar -x -C "$tree"
trap 'rm -rf "$tree"' EXIT
echo "parent $(git rev-parse --short "$parent") in $tree; change: this tree at $(git rev-parse --short HEAD) plus its uncommitted edits" >&2

run() { # side, tree, pair
	(cd "$2" && bash benchmarks/host/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 1 --out "$out/$1.$3.json") |
		grep -E '^  (setup_s|host_run_s|host_peak_rss_mb|host_mallocs_k|harness\.total_alloc_mb|harness\.go_gc_cycles) ' |
		sed "s/^/[$1 $3]/" >&2
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$tree" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$tree" "$i"
	fi
done

go run ./cmd/hostpairs -dir "$out" -runs
