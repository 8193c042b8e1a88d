#!/usr/bin/env bash
# Runs the unit tests, then the whole suite twice on the same tree, and fails
# unless -compare finds every end-to-end metric within its bound and the
# simulated side bit-identical: the benchmark agreeing with itself.
#
#   bash benchmarks/host/selfcheck.sh [seed] [seconds]
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
seed=${1:-1}
seconds=${2:-12}
out="$PWD/.bench_build/selfcheck"
rm -rf "$out"
mkdir -p "$out"

go -C "$here" vet ./...
go -C "$here" test -count=1 ./...

for side in a b; do
	for w in primes sort comp serve group4; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
			--out "$out/$side.json" | grep -v '^{' | sed "s/^/[$side] /"
	done
done
bash "$here/run.sh" --compare "$out/a.json" "$out/b.json"
