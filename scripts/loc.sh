#!/usr/bin/env bash
# The ROADMAP's tracked size metric: non-test Go lines per package and in
# total, over tracked files, without the benchmark's nested module and the
# analyzer's fixtures.
#
#   bash scripts/loc.sh          this tree: lines per package, then the total
#   bash scripts/loc.sh <ref>    per package: the lines at <ref>, here, and the
#                                difference, then the totals
#
# <ref> is read with git ls-tree and git show, so nothing is checked out, and
# its files are filtered exactly as this tree's are. This tree's files are the
# tracked ones: git add a new file before counting it.
set -euo pipefail

cd "$(dirname "$0")/.."

# counted keeps, of a list of paths, the files the metric counts.
counted() {
	grep -e '\.go$' | grep -v -e '_test\.go$' -e '^benchmarks/' -e '/testdata/' || true
}

# lines prints "<lines> <path>" for each counted file, of this tree or of the
# commit named by its argument.
lines() {
	local f
	if [ $# -eq 0 ]; then
		git ls-files '*.go' | counted | while read -r f; do
			printf '%d %s\n' "$(wc -l <"$f")" "$f"
		done
	else
		git ls-tree -r --name-only "$1" | counted | while read -r f; do
			printf '%d %s\n' "$(git show "$1:$f" | wc -l)" "$f"
		done
	fi
}

# Each input line is "<side> <lines> <path>"; a path's package is its
# directory, "." for the root.
pkg='{ d = $3; if (!sub("/[^/]*$", "", d)) d = "." }'

if [ $# -eq 0 ]; then
	lines | sed 's/^/here /' | awk "$pkg"' { n[d] += $2; t += $2 }
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
	exit 0
fi

ref=$1
if ! git rev-parse --verify -q "$ref^{commit}" >/dev/null; then
	echo "loc: $ref names no commit" >&2
	exit 2
fi
{ lines "$ref" | sed 's/^/parent /'; lines | sed 's/^/here /'; } | awk -v ref="$ref" "$pkg"' {
		seen[d] = 1
		if ($1 == "parent") { p[d] += $2; tp += $2 } else { h[d] += $2; th += $2 }
	}
	END {
		printf "%7s %7s %7s %s\n", "parent", "here", "diff", "package (parent: " ref ")"
		for (d in seen) printf "%7d %7d %+7d %s\n", p[d], h[d], h[d] - p[d], d | "sort -k4"
		close("sort -k4")
		printf "%7d %7d %+7d total\n", tp, th, th - tp
	}'
