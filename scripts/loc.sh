#!/usr/bin/env bash
# loc.sh [dir]
#
# Prints the `wc -l` of the non-test, non-generated Go source under
# dir (default: the repository root), one row per package directory
# and a total — the figure ROADMAP.md asks every diet item to report
# before and after — then a `generated` row with the lines of the
# generated files, which the total leaves out. A file is a test when
# it is named *_test.go and generated when it carries the standard
# "// Code generated … DO NOT EDIT." header line. Tracked and
# untracked files count alike; what .gitignore excludes (build
# caches, the benchmark's scratch) does not.
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

{ git ls-files -co --exclude-standard -- '*.go' 2>/dev/null || find . -name '*.go' | sed 's|^\./||'; } |
	grep -v '_test\.go$' | sort -u |
	while IFS= read -r f; do
		[ -f "$f" ] || continue
		kind=$(dirname "$f")
		grep -qE '^// Code generated .* DO NOT EDIT\.$' "$f" && kind='(generated)'
		printf '%s %s\n' "$(wc -l <"$f")" "$kind"
	done |
	awk '$2 == "(generated)" { generated += $1; next }
		{ n[$2] += $1; total += $1 }
		END {
			for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
			close("sort -k2")
			printf "%7d  total\n", total
			printf "%7d  generated\n", generated
		}'
