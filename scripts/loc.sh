#!/bin/sh
# loc.sh — the repository's non-test Go line count (ROADMAP item 6), per
# package directory and in total. It counts the .go files git knows of
# (tracked, or untracked and not ignored), minus tests, bench/ and the
# top-level testdata/, so a build directory such as .bench_build/ never
# enters the count and no clean checkout is needed.
#
#	sh scripts/loc.sh            # one "lines directory" row each, then the total
#	sh scripts/loc.sh | tail -n 1
set -eu

cd "$(dirname "$0")/.."

git ls-files --cached --others --exclude-standard -- '*.go' |
	grep -v -e '_test\.go$' -e '^bench/' -e '^testdata/' |
	sort -u |
	while read -r f; do
		if [ -f "$f" ]; then
			printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
		fi
	done |
	awk '{ n[$1] += $2; total += $2 }
	END {
		for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d total\n", total
	}'
