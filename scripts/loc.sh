#!/usr/bin/env bash
# Non-test Go lines outside bench/: the tracked size of the program
# (ROADMAP aim 2). Prints the total, then one line per top-level package
# directory (internal/<pkg> with everything below it, cmd, examples, and
# "." for the root package). Raw `wc -l` lines — comments and blanks
# count, so reformatting cannot move the number much either way.
#
# The total is gated: it must not exceed the one integer in
# scripts/loc.budget. A PR that needs more lines raises the budget in its
# own diff, where review sees it; one that removes lines lowers it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
budget=$(<scripts/loc.budget)
find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.*' -print0 |
	xargs -0 wc -l | awk -v budget="$budget" '
	$2 == "total" { next }
	{
		n = split($2, p, "/")
		key = "."
		if (n > 2) key = p[2]
		if (n > 3 && p[2] == "internal") key = p[2] "/" p[3]
		lines[key] += $1
		total += $1
	}
	END {
		printf "%7d total\n", total
		for (k in lines) printf "%7d %s\n", lines[k], k | "sort -k2"
		close("sort -k2")
		if (total > budget) {
			printf "loc.sh: %d non-test lines exceed the budget of %d (scripts/loc.budget)\n", total, budget > "/dev/stderr"
			exit 1
		}
	}'
