#!/usr/bin/env bash
# Non-test Go lines outside bench/: the tracked size of the program
# (ROADMAP aim 2). Prints the total, then one line per top-level package
# directory (internal/<pkg> with everything below it, cmd, examples, and
# "." for the root package). Raw `wc -l` lines — comments and blanks
# count, so reformatting cannot move the number much either way.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.*' -print0 |
	xargs -0 wc -l | awk '
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
	}'
