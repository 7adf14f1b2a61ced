#!/bin/sh
# Counts the module's non-test Go outside bench/ (a module of its own):
# all lines, and code lines — lines neither blank nor a // comment — in
# total and per package directory. Run from the repository root
# (make loc).
set -eu
find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print |
	sed 's|^\./||' | sort |
	xargs awk '
	{
		dir = FILENAME
		sub(/\/[^\/]*$/, "", dir)
		if (dir == FILENAME) dir = "."
		lines[dir]++
		total++
		t = $0
		gsub(/^[ \t]+/, "", t)
		if (t != "" && substr(t, 1, 2) != "//") { code[dir]++; ctotal++ }
	}
	END {
		printf "%-28s %7s %7s\n", "package", "lines", "code"
		n = 0
		for (d in lines) names[++n] = d
		for (i = 2; i <= n; i++) {
			v = names[i]
			for (j = i - 1; j >= 1 && names[j] > v; j--) names[j + 1] = names[j]
			names[j + 1] = v
		}
		for (i = 1; i <= n; i++) printf "%-28s %7d %7d\n", names[i], lines[names[i]], code[names[i]]
		printf "%-28s %7d %7d\n", "total", total, ctotal
	}'
