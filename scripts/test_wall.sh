#!/bin/sh
# Tier-1 wall time: runs `go test -json ./...` in the current directory
# (make test-wall, from the repository root), uncached, and prints each
# package's wall time, slowest first, then the ten slowest top-level
# tests. It exits with go test's status, so a failing run still fails;
# a failed package or test is marked FAIL in its row.
set -u
json=$(mktemp)
trap 'rm -f "$json"' EXIT
start=$(date +%s)
"${GO:-go}" test -count=1 -json ./... >"$json"
status=$?
echo "go test ./... took $(($(date +%s) - start)) s (status $status)"
awk '
function field(name) {
	if (!match($0, "\"" name "\":\"[^\"]*\"")) return ""
	return substr($0, RSTART + length(name) + 4, RLENGTH - length(name) - 5)
}
# byWall sorts the keys of wall into order[1..n], slowest first.
function byWall(wall, order,    k, n, i, j, v) {
	n = 0
	for (k in wall) order[++n] = k
	for (i = 2; i <= n; i++) {
		v = order[i]
		for (j = i - 1; j >= 1 && wall[order[j]] < wall[v]; j--) order[j + 1] = order[j]
		order[j + 1] = v
	}
	return n
}
/"Action":"(pass|fail|skip)"/ && /"Elapsed":/ {
	match($0, /"Elapsed":[0-9.eE+-]+/)
	elapsed = substr($0, RSTART + 10, RLENGTH - 10) + 0
	action = field("Action")
	pkg = field("Package")
	test = field("Test")
	if (test == "") {
		pkgWall[pkg] = elapsed
		pkgMark[pkg] = action == "fail" ? "FAIL" : ""
	} else if (index(test, "/") == 0) {
		testWall[pkg " " test] = elapsed
		testMark[pkg " " test] = action == "fail" ? "FAIL" : ""
	}
}
END {
	printf "%-36s %9s\n", "package", "wall s"
	n = byWall(pkgWall, order)
	for (i = 1; i <= n; i++) printf "%-36s %9.2f %s\n", order[i], pkgWall[order[i]], pkgMark[order[i]]
	printf "\n%-36s %9s  %s\n", "package", "wall s", "slowest top-level tests"
	n = byWall(testWall, tests)
	for (i = 1; i <= n && i <= 10; i++) {
		split(tests[i], pt, " ")
		printf "%-36s %9.2f  %s %s\n", pt[1], testWall[tests[i]], pt[2], testMark[tests[i]]
	}
}' "$json"
exit $status
