#!/usr/bin/env bash
# Regenerate the profile-guided optimisation profiles
# cmd/jsinfer/default.pgo and cmd/jsinferd/default.pgo. Go's default
# -pgo=auto applies a main package's default.pgo to every plain
# `go build` / `go install` of it, so these committed files are what
# every build of the two commands — make build, CI, the benchmark's own
# build — is optimised with. Build with -pgo=off for the baseline.
#
# jsinfer's profile merges -cpuprofile runs on three generated corpora,
# one per CLI workload of BENCHMARK.json: nested tweets at -workers 1,
# colon-dense 300-field records and sparse 8-of-500-key records at the
# default worker count, each repeated so the three shapes contribute
# about the same CPU time. jsinferd's profile is a 15 s
# /debug/pprof/profile of the daemon under a shipper in serve_mixed's
# shape (one tweets corpus cut into 50 bodies, every 4th gzip-encoded,
# ops of 64 keep-alive POSTs with a schema GET after every 8th), merged
# with jsinfer's, since the daemon runs the same engine.
#
# Every program the script runs is built with -pgo=off, so a profile
# never feeds on itself, and every corpus comes from cmd/jsgen at a
# fixed seed the benchmark does not use (it runs seeds 1..N). Last,
# both commands are rebuilt with the new profiles and their outputs —
# the three corpora's types, sparse's JSON Schema and the daemon's
# served schema — compared byte for byte with the -pgo=off builds': PGO
# cannot change what a program prints, so a difference is a build or
# profile mix-up.
#
# Takes a minute or more and needs go, curl, gzip and split; nothing is
# downloaded. The profiles' bytes vary with sampling, so CI never runs
# this. Usage: scripts/pgo.sh   (or `make pgo`)
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs per corpus, chosen so each shape contributes about the same CPU
# time (about 4 s each on a 2-vCPU host), and the daemon's profile length.
tweets_runs=8
fields_runs=8
sparse_runs=16
serve_seconds=15

work=$(mktemp -d)
collection=/v1/collections/pgo
pid=""
shipper=""

# start_daemon BIN: boot BIN on ephemeral loopback ports with pprof on,
# create the collection, and write the op's config against it. Sets pid,
# base and debug.
start_daemon() {
    local log=$work/jsinferd.log
    "$1" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 2> "$log" &
    pid=$!
    base="" debug=""
    for _ in $(seq 1 100); do
        base=$(sed -n 's/.*msg=listening .*addr=\([^ ]*\).*/http:\/\/\1/p' "$log")
        debug=$(sed -n 's/.*msg="debug server listening (pprof)" addr=\([^ ]*\).*/http:\/\/\1/p' "$log")
        [ -n "$base" ] && [ -n "$debug" ] && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if [ -z "$base" ] || [ -z "$debug" ]; then
        echo "pgo: jsinferd did not come up:" >&2
        cat "$log" >&2
        exit 1
    fi
    curl -fsS -o /dev/null -X PUT "$base$collection"
    sed "s|BASE|$base|" "$work/op.curl.in" > "$work/op.curl"
}

stop_daemon() {
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
        pid=""
    fi
}

cleanup() {
    if [ -n "$shipper" ]; then
        touch "$work/stop"
        wait "$shipper" 2>/dev/null || true
    fi
    stop_daemon
    rm -rf "$work"
}
trap cleanup EXIT

off=$work/off
pgo=$work/pgo
go build -pgo=off -o "$off/" ./cmd/jsinfer ./cmd/jsinferd ./cmd/jsgen

echo "pgo: generating corpora"
"$off/jsgen" -kind twitter -target 48MB -seed 101 > "$work/tweets.ndjson"
"$off/jsgen" -kind fields -target 48MB -seed 102 > "$work/fields.ndjson"
"$off/jsgen" -kind sparse -n 10000 -seed 103 > "$work/sparse.ndjson"
"$off/jsgen" -kind twitter -n 5000 -seed 104 > "$work/serve.ndjson"

# The flags each corpus runs with: the workload's worker count.
declare -A flags=([tweets]="-workers 1" [fields]="" [sparse]="")

# profile NAME RUNS: RUNS profiled runs of the -pgo=off jsinfer on
# NAME's corpus; the output is kept for the self-check.
profile() {
    local name=$1 runs=$2 i
    echo "pgo: profiling jsinfer on $name (${flags[$name]:-default workers}), $runs runs"
    for i in $(seq 1 "$runs"); do
        # shellcheck disable=SC2086 # the flags are words
        "$off/jsinfer" ${flags[$name]} -cpuprofile "$work/$name.$i.prof" \
            "$work/$name.ndjson" > "$work/$name.off.out"
    done
}
profile tweets "$tweets_runs"
profile fields "$fields_runs"
profile sparse "$sparse_runs"
go tool pprof -proto "$work"/*.prof > "$work/jsinfer.pgo"

# The daemon's request script: bodies of 100 documents, every 4th
# gzip-encoded, and one op as a curl config — 64 POSTs on one keep-alive
# connection, a schema GET after every 8th.
split -l 100 -d -a 2 "$work/serve.ndjson" "$work/body."
bodies=("$work"/body.*)
for ((i = 3; i < ${#bodies[@]}; i += 4)); do
    gzip -n "${bodies[i]}"
    bodies[i]=${bodies[i]}.gz
done
{
    for ((i = 0; i < 64; i++)); do
        b=${bodies[i % ${#bodies[@]}]}
        [ "$i" -gt 0 ] && echo next
        echo "fail"
        echo "output = \"/dev/null\""
        echo "data-binary = \"@$b\""
        [[ $b == *.gz ]] && echo 'header = "Content-Encoding: gzip"'
        echo "url = \"BASE$collection/ingest\""
        if (((i + 1) % 8 == 0)); then
            printf 'next\nfail\noutput = "/dev/null"\nurl = "BASE%s/schema"\n' "$collection"
        fi
    done
} > "$work/op.curl.in"

echo "pgo: profiling jsinferd for ${serve_seconds}s under a serve_mixed-shaped shipper"
start_daemon "$off/jsinferd"
(while [ ! -e "$work/stop" ]; do curl -sS -K "$work/op.curl" || exit 1; done) &
shipper=$!
curl -fsS -o "$work/jsinferd.prof" "$debug/debug/pprof/profile?seconds=$serve_seconds"
touch "$work/stop"
if ! wait "$shipper"; then
    shipper=""
    echo "pgo: the shipper failed" >&2
    exit 1
fi
shipper=""
curl -fsS -o "$work/served.off.out" "$base$collection/schema"
stop_daemon
go tool pprof -proto "$work/jsinferd.prof" "$work/jsinfer.pgo" > "$work/jsinferd.pgo"

cp "$work/jsinfer.pgo" cmd/jsinfer/default.pgo
cp "$work/jsinferd.pgo" cmd/jsinferd/default.pgo
echo "pgo: wrote cmd/jsinfer/default.pgo ($(wc -c < cmd/jsinfer/default.pgo) bytes)" \
    "and cmd/jsinferd/default.pgo ($(wc -c < cmd/jsinferd/default.pgo) bytes)"

# Self-check: a plain build picks each command's own profile up, and
# prints what the -pgo=off build printed.
echo "pgo: self-check against the -pgo=off builds"
go build -o "$pgo/" ./cmd/jsinfer ./cmd/jsinferd
for name in jsinfer jsinferd; do
    go version -m "$pgo/$name" | grep -qE "build[[:space:]]+-pgo=.*/cmd/$name/default\.pgo$" || {
        echo "pgo: $name was not built with cmd/$name/default.pgo" >&2
        exit 1
    }
done
for name in tweets fields sparse; do
    # shellcheck disable=SC2086
    "$pgo/jsinfer" ${flags[$name]} "$work/$name.ndjson" > "$work/$name.pgo.out"
    cmp "$work/$name.off.out" "$work/$name.pgo.out"
done
# -output jsonschema is the one output that renders a JSON Schema
# document; check it on the corpus with the largest schema.
for build in off pgo; do
    "${!build}/jsinfer" -output jsonschema "$work/sparse.ndjson" > "$work/sparse.$build.jsonschema"
done
cmp "$work/sparse.off.jsonschema" "$work/sparse.pgo.jsonschema"
start_daemon "$pgo/jsinferd"
curl -sS -K "$work/op.curl"
curl -fsS -o "$work/served.pgo.out" "$base$collection/schema"
stop_daemon
cmp "$work/served.off.out" "$work/served.pgo.out"
echo "pgo ok: both builds print the same schemas"
