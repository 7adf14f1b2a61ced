#!/usr/bin/env bash
# Daemon smoke test: boot jsinferd, POST a checked-in fixture (identity
# and gzip-encoded), and assert the served schemas are byte-identical to
# batch `jsinfer` over the same file in every output form (type, counted,
# jsonschema, typescript, swift), then assert /metrics
# serves ingest counters that add up. POST the fixture again (counts
# only: the four count-free forms are served from the kept renderings,
# and `renders` does not move) and a document with a new field (each
# form is rendered again), and another new field that a /metrics scrape
# seals before any schema read (each form is rendered again too). Then
# POST two generated bodies of
# several read blocks (NDJSON and pretty-printed) and assert the same
# identity, and that each was absorbed in line, window by window. Last,
# POST 70 000 distinct field names into a collection, DELETE it, and
# assert a fresh collection still serves jsinfer's schema of the fixture
# and /v1/stats carries no "symbols" key. Run from anywhere; used by
# `make smoke-daemon` and CI.
set -euo pipefail
cd "$(dirname "$0")/.."

fixture=testdata/tweets.ndjson
fixture_docs=25

bindir=$(mktemp -d)
pid=""
cleanup() {
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$bindir"
}
trap cleanup EXIT

go build -o "$bindir" ./cmd/jsinferd ./cmd/jsinfer ./cmd/jsgen

# Boot with port-collision retry: a daemon that dies before becoming
# healthy (typically EADDRINUSE from a stale run) moves to the next
# candidate port instead of failing the smoke.
base=""
for port in 18787 28787 38787 48787; do
    addr=127.0.0.1:$port
    "$bindir/jsinferd" -addr "$addr" &
    pid=$!
    for _ in $(seq 1 50); do
        if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
            base="http://$addr"
            break
        fi
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    [ -n "$base" ] && break
    echo "smoke: port $port unavailable, retrying on the next" >&2
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    pid=""
done
if [ -z "$base" ]; then
    echo "smoke: jsinferd never became healthy on any candidate port" >&2
    exit 1
fi

# assert_served COL FILE FORM: the schema COL serves in FORM is
# byte-identical to what jsinfer prints for FILE. Both sides go to files
# and cmp, never through $(…), which drops trailing newlines.
assert_served() {
    local col=$1 file=$2 form=$3
    "$bindir/jsinfer" -output "$form" "$file" > "$bindir/want"
    curl -fsS "$base/v1/collections/$col/schema?output=$form" > "$bindir/got"
    if ! cmp -s "$bindir/want" "$bindir/got"; then
        echo "smoke: $form schema of $col: the daemon serves $(wc -c < "$bindir/got") bytes, jsinfer prints $(wc -c < "$bindir/want")" >&2
        diff "$bindir/want" "$bindir/got" | head -20 >&2
        exit 1
    fi
}

trace_id=4bf92f3577b34da6a3ce929d0e0e4736
echo "smoke: ingesting $fixture (identity, traced as $trace_id)"
curl -fsS -X POST -H "Traceparent: 00-$trace_id-00f067aa0ba902b7-01" \
    --data-binary "@$fixture" "$base/v1/collections/smoke/ingest"

echo "smoke: ingesting $fixture (gzip)"
gzip -c "$fixture" | curl -fsS -X POST -H 'Content-Encoding: gzip' \
    --data-binary @- "$base/v1/collections/smoke-gz/ingest"

for col in smoke smoke-gz; do
    for form in type counted jsonschema typescript swift; do
        assert_served "$col" "$fixture" "$form"
    done
done
echo "smoke: identity and gzip ingests serve jsinfer's bytes in all five forms"

metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep -q '^# TYPE jsinferd_ingest_docs_total counter$' || {
    echo "smoke: /metrics lacks the ingest counter TYPE line" >&2
    exit 1
}
want_docs=$((2 * fixture_docs))
echo "$metrics" | grep -q "^jsinferd_ingest_docs_total $want_docs\$" || {
    echo "smoke: jsinferd_ingest_docs_total != $want_docs" >&2
    echo "$metrics" | grep '^jsinferd_ingest' >&2
    exit 1
}
echo "$metrics" | grep -q 'jsinferd_http_requests_total{route="POST /v1/collections/{name}/ingest",code="200"} 2' || {
    echo "smoke: /metrics lacks the metered ingest route" >&2
    exit 1
}
echo "smoke: /metrics counters reconcile ($want_docs docs across 2 encodings)"

# The traced ingest joined the caller's trace and landed in the ring
# with the request's document count on its root span.
traces=$(curl -fsS "$base/debug/traces")
trace_block=$(echo "$traces" | sed -n "/\"trace_id\": \"$trace_id\"/,/\"trace_id\"/p")
if [ -z "$trace_block" ]; then
    echo "smoke: /debug/traces lacks the joined trace $trace_id" >&2
    exit 1
fi
echo "$trace_block" | grep -q "\"docs\": $fixture_docs" || {
    echo "smoke: traced ingest does not carry docs=$fixture_docs" >&2
    echo "$trace_block" >&2
    exit 1
}
echo "$trace_block" | grep -q '"remote": true' || {
    echo "smoke: joined trace is not marked remote" >&2
    exit 1
}
echo "smoke: /debug/traces shows the joined trace with $fixture_docs docs"

stats=$(curl -fsS "$base/v1/stats")
echo "smoke: stats $stats"
echo "$stats" | grep -q "\"docs\": $want_docs," || {
    echo "smoke: /v1/stats docs != $want_docs" >&2
    exit 1
}

# collection_stat COLLECTION STAT: the first counter of that name in
# the collection's /v1/collections entry.
collection_stat() {
    curl -fsS "$base/v1/collections" | sed -n "/\"name\": \"$1\"/,/\"name\"/p" |
        grep -o "\"$2\": [0-9]*" | head -1 | grep -o '[0-9]*$'
}

# The count-free forms (type, jsonschema, typescript, swift) are served
# from the rendering the collection keeps while its structure holds: the
# fixture posted again moves counts only, so all five forms are still
# jsinfer's bytes for the two copies and no rendering is made; a
# document with a new field is rendered again, and the field shows.
renders=$(collection_stat smoke renders)
if [ "$renders" != 4 ]; then
    echo "smoke: smoke made $renders renderings after one read of each form, want 4" >&2
    exit 1
fi
cat "$fixture" "$fixture" > "$bindir/twice.ndjson"
curl -fsS -X POST --data-binary "@$fixture" "$base/v1/collections/smoke/ingest"
for form in type counted jsonschema typescript swift; do
    assert_served smoke "$bindir/twice.ndjson" "$form"
done
if [ "$(collection_stat smoke renders)" != 4 ]; then
    echo "smoke: a count-only ingest moved renders from 4 to $(collection_stat smoke renders)" >&2
    exit 1
fi
echo "smoke: after a count-only ingest all five forms are jsinfer's and renders stays 4"
head -1 "$fixture" | sed 's/^{/{"smoke_added": true, /' > "$bindir/added.ndjson"
cat "$bindir/twice.ndjson" "$bindir/added.ndjson" > "$bindir/thrice.ndjson"
curl -fsS -X POST --data-binary "@$bindir/added.ndjson" "$base/v1/collections/smoke/ingest"
for form in type jsonschema typescript swift; do
    assert_served smoke "$bindir/thrice.ndjson" "$form"
done
grep -q smoke_added "$bindir/got" || {
    echo "smoke: the added field does not show in the served schema" >&2
    exit 1
}
renders=$(collection_stat smoke renders)
if [ "$renders" != 8 ]; then
    echo "smoke: an ingest that adds a field moved renders to $renders, want 8" >&2
    exit 1
fi
echo "smoke: an ingest that adds a field renders each form again (renders 8) and the field shows"
# Another new field, found by a sealing read: /metrics seals before any
# schema GET, so its snapshot, not a kept read, sees the structure move,
# and each count-free form is rendered again all the same.
head -1 "$fixture" | sed 's/^{/{"smoke_sealed": true, /' > "$bindir/sealed.ndjson"
cat "$bindir/thrice.ndjson" "$bindir/sealed.ndjson" > "$bindir/four.ndjson"
curl -fsS -X POST --data-binary "@$bindir/sealed.ndjson" "$base/v1/collections/smoke/ingest"
curl -fsS "$base/metrics" > /dev/null
for form in type jsonschema typescript swift; do
    assert_served smoke "$bindir/four.ndjson" "$form"
    grep -q smoke_sealed "$bindir/got" || {
        echo "smoke: the field a sealing read found does not show in the served $form schema" >&2
        exit 1
    }
done
renders=$(collection_stat smoke renders)
if [ "$renders" != 12 ]; then
    echo "smoke: an ingest that adds a field, sealed by a /metrics scrape first, moved renders from 8 to $renders, want 12" >&2
    exit 1
fi
echo "smoke: a field a /metrics scrape sealed first renders each form again (renders 12) and shows"

# Bodies of several 256 KiB read blocks — NDJSON, NDJSON whose every
# line begins with a blank, and pretty-printed: each serves what jsinfer
# makes of the same file, and was cut into several windows absorbed in
# line — no committer, so no reduce clock.
"$bindir/jsgen" -kind twitter -target 1MB > "$bindir/big.ndjson"
sed 's/^/ /' "$bindir/big.ndjson" > "$bindir/big-blank.ndjson"
"$bindir/jsgen" -kind twitter -indent -target 1MB > "$bindir/big-indent.json"
for f in big.ndjson big-blank.ndjson big-indent.json; do
    col=${f%.*}
    echo "smoke: ingesting $f ($(wc -c < "$bindir/$f") bytes) into $col"
    curl -fsS -X POST --data-binary "@$bindir/$f" "$base/v1/collections/$col/ingest"
    assert_served "$col" "$bindir/$f" type
done
collections=$(curl -fsS "$base/v1/collections")
# pipeline_stat COLLECTION STAT: the counter in that collection's entry.
pipeline_stat() {
    echo "$collections" | sed -n "/\"name\": \"$1\"/,/\"name\"/p" |
        grep -o "\"$2\": [0-9]*" | head -1 | grep -o '[0-9]*$'
}
for col in big big-blank big-indent; do
    split=$(pipeline_stat "$col" chunks_split)
    reduce=$(pipeline_stat "$col" reduce_nanos)
    if [ -z "$split" ] || [ "$split" -le 1 ] || [ "$reduce" != 0 ]; then
        echo "smoke: $col: chunks_split=$split reduce_nanos=$reduce; want several windows absorbed in line, 0" >&2
        exit 1
    fi
    echo "smoke: $col absorbed in line: $split windows, reduce_nanos 0"
done

# A JSON array of one object per line is one document with no line
# break that ends a document until its last: the whole body is one
# window, served as jsinfer prints it, and no byte of it — nor of any
# body before it — was walked twice.
{ echo '['; sed '$!s/$/,/' "$bindir/big.ndjson"; echo ']'; } > "$bindir/big-array.json"
echo "smoke: ingesting big-array.json ($(wc -c < "$bindir/big-array.json") bytes, one array of one object per line)"
curl -fsS -X POST --data-binary "@$bindir/big-array.json" "$base/v1/collections/big-array/ingest"
for form in type counted jsonschema typescript swift; do
    assert_served big-array "$bindir/big-array.json" "$form"
done
collections=$(curl -fsS "$base/v1/collections")
split=$(pipeline_stat big-array chunks_split)
reindexed=$(curl -fsS "$base/v1/stats" | grep -o '"bytes_reindexed": [0-9]*' | head -1 | grep -o '[0-9]*$')
if [ "$split" != 1 ] || [ "$reindexed" != 0 ]; then
    echo "smoke: big-array: chunks_split=$split, /v1/stats bytes_reindexed=$reindexed; want one window and 0" >&2
    exit 1
fi
echo "smoke: big-array served in all five forms from one window; bytes_reindexed 0 in /v1/stats"

# A collection of 70 000 distinct field names — 70 documents of 1000 —
# is deleted, and the collection ingested after it serves exactly what
# jsinfer makes of the fixture: no vocabulary outlives its collection.
seq 0 69999 | awk '{ printf "%s\"k%08d\":0", ($1 % 1000 ? "," : "{"), $1 }
    $1 % 1000 == 999 { print "}" }' > "$bindir/wide.ndjson"
echo "smoke: ingesting 70000 distinct names into wide"
res=$(curl -fsS -X POST --data-binary "@$bindir/wide.ndjson" "$base/v1/collections/wide/ingest")
echo "$res" | grep -q '"docs": 70,' || {
    echo "smoke: wide ingest did not merge 70 documents: $res" >&2
    exit 1
}
# Read it first, so the collection holds a kept rendering when deleted.
assert_served wide "$bindir/wide.ndjson" type
code=$(curl -sS -o /dev/null -w '%{http_code}' -X DELETE "$base/v1/collections/wide")
if [ "$code" != 200 ]; then
    echo "smoke: DELETE wide answered $code, want 200" >&2
    exit 1
fi
code=$(curl -sS -o /dev/null -w '%{http_code}' "$base/v1/collections/wide/schema")
if [ "$code" != 404 ]; then
    echo "smoke: schema of deleted wide answered $code, want 404" >&2
    exit 1
fi
curl -fsS -X POST --data-binary "@$fixture" "$base/v1/collections/after-wide/ingest" >/dev/null
assert_served after-wide "$fixture" type
stats=$(curl -fsS "$base/v1/stats")
if echo "$stats" | grep -q '"symbols"'; then
    echo "smoke: /v1/stats still carries a \"symbols\" key" >&2
    exit 1
fi
echo "smoke: wide deleted (200, then 404); after-wide serves jsinfer's schema"
echo "smoke ok: served schema is byte-identical to jsinfer"
