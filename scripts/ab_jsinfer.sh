#!/bin/sh
# Identity A/B of jsinfer between two versions of this repository:
#
#   scripts/ab_jsinfer.sh OLD NEW          (or: make ab-identity OLD=… NEW=…)
#
# OLD and NEW are each a checkout directory or a git revision of this
# repository (a revision is exported with `git archive`). Both jsinfer
# binaries are built from their own sources; the inputs come from one
# jsgen, built from NEW. Every cell runs both binaries with the same
# arguments and the same input, and compares stdout, stderr and the
# exit code. A cell that differs is printed with the first lines of its
# diff; the script exits 1 if any cell differs.
#
# Valid cells: the checked-in fixtures plus seed-1 jsgen twitter (5000),
# fields (2400) and sparse (10000) × the four engines × the six output
# forms × with and without -workers 1 × the input as 1, 3 and 200
# files, plus one -stats run per input at -workers 1, with the stage
# times and the gc row's cycle count masked (the runtime's, and not
# the same from run to run of one binary). Malformed cells: inputs
# whose first error lies in a document that a window's cut goes
# through × -workers 1, 2 and 4 × -chunk-bytes unset, 64K and 1 × a
# file argument or stdin.
#
# Run from the repository root. Scratch space is a temporary
# directory (TMPDIR), removed on exit.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD NEW (each a checkout directory or a git revision)" >&2
    exit 2
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

# build NAME SPEC: builds jsinfer (and jsgen) of SPEC into $work/NAME.
build() {
    src=$2
    if [ ! -d "$src" ]; then
        src="$work/$1-src"
        mkdir -p "$src"
        git archive "$2" | tar -x -C "$src"
    fi
    mkdir -p "$work/$1"
    go build -C "$src" -o "$work/$1/jsinfer" ./cmd/jsinfer
    go build -C "$src" -o "$work/$1/jsgen" ./cmd/jsgen
}
build old "$1"
build new "$2"

in="$work/in"
mkdir -p "$in"
for f in testdata/*.ndjson; do
    cp "$f" "$in/"
done
"$work/new/jsgen" -kind twitter -n 5000 -seed 1 > "$in/tweets-5000.ndjson"
"$work/new/jsgen" -kind fields -n 2400 -seed 1 > "$in/fields-2400.ndjson"
"$work/new/jsgen" -kind sparse -n 10000 -seed 1 > "$in/sparse-10000.ndjson"

cells=0
differ=0
mask=
# cell LABEL STDIN ARGS...: runs both binaries with ARGS, STDIN on
# standard input (/dev/null for none), from the inputs' directory, and
# compares the two runs; with mask set, stage times and gc cycles in
# stderr are masked first.
cell() {
    label=$1
    stdin=$2
    shift 2
    for side in old new; do
        set +e
        (cd "$in" && "$work/$side/jsinfer" "$@" < "$stdin" > "$work/$side.out" 2> "$work/$side.err")
        echo $? > "$work/$side.code"
        set -e
        if [ -n "$mask" ]; then
            sed -E 's/ +[0-9]+\.[0-9]{3}ms/ T/; s/cycles=[0-9]+/cycles=N/' "$work/$side.err" > "$work/$side.err.masked"
            mv "$work/$side.err.masked" "$work/$side.err"
        fi
    done
    cells=$((cells + 1))
    for part in code out err; do
        if ! cmp -s "$work/old.$part" "$work/new.$part"; then
            differ=$((differ + 1))
            echo "DIFFERS ($part): $label"
            diff "$work/old.$part" "$work/new.$part" | head -8 || true
            return 0
        fi
    done
}

# parts NAME K: the input NAME cut at line ends into K files (some may
# be empty), whose names it prints, relative to the inputs' directory.
parts() {
    dir="$in/parts-$1-$2"
    if [ ! -d "$dir" ]; then
        mkdir -p "$dir"
        (cd "$dir" && split -a 3 -n "l/$2" "$in/$1" part-)
    fi
    (cd "$in" && ls -d "parts-$1-$2"/part-*)
}

for input in $(cd "$in" && ls *.ndjson); do
    for k in 1 3 200; do
        if [ "$k" = 1 ]; then
            files=$input
        else
            files=$(parts "$input" "$k")
        fi
        for engine in parametric-L parametric-K spark skinfer; do
            for output in type counted jsonschema typescript swift report; do
                for workers in default 1; do
                    set --
                    [ "$workers" = 1 ] && set -- -workers 1
                    # shellcheck disable=SC2086 # files is a word list
                    cell "$input/$k files/$engine/$output/workers $workers" /dev/null \
                        "$@" -engine "$engine" -output "$output" $files
                done
            done
        done
    done
    mask=1
    cell "$input/-stats/workers 1" /dev/null -stats -workers 1 "$input"
    mask=
done
echo "ab: $cells valid-input cells, $differ differ"
valid_differ=$differ

# Malformed inputs whose first error lies in a document a cut goes
# through: a member missing its comma on a line of its own, between
# documents and inside a pretty-printed one; a raw newline inside a
# string; a \u escape cut by a line break; and a straddler whose next
# line runs to the end of input.
bad="$work/bad"
mkdir -p "$bad"
tweets="$in/tweets-5000.ndjson"
{ head -n 2500 "$tweets"; printf '{"a": 1\n"b": 2}\n'; tail -n 2500 "$tweets"; } > "$bad/missing-comma.ndjson"
"$work/new/jsgen" -kind twitter -n 300 -seed 1 -indent > "$work/indent.json"
line=$(awk 'NR > 4000 && prev ~ /,$/ && /^ *"/ { print NR - 1; exit } { prev = $0 }' "$work/indent.json")
sed "${line}s/,\$//" "$work/indent.json" > "$bad/indent-missing-comma.json"
{ head -n 2500 "$tweets"; printf '{"s": "line\nbreak"}\n'; tail -n 2500 "$tweets"; } > "$bad/raw-newline.ndjson"
{ head -n 100 "$tweets"; printf '"\\u\n0\n0'; } > "$bad/escape-newline.ndjson"
{ head -n 2500 "$tweets"; printf '{"a": 1\n"b": 2'; } > "$bad/straddler-at-end.ndjson"
cells=0
differ=0
for input in $(cd "$bad" && ls); do
    for workers in 1 2 4; do
        for chunk in unset 64K 1; do
            set -- -workers "$workers"
            [ "$chunk" = unset ] || set -- "$@" -chunk-bytes "$chunk"
            cell "$input/workers $workers/chunk-bytes $chunk/file" /dev/null "$@" "$bad/$input"
            cell "$input/workers $workers/chunk-bytes $chunk/stdin" "$bad/$input" "$@"
        done
    done
done
echo "ab: $cells malformed-input cells, $differ differ"
[ "$valid_differ" = 0 ] && [ "$differ" = 0 ]
