package infer

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// This file holds the one reference every identity and error sweep
// compares the streamed engine against, and the sweep itself.

// oracle is the independent reference: the DOM decoder materialises
// each document, TypeOf types it, and one MergeAll folds the collection
// — no chunking, no tokens, no accumulator. It returns the type and
// count of the documents before the decoder's first error, and that
// error (a *jsontext.SyntaxError carries its absolute offset).
func oracle(data []byte, e typelang.Equiv) (*typelang.Type, int, error) {
	dec := jsontext.NewDecoder(bytes.NewReader(data))
	var ts []*typelang.Type
	for {
		v, err := dec.Decode()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return typelang.MergeAll(ts, e), len(ts), err
		}
		ts = append(ts, TypeOf(v, e))
	}
}

// The axes of the production engine: every sweep covers their product.
var (
	sweepEquivs  = []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel}
	sweepWorkers = []int{1, 2, 4, 8}
	inputKinds   = []string{"reader", "mapped"}
)

// inferStreamOver runs the engine over data as the named input kind:
// "reader" behind an io.Reader, "mapped" through a mapping of a file
// holding it (mappedSource), and "into" the registry's feed —
// InferStreamInto a fresh two-shard collector, closed for its fold.
func inferStreamOver(t testing.TB, input string, data []byte, opts Options) (*typelang.Type, int, error) {
	switch input {
	case "mapped":
		return run(only(mappedSource(t, data)), opts)
	case "into":
		col := NewShardedCollector(2, opts.Equiv)
		n, err := InferStreamInto(bytes.NewReader(data), opts, col)
		t, docs := col.Close()
		if docs != int64(n) {
			err = fmt.Errorf("collector holds %d docs, the feed committed %d (feed error: %v)", docs, n, err)
		}
		return t, n, err
	}
	return InferStream(bytes.NewReader(data), opts)
}

func syntaxOffset(err error) int {
	var se *jsontext.SyntaxError
	if errors.As(err, &se) {
		return se.Offset
	}
	return -1
}

// assertMatchesOracle runs the engine over data under every
// equivalence, worker count and input kind, once per
// chunking (only batch and ChunkBytes of a chunking are read; none
// means the default), and demands the oracle's outcome over the same
// bytes each time.
func assertMatchesOracle(t *testing.T, label string, data []byte, chunkings ...Options) {
	t.Helper()
	if len(chunkings) == 0 {
		chunkings = []Options{{}}
	}
	for _, e := range sweepEquivs {
		want, wantN, wantErr := oracle(data, e)
		for _, ck := range chunkings {
			ck.Equiv = e
			assertEngineYields(t, label, data, ck, sweepWorkers, want, wantN, wantErr)
		}
	}
}

// assertEngineYields runs the engine over data with base's equivalence
// and chunking under every given worker count and input kind, and the
// collector feed once (it reads no worker count), and demands the given
// outcome each time: the same schema in plain and counted rendering,
// the same document count and — on malformed input — the same error
// message and absolute offset, with type and count covering exactly the
// documents before it. On valid input it also demands that no byte was
// walked twice.
func assertEngineYields(t *testing.T, label string, data []byte, base Options, workers []int, want *typelang.Type, wantN int, wantErr error) {
	t.Helper()
	check := func(input string, opts Options) {
		t.Helper()
		name := fmt.Sprintf("%s/%v/w%d/%s/batch%d/bytes%d", label, opts.Equiv, opts.Workers, input, opts.batch, opts.ChunkBytes)
		var st PipelineStats
		opts.Stats = &st
		got, n, err := inferStreamOver(t, input, data, opts)
		if s := st.Snapshot(); wantErr == nil && s.BytesReindexed != 0 {
			t.Errorf("%s: bytes_reindexed=%d on valid input; want 0: a window ends only where a document does",
				name, s.BytesReindexed)
		}
		if (err == nil) != (wantErr == nil) ||
			(err != nil && (err.Error() != wantErr.Error() || syntaxOffset(err) != syntaxOffset(wantErr))) {
			t.Errorf("%s: error %v (offset %d), oracle %v (offset %d)",
				name, err, syntaxOffset(err), wantErr, syntaxOffset(wantErr))
		}
		if n != wantN {
			t.Errorf("%s: typed %d docs, oracle %d", name, n, wantN)
		}
		if want.String() != got.String() || want.StringCounted() != got.StringCounted() {
			t.Errorf("%s: schema diverges\n oracle: %s\n engine: %s",
				name, want.StringCounted(), got.StringCounted())
		}
	}
	opts := Options{Equiv: base.Equiv, batch: base.batch, ChunkBytes: base.ChunkBytes}
	for _, w := range workers {
		opts.Workers = w
		for _, input := range inputKinds {
			check(input, opts)
		}
	}
	opts.Workers = 0
	check("into", opts)
}

// forEachFixture calls fn with every checked-in NDJSON fixture.
func forEachFixture(t *testing.T, fn func(name string, data []byte)) {
	t.Helper()
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no testdata fixtures found")
	}
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fn(filepath.Base(name), data)
	}
}

// sweepGenerators are the genjson families, one of each.
var sweepGenerators = []genjson.Generator{
	genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}, genjson.TypeDrift{Seed: 3},
	genjson.SkewedOptional{Seed: 4}, genjson.NestedArrays{Seed: 5}, genjson.Orders{Seed: 6},
	genjson.Mixture{Seed: 7, Generators: []genjson.Generator{genjson.Twitter{Seed: 8}, genjson.Orders{Seed: 9}}, Weights: []float64{1, 1}},
	genjson.OpenData{Seed: 10}, genjson.NYTArticles{Seed: 11}, genjson.Wide{Seed: 12},
	genjson.Fields{Seed: 13}, genjson.Sparse{Seed: 14}, genjson.Deep{Seed: 15},
}

// malformedInputs are streams the decoder rejects, with the failure in
// the first, a middle and the last document, at token and at structure
// level.
var malformedInputs = []string{
	"{\"a\": 1}\n{]\n",
	"[1, 2\n",
	"{\"a\": tru}\n",
	"\"unterminated\n{\"a\": 1}\n",
	"{\"a\": 1}\n12..5\n{\"b\": 2}\n",
	"{\"a\": 1}\n{\"s\": \"ctrl\x01\"}\n{\"b\": 2}\n",
	"{\"a\": [1, {\"b\": 2}, \n",
	"{\"a\": {\"b\": 1, }}\n",
}
