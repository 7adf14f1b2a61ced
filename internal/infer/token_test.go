package infer

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// TestTokenPathMatchesDOMPathFixtures pins the engine to the oracle on
// every checked-in fixture under tiny document-count chunks — many
// chunks per run, so the ordered commit and the per-chunk seals are
// exercised on every fixture.
func TestTokenPathMatchesDOMPathFixtures(t *testing.T) {
	forEachFixture(t, func(name string, data []byte) {
		assertMatchesOracle(t, name, data, Options{batch: 1}, Options{batch: 5})
	})
}

// TestTokenPathMatchesDOMPathGenerated sweeps random documents from
// every generator family, at the default chunking and a small one.
func TestTokenPathMatchesDOMPathGenerated(t *testing.T) {
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 71},
		genjson.GitHub{Seed: 72},
		genjson.TypeDrift{Seed: 73},
		genjson.SkewedOptional{Seed: 74},
		genjson.NestedArrays{Seed: 75},
		genjson.Orders{Seed: 76},
		genjson.OpenData{Seed: 77},
	}
	for _, g := range gens {
		data := jsontext.MarshalLines(genjson.Collection(g, 120))
		assertMatchesOracle(t, g.Name(), data, Options{}, Options{batch: 7})
	}
}

// TestTokenPathHandlesNonNDJSONLayouts exercises the chunker's
// guarantees beyond one-doc-per-line input: multi-line (pretty-printed)
// documents must never be split mid-document, several documents on one
// line must all be typed, and input with no top-level newline at all
// must degrade to a single chunk.
func TestTokenPathHandlesNonNDJSONLayouts(t *testing.T) {
	cases := []struct {
		name  string
		input string
		docs  int
	}{
		{"pretty-printed", "{\n  \"a\": [1,\n 2],\n  \"s\": \"x\\\"\\n{\"\n}\n{\n\"a\": [3], \"s\": \"}\"\n}\n", 2},
		{"many-per-line", `1 "two" [3] {"four": 4}` + "\n" + `null true`, 6},
		{"no-newline", `{"a": 1} {"a": 2} {"b": "x"}`, 3},
		{"blank-lines", "\n\n{\"a\": 1}\n\n\n{\"a\": 2}\n\n", 2},
	}
	for _, c := range cases {
		if _, n, err := oracle([]byte(c.input), typelang.EquivKind); err != nil || n != c.docs {
			t.Fatalf("%s: oracle typed %d docs (err %v), want %d", c.name, n, err, c.docs)
		}
		assertMatchesOracle(t, c.name, []byte(c.input), Options{}, Options{batch: 1})
	}
}

// TestTokenPathRejectsWhatDOMRejects is the error sweep at one document
// per chunk: the failing document sits in a chunk of its own, later
// chunks are lexed concurrently and must be discarded, and message,
// absolute offset and committed prefix are the decoder's.
func TestTokenPathRejectsWhatDOMRejects(t *testing.T) {
	for _, in := range malformedInputs {
		if _, _, err := oracle([]byte(in), typelang.EquivKind); err == nil {
			t.Fatalf("DOM decoder accepted %q", in)
		}
		assertMatchesOracle(t, fmt.Sprintf("%q", in), []byte(in), Options{batch: 1})
	}
}

// typeFromTokens types exactly one JSON value through the token walker:
// absorb into a fresh accumulator and seal (the MergeAll of one
// document is the document's type).
func typeFromTokens(in string, e typelang.Equiv) (*typelang.Type, error) {
	acc := typelang.NewAccum(e)
	if err := AbsorbFromTokens(jsontext.NewTokenReaderBytes([]byte(in)), acc); err != nil {
		return nil, err
	}
	return acc.Seal(), nil
}

// TestAbsorbFromTokensMatchesTypeOf is the single-document map-phase
// equivalence: for a spread of tricky documents, the token walker must
// produce exactly TypeOf's counted type.
func TestAbsorbFromTokensMatchesTypeOf(t *testing.T) {
	cases := []string{
		`null`, `true`, `false`, `0`, `-0`, `3`, `3.5`, `1e2`, `1.5e-1`,
		`9007199254740993`, `123456789012345678901234567890`,
		`""`, `"abc"`, `"\u0041\ud83d\ude00"`,
		`[]`, `[1, 2, 3]`, `[1, "a", null, [true]]`,
		`{}`, `{"a": 1}`, `{"b": 2, "a": 1}`,
		`{"a": 1, "a": "x"}`,
		`{"nested": {"deep": [{"x": [[]]}]}}`,
	}
	for _, in := range cases {
		for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
			want := TypeOf(jsontext.MustParse(in), e)
			got, err := typeFromTokens(in, e)
			if err != nil {
				t.Fatalf("typeFromTokens(%s): %v", in, err)
			}
			if want.StringCounted() != got.StringCounted() {
				t.Errorf("typeFromTokens(%s) = %s, TypeOf = %s", in, got.StringCounted(), want.StringCounted())
			}
		}
	}
}

// TestAbsorbFromTokensWideObject crosses the duplicate-detection threshold
// (seen map) with duplicates on both sides of it.
func TestAbsorbFromTokensWideObject(t *testing.T) {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if i == 7 || i == 33 {
			name = "dup"
		}
		b.Write(jsontext.AppendQuoted(nil, name))
		b.WriteString(": ")
		if i == 33 {
			b.WriteString(`"last"`)
		} else {
			b.WriteString("1")
		}
	}
	b.WriteByte('}')
	in := b.String()
	want := TypeOf(jsontext.MustParse(in), typelang.EquivKind)
	got, err := typeFromTokens(in, typelang.EquivKind)
	if err != nil {
		t.Fatal(err)
	}
	if want.StringCounted() != got.StringCounted() {
		t.Errorf("wide object diverges:\n dom:   %s\n token: %s", want.StringCounted(), got.StringCounted())
	}
	f, ok := got.Get("dup")
	if !ok || f.Type.Kind != typelang.KStr {
		t.Errorf("duplicate field should keep the last binding (Str), got %v", f.Type)
	}
}

// failingReader yields its payload, then a non-EOF error — a stand-in
// for a network stream dying mid-transfer.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// goroutineReader hands out its data one line per Read and records the
// most goroutines running at any Read.
type goroutineReader struct {
	data []byte
	peak int
}

func (g *goroutineReader) Read(p []byte) (int, error) {
	g.peak = max(g.peak, runtime.NumGoroutine())
	if len(g.data) == 0 {
		return 0, io.EOF
	}
	line := g.data[:strings.IndexByte(string(g.data), '\n')+1]
	n := copy(p, line)
	g.data = g.data[n:]
	return n, nil
}

// TestParallelRunStartsOnlyTheWorkersItUses: worker k starts with window
// k, so Workers far above the windows a run has — and above GOMAXPROCS —
// starts a worker per window and no more, and the schema is the one
// worker's. Two windows at Workers 64 run two workers and the committer
// beside the reading goroutine; starting them all up front ran 64.
func TestParallelRunStartsOnlyTheWorkersItUses(t *testing.T) {
	var doc strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&doc, "{\"a\": %d, \"k%d\": \"s\"}\n", i, i%3)
	}
	want, _, err := InferStream(strings.NewReader(doc.String()), Options{Equiv: typelang.EquivLabel, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var st PipelineStats
	r := &goroutineReader{data: []byte(doc.String())}
	base := runtime.NumGoroutine()
	got, n, err := InferStream(r, Options{Equiv: typelang.EquivLabel, Workers: 64, batch: 4, Stats: &st})
	if err != nil || n != 8 || got.StringCounted() != want.StringCounted() {
		t.Fatalf("Workers 64: %d docs, %v, %s; want 8 docs, %s", n, err, got.StringCounted(), want.StringCounted())
	}
	if s := st.Snapshot(); s.ChunksSplit != 2 {
		t.Fatalf("%d windows, want 2", s.ChunksSplit)
	}
	if extra := r.peak - base; extra > 3 {
		t.Errorf("%d goroutines beside the test's while reading, want at most 3: two workers and the committer", extra)
	}
}

// TestInferStreamIOErrorNotMaskedAsSyntax: when the reader dies mid-
// document, the engine must report the I/O error, not a syntax error
// manufactured by the truncation, and must cover the complete prefix —
// also when the failure truncates the line after a window that ends
// inside a document, whose error that line decides. A genuine syntax
// error before the failure still wins: it is earlier in the stream, in
// a window — or before the line — the failed read did not truncate.
// Every shape alike, the collector feed included.
func TestInferStreamIOErrorNotMaskedAsSyntax(t *testing.T) {
	ioErr := errors.New("connection reset by peer")
	for _, c := range []struct {
		data   string
		opts   Options
		n      int
		prefix string
		ioErr  bool
	}{
		{"{\"a\": 1}\n{\"a\": 2}\n{\"a\": 3}\n{\"a\":", Options{batch: 2}, 3, "{a: Int}", true},
		{"{\"a\": 1}\n{]\n{\"a\": 2}\n", Options{batch: 1, ChunkBytes: 1}, 1, "{a: Int}", false},
		// The window "{\"a\": 1\n" ends inside its document, whose line
		// "\"b\": 2" runs into the failure.
		{"1\n{\"a\": 1\n\"b\": 2", Options{ChunkBytes: 1}, 1, "Int", true},
		// One window holds "{]" and that straddler: its walk stops at
		// "{]" and never reaches the line.
		{"1\n{]\n{\"a\": 1\n\"b\": 2", Options{ChunkBytes: 6}, 1, "Int", false},
	} {
		for _, workers := range append([]int{0}, sweepWorkers...) {
			label := fmt.Sprintf("%q/w%d", c.data, workers)
			opts := c.opts
			opts.Workers = workers
			r := &failingReader{data: []byte(c.data), err: ioErr}
			var n int
			var err error
			if workers == 0 {
				label += "/into"
				n, err = InferStreamInto(r, opts, NewShardedCollector(2, opts.Equiv))
			} else {
				var ty *typelang.Type
				ty, n, err = InferStream(r, opts)
				if ty.String() != c.prefix {
					t.Errorf("%s: prefix type = %s, want %s", label, ty, c.prefix)
				}
			}
			var se *jsontext.SyntaxError
			if errors.Is(err, ioErr) != c.ioErr || !c.ioErr && !errors.As(err, &se) {
				t.Errorf("%s: error = %v, want the reader's I/O error: %v", label, err, c.ioErr)
			}
			if n != c.n {
				t.Errorf("%s: typed %d docs, want the %d complete ones", label, n, c.n)
			}
		}
	}
}

// TestInferStreamTrailingGarbageAfterValue: a stream whose documents are
// fine but which ends in a truncated value must report the error while
// covering the complete prefix.
func TestInferStreamTrailingGarbageAfterValue(t *testing.T) {
	in := "{\"a\": 1}\n{\"a\": 2}\n{\"a\":"
	ty, n, err := InferStream(strings.NewReader(in), Options{})
	if err == nil {
		t.Fatal("expected error for truncated trailing document")
	}
	if n != 2 {
		t.Errorf("typed %d docs, want 2", n)
	}
	if got := ty.String(); got != "{a: Int}" {
		t.Errorf("prefix type = %s", got)
	}
}
