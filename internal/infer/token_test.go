package infer

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// domInfer is the reference DOM path: parse every document to a value
// tree, then Infer over the materialised collection.
func domInfer(t *testing.T, data []byte, e typelang.Equiv) *typelang.Type {
	t.Helper()
	docs, err := jsontext.NewDecoder(bytes.NewReader(data)).DecodeAll()
	if err != nil {
		t.Fatalf("DOM decode: %v", err)
	}
	return Infer(docs, Options{Equiv: e})
}

// assertTokenMatchesDOM runs the token engines over data at several
// worker/batch/tokenizer shapes and demands exact agreement with the
// DOM result: typelang.Equivalent (mutual subtyping) plus identical
// plain and counted renderings.
func assertTokenMatchesDOM(t *testing.T, label string, data []byte, ndocs int) {
	t.Helper()
	for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
		want := domInfer(t, data, e)
		check := func(engine string, got *typelang.Type, n int, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s/%v/%s: %v", label, e, engine, err)
			}
			if ndocs >= 0 && n != ndocs {
				t.Errorf("%s/%v/%s: typed %d docs, want %d", label, e, engine, n, ndocs)
			}
			if !typelang.Equivalent(want, got) {
				t.Errorf("%s/%v/%s: token type not equivalent to DOM type\n dom:   %s\n token: %s",
					label, e, engine, want, got)
			}
			if want.String() != got.String() {
				t.Errorf("%s/%v/%s: rendering diverges\n dom:   %s\n token: %s",
					label, e, engine, want, got)
			}
			if want.StringCounted() != got.StringCounted() {
				t.Errorf("%s/%v/%s: counted rendering diverges\n dom:   %s\n token: %s",
					label, e, engine, want.StringCounted(), got.StringCounted())
			}
		}
		ty, n, err := InferStream(bytes.NewReader(data), Options{Equiv: e})
		check("sequential", ty, n, err)
		for _, tz := range []Tokenizer{TokenizerScan, TokenizerMison} {
			for _, workers := range []int{1, 2, 3, 8} {
				for _, batch := range []int{0, 1, 5} {
					ty, n, err := InferStreamParallel(bytes.NewReader(data),
						Options{Equiv: e, Workers: workers, Batch: batch, Tokenizer: tz})
					check(fmt.Sprintf("parallel-%v-%d-%d", tz, workers, batch), ty, n, err)
				}
			}
		}
	}
}

// TestTokenPathMatchesDOMPathFixtures pins the tentpole's equivalence on
// every checked-in NDJSON fixture: typing straight from tokens must give
// the same schema (same rendering, same counts) as decoding to value
// trees and typing those.
func TestTokenPathMatchesDOMPathFixtures(t *testing.T) {
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
		assertTokenMatchesDOM(t, filepath.Base(name), data, -1)
	}
}

// TestTokenPathMatchesDOMPathGenerated sweeps random documents from
// every generator family across worker and batch shapes.
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
		docs := genjson.Collection(g, 120)
		data := jsontext.MarshalLines(docs)
		assertTokenMatchesDOM(t, g.Name(), data, len(docs))
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
		assertTokenMatchesDOM(t, c.name, []byte(c.input), c.docs)
	}
}

// TestTokenPathRejectsWhatDOMRejects: on malformed streams both paths
// must fail, and the token path — with either tokenizer — must report
// the same absolute offset the sequential decoder sees.
func TestTokenPathRejectsWhatDOMRejects(t *testing.T) {
	bad := []string{
		"{\"a\": 1}\n{]\n",
		"[1, 2\n",
		"{\"a\": tru}\n",
		"\"unterminated\n{\"a\": 1}\n",
		"{\"a\": 1}\n12..5\n{\"b\": 2}\n",
		"{\"a\": 1}\n{\"s\": \"ctrl\x01\"}\n{\"b\": 2}\n",
	}
	for _, in := range bad {
		_, _, seqErr := InferStream(strings.NewReader(in), Options{})
		if seqErr == nil {
			t.Fatalf("sequential token engine accepted %q", in)
		}
		if _, domErr := jsontext.NewDecoder(strings.NewReader(in)).DecodeAll(); domErr == nil {
			t.Fatalf("DOM decoder accepted %q", in)
		}
		for _, tz := range []Tokenizer{TokenizerScan, TokenizerMison} {
			for _, workers := range []int{2, 4} {
				_, _, parErr := InferStreamParallel(strings.NewReader(in),
					Options{Workers: workers, Batch: 1, Tokenizer: tz})
				if parErr == nil {
					t.Fatalf("parallel token engine (%v) accepted %q", tz, in)
				}
				if so, po := syntaxOffset(seqErr), syntaxOffset(parErr); so != po {
					t.Errorf("%q (%v): parallel error offset %d, sequential %d", in, tz, po, so)
				}
			}
		}
	}
}

func syntaxOffset(err error) int {
	if se, ok := err.(*jsontext.SyntaxError); ok {
		return se.Offset
	}
	return -1
}

// TestTypeFromTokensMatchesTypeOf is the single-document map-phase
// equivalence: for a spread of tricky documents, TypeFromTokens must
// produce exactly TypeOf's counted type.
func TestTypeFromTokensMatchesTypeOf(t *testing.T) {
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
			got, err := TypeFromTokens(jsontext.NewTokenReaderBytes([]byte(in)), e)
			if err != nil {
				t.Fatalf("TypeFromTokens(%s): %v", in, err)
			}
			if want.StringCounted() != got.StringCounted() {
				t.Errorf("TypeFromTokens(%s) = %s, TypeOf = %s", in, got.StringCounted(), want.StringCounted())
			}
		}
	}
}

// TestTypeFromTokensWideObject crosses the duplicate-detection threshold
// (seen map) with duplicates on both sides of it.
func TestTypeFromTokensWideObject(t *testing.T) {
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
		b.WriteString(jsontext.Quote(name))
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
	got, err := TypeFromTokens(jsontext.NewTokenReaderBytes([]byte(in)), typelang.EquivKind)
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

// TestInferStreamIOErrorNotMaskedAsSyntax: when the reader dies mid-
// document, both engines must report the I/O error, not a syntax error
// manufactured by the truncation, and must cover the complete prefix.
func TestInferStreamIOErrorNotMaskedAsSyntax(t *testing.T) {
	ioErr := errors.New("connection reset by peer")
	payload := "{\"a\": 1}\n{\"a\": 2}\n{\"a\": 3}\n{\"a\":"
	for _, tz := range []Tokenizer{TokenizerScan, TokenizerMison} {
		for _, workers := range []int{1, 2, 4} {
			ty, n, err := InferStreamParallel(
				&failingReader{data: []byte(payload), err: ioErr},
				Options{Workers: workers, Batch: 2, Tokenizer: tz})
			if !errors.Is(err, ioErr) {
				t.Fatalf("%v/workers=%d: error = %v, want the reader's I/O error", tz, workers, err)
			}
			if n != 3 {
				t.Errorf("%v/workers=%d: typed %d docs, want the 3 complete ones", tz, workers, n)
			}
			if got := ty.String(); got != "{a: Int}" {
				t.Errorf("%v/workers=%d: prefix type = %s", tz, workers, got)
			}
		}
	}
	// A genuine syntax error before the I/O failure still wins: it is
	// earlier in the stream.
	bad := "{\"a\": 1}\n{]\n{\"a\": 2}\n"
	_, n, err := InferStreamParallel(
		&failingReader{data: []byte(bad), err: ioErr},
		Options{Workers: 4, Batch: 1})
	if err == nil || errors.Is(err, ioErr) {
		t.Fatalf("error = %v, want the syntax error from the malformed document", err)
	}
	if n != 1 {
		t.Errorf("typed %d docs before the syntax error, want 1", n)
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
