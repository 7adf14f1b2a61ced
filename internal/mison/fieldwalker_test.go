package mison

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
)

// The package builds the structural index twice: Bitmaps.build, eleven
// classes in three passes for the projecting Parser, and the streamed
// engine's TokenSource.index, four bitmaps in one.
// TestWalkerStructuralMatchesBitmaps holds the second to the first so
// the two cannot drift apart: the walker's structural bitmap is the OR
// of the six structural classes of Bitmaps, and its quote bitmap is
// Bitmaps.Quote.

// assertWalkerMatchesBitmaps compares the two builds over data — a
// chunk cut inside a string included: both read everything after the
// unmatched quote as "in string".
func assertWalkerMatchesBitmaps(t *testing.T, label string, w *FieldWalker, data []byte) {
	t.Helper()
	b := BuildBitmaps(data)
	w.Reset(data, 0)
	for i := range b.Quote {
		if got := w.ts.quote[i]; got != b.Quote[i] {
			t.Fatalf("%s (%d bytes): quote word %d = %064b, Bitmaps %064b", label, len(data), i, got, b.Quote[i])
		}
		want := b.Colon[i] | b.Comma[i] | b.LBrace[i] | b.RBrace[i] | b.LBracket[i] | b.RBracket[i]
		if got := w.structural[i]; got != want {
			t.Fatalf("%s (%d bytes): structural word %d = %064b, Bitmaps' six classes %064b", label, len(data), i, got, want)
		}
	}
}

func TestWalkerStructuralMatchesBitmaps(t *testing.T) {
	w := NewFieldWalker()
	forEachIndexInput(t, func(name string, data []byte) { assertWalkerMatchesBitmaps(t, name, w, data) })
}

// forEachIndexInput calls fn on every fixture, on all 13 generators and
// on the escapeAdversarial layouts: each whole, and cut on either side
// of the first and last 8-byte lane and 64-byte block edges.
func forEachIndexInput(t *testing.T, fn func(name string, data []byte)) {
	t.Helper()
	inputs := map[string][]byte{}
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no testdata fixtures found (err %v)", err)
	}
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs[filepath.Base(name)] = data
	}
	for _, g := range []genjson.Generator{
		genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}, genjson.TypeDrift{Seed: 3},
		genjson.SkewedOptional{Seed: 4}, genjson.NestedArrays{Seed: 5}, genjson.Orders{Seed: 6},
		genjson.Mixture{Seed: 7, Generators: []genjson.Generator{genjson.Twitter{Seed: 8}, genjson.Orders{Seed: 9}}, Weights: []float64{1, 1}},
		genjson.OpenData{Seed: 10}, genjson.NYTArticles{Seed: 11}, genjson.Wide{Seed: 12},
		genjson.Fields{Seed: 13}, genjson.Sparse{Seed: 14}, genjson.Deep{Seed: 15},
	} {
		inputs[g.Name()] = jsontext.MarshalLines(genjson.Collection(g, 40))
	}
	for name, s := range escapeAdversarial {
		inputs[name] = []byte(s)
	}
	for name, data := range inputs {
		lengths := []int{len(data)}
		for _, edge := range []int{8, 64, 128, len(data) &^ 7, len(data) &^ 63} {
			lengths = append(lengths, edge-1, edge, edge+1)
		}
		for _, n := range lengths {
			if n >= 0 && n <= len(data) {
				fn(name, data[:n])
			}
		}
	}
}

// indexReference builds the four bitmaps of TokenSource.index a byte at
// a time: quotes not escaped by a backslash (an unescaped backslash
// escapes the byte after it, anywhere); backslashes and control bytes;
// non-ASCII bytes; and { } [ ] : , outside strings, where a string runs
// from a quote through the byte before the next one. Escaped structural
// characters outside strings stay marked (FieldWalker.Reset).
func indexReference(data []byte) (quote, dirty, nonASCII, structural []uint64) {
	nw := words(len(data))
	quote, dirty, nonASCII, structural = make([]uint64, nw), make([]uint64, nw), make([]uint64, nw), make([]uint64, nw)
	escaped, inString := false, false
	for i, c := range data {
		bit := uint64(1) << uint(i&63)
		if c == '"' && !escaped {
			quote[i>>6] |= bit
			inString = !inString
		}
		if c == '\\' || c < 0x20 {
			dirty[i>>6] |= bit
		}
		if c >= 0x80 {
			nonASCII[i>>6] |= bit
		}
		switch c {
		case '{', '}', '[', ']', ':', ',':
			if !inString {
				structural[i>>6] |= bit
			}
		}
		escaped = c == '\\' && !escaped
	}
	return quote, dirty, nonASCII, structural
}

// assertIndexMatchesReference resets w on data and holds all four of
// its bitmaps, every word, to indexReference.
func assertIndexMatchesReference(t *testing.T, label string, w *FieldWalker, data []byte) {
	t.Helper()
	if msg := indexMismatch(w, data); msg != "" {
		t.Fatalf("%s (%d bytes): %s", label, len(data), msg)
	}
}

// indexMismatch resets w on data and describes the first word of its
// four bitmaps that differs from indexReference, or returns "".
func indexMismatch(w *FieldWalker, data []byte) string {
	w.Reset(data, 0)
	quote, dirty, nonASCII, structural := indexReference(data)
	for _, bm := range []struct {
		name      string
		got, want []uint64
	}{
		{"quote", w.ts.quote, quote},
		{"dirty", w.ts.dirty, dirty},
		{"non-ASCII", w.ts.nonascii, nonASCII},
		{"structural", w.structural, structural},
	} {
		if len(bm.got) != len(bm.want) {
			return fmt.Sprintf("%s bitmap has %d words, want %d", bm.name, len(bm.got), len(bm.want))
		}
		for i := range bm.want {
			if bm.got[i] != bm.want[i] {
				return fmt.Sprintf("%s word %d = %064b, byte-at-a-time %064b", bm.name, i, bm.got[i], bm.want[i])
			}
		}
	}
	return ""
}

// TestIndexMatchesByteReference pins all four bitmaps of the block
// kernel to the byte-at-a-time reference on the fixtures, generators
// and escape layouts, with one warm walker across all of them, so a
// word a reset failed to write would show.
func TestIndexMatchesByteReference(t *testing.T) {
	w := NewFieldWalker()
	forEachIndexInput(t, func(name string, data []byte) { assertIndexMatchesReference(t, name, w, data) })
}

// TestIndexClassifiesEveryByteEverywhere puts every byte value at every
// position of a full block followed by a tail of every length 0–63 (the
// zero-padded tail block). Among the values are 0x0C and 0x1A, which
// the kernel's structural compares fold onto , and :, and [ ] { }. The
// string mask and the escape carry, which see only the quote and
// backslash bits, are left to the corpora and FuzzIndexBitmaps.
func TestIndexClassifiesEveryByteEverywhere(t *testing.T) {
	w := NewFieldWalker()
	for tail := 0; tail < 64; tail++ {
		data := bytes.Repeat([]byte("a"), 64+tail)
		for p := range data {
			for c := 0; c < 256; c++ {
				data[p] = byte(c)
				if msg := indexMismatch(w, data); msg != "" {
					t.Fatalf("byte %#02x at %d of %d: %s", c, p, len(data), msg)
				}
			}
			data[p] = 'a'
		}
	}
}
