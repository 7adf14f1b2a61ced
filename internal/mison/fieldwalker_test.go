package mison

import (
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
	w := NewFieldWalker()
	for name, data := range inputs {
		// The whole input, and cuts on either side of the first and last
		// 8-byte lane and 64-byte word edges.
		lengths := []int{len(data)}
		for _, edge := range []int{8, 64, 128, len(data) &^ 7, len(data) &^ 63} {
			lengths = append(lengths, edge-1, edge, edge+1)
		}
		for _, n := range lengths {
			if n >= 0 && n <= len(data) {
				assertWalkerMatchesBitmaps(t, name, w, data[:n])
			}
		}
	}
}
