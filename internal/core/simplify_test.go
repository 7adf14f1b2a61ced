package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// TestSimplifyIsIdentityOnInferredSchemas pins why `jsinfer -simplify`
// changes no output byte on any fixture or generator under any engine:
// typelang.Simplify hands back the very type it was given. Records are
// closed, so an inferred union holds no subsumed alternative: L never
// makes a field optional and splits records by label set, so no record
// alternative is a subtype of another; K fuses every record into one;
// and the seal folds Int into Num, the one subtyping between atoms.
// Spark's schema is a projection of K's, and Skinfer's type showed no
// subsumed alternative on any of these inputs either.
func TestSimplifyIsIdentityOnInferredSchemas(t *testing.T) {
	corpora := map[string][]byte{}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil || len(files) != 5 {
		t.Fatalf("fixtures: %v (%d found, want 5)", err, len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		corpora[filepath.Base(f)] = data
	}
	for _, g := range []genjson.Generator{
		genjson.Twitter{Seed: 3}, genjson.GitHub{Seed: 3}, genjson.TypeDrift{Seed: 3},
		genjson.SkewedOptional{Seed: 3}, genjson.NestedArrays{Seed: 3}, genjson.Orders{Seed: 3},
		genjson.OpenData{Seed: 3}, genjson.NYTArticles{Seed: 3}, genjson.Wide{Seed: 3},
		genjson.Sparse{Seed: 3}, genjson.Deep{Seed: 3}, genjson.Fields{Seed: 3},
		genjson.Mixture{Seed: 3, Generators: []genjson.Generator{genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}}, Weights: []float64{1, 1}},
	} {
		corpora[fmt.Sprintf("%T", g)] = jsontext.MarshalLines(genjson.Collection(g, 300))
	}
	for name, data := range corpora {
		docs, err := ParseCollection(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, engine := range []Engine{ParametricK, ParametricL, Spark, Skinfer} {
			var inf *Inference
			if engine == Skinfer {
				inf, err = InferSchema(docs, engine)
			} else {
				inf, _, err = InferSchemaStreamWith(bytes.NewReader(data), engine, StreamOptions{})
			}
			if err != nil {
				t.Fatalf("%s %s: %v", name, engine, err)
			}
			if s := typelang.Simplify(inf.Type); s != inf.Type {
				t.Errorf("%s %s: Simplify rebuilt the schema\n   got: %s\n  from: %s", name, engine, s, inf.Type)
			}
		}
	}
}
