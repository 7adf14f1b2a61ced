package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// This file holds the paper's first correctness property, soundness:
// every document is a member of the schema inferred from its
// collection, in the algebra and in the JSON Schema document both
// commands print. Precision is what K and L trade against it, and its
// order is the third check: every L schema is a subtype of the K schema
// of the same collection.

// assertSound infers data's schema through the streamed engine under K
// and L, each as printed and simplified (jsinfer -simplify), at the
// given worker count, and checks every one of docs — data, decoded —
// against it: TypeOf(d) is a subtype of the schema, and the JSON Schema
// WriteSchema writes, compiled, accepts d. Last, the L schema is a
// subtype of the K schema, as printed and simplified.
func assertSound(t *testing.T, label string, data []byte, docs []*Value, workers int) {
	t.Helper()
	for _, simplify := range []bool{false, true} {
		schemas := map[Engine]*Type{}
		for _, engine := range []Engine{ParametricK, ParametricL} {
			equiv, _ := equivFor(engine)
			name := fmt.Sprintf("%s/%v/w%d/simplify=%t", label, engine, workers, simplify)
			inf, n, err := InferSchemaStreamWith(bytes.NewReader(data), engine, StreamOptions{Workers: workers})
			if err != nil || n != len(docs) {
				t.Fatalf("%s: %d documents, err %v; the decoder read %d", name, n, err, len(docs))
			}
			if simplify {
				inf.Simplify()
			}
			schemas[engine] = inf.Type
			var doc bytes.Buffer
			if err := inf.WriteSchema(&doc, "jsonschema"); err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseString(doc.String())
			if err != nil {
				t.Fatalf("%s: the JSON Schema written does not parse: %v", name, err)
			}
			validator, err := CompileJSONSchema(parsed)
			if err != nil {
				t.Fatalf("%s: the JSON Schema written does not compile: %v", name, err)
			}
			for i, d := range docs {
				if !typelang.Subtype(infer.TypeOf(d, equiv), inf.Type) {
					t.Errorf("%s: document %d's type %s is not a subtype of the schema %s", name, i, infer.TypeOf(d, equiv), inf.Type)
				}
				if !validator.Accepts(d) {
					t.Errorf("%s: the JSON Schema rejects document %d: %v\n document: %s\n schema: %s",
						name, i, validator.Explain(d), jsontext.Marshal(d), doc.String())
				}
				if t.Failed() {
					return
				}
			}
		}
		if l, k := schemas[ParametricL], schemas[ParametricK]; !typelang.Subtype(l, k) {
			t.Errorf("%s/w%d/simplify=%t: the L schema %s is not a subtype of the K schema %s", label, workers, simplify, l, k)
		}
	}
}

// TestInferredSchemasAreSound runs assertSound over every checked-in
// fixture and 200 documents of every genjson generator, at one and two
// workers.
func TestInferredSchemasAreSound(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	corpora := map[string][]byte{}
	for _, path := range paths {
		if corpora[filepath.Base(path)], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []genjson.Generator{
		genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}, genjson.TypeDrift{Seed: 3},
		genjson.SkewedOptional{Seed: 4}, genjson.NestedArrays{Seed: 5}, genjson.Orders{Seed: 6},
		genjson.Mixture{Seed: 7, Generators: []genjson.Generator{genjson.Twitter{Seed: 8}, genjson.Orders{Seed: 9}}, Weights: []float64{1, 1}},
		genjson.OpenData{Seed: 10}, genjson.NYTArticles{Seed: 11}, genjson.Wide{Seed: 12},
		genjson.Fields{Seed: 13}, genjson.Sparse{Seed: 14}, genjson.Deep{Seed: 15},
	} {
		corpora[fmt.Sprintf("%T", g)] = jsontext.MarshalLines(genjson.Collection(g, 200))
	}
	for label, data := range corpora {
		docs, err := ParseCollection(data)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, workers := range []int{1, 2} {
			assertSound(t, label, data, docs, workers)
		}
	}
}

// FuzzInferredSchemaIsSound is assertSound over arbitrary collections:
// any bytes ParseCollection reads as NDJSON, through the streamed
// engine at one and two workers.
func FuzzInferredSchemaIsSound(f *testing.F) {
	for _, seed := range []string{
		`{"a": 1}` + "\n" + `{"a": "x", "b": [1, 2.5]}`,
		`[1, "s", {"a": null}, [true]]` + "\n" + `{}` + "\n" + `[]`,
		`{"a": {"b": [{"c": 1}, {"d": 2}]}}` + "\n" + `{"a": {"b": []}}`,
		`1` + "\n" + `-0` + "\n" + `1.0` + "\n" + `1e2` + "\n" + `18446744073709551616` + "\n" + `null`,
		`{"": 1, "a\u0000b": 2, "é": [{}]}` + "\n" + `{"a": 1, "a": "dup"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := ParseCollection(data)
		if err != nil || len(docs) == 0 {
			return
		}
		for _, workers := range []int{1, 2} {
			assertSound(t, "fuzz", data, docs, workers)
		}
	})
}
