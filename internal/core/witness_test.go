package core

import (
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsonschema"
	"repro/internal/translate"
	"repro/internal/typelang"
)

// The generative cross-check: witnesses drawn from an inferred type
// must be accepted by every representation of that same schema — the
// type's own membership test, the JSON Schema generated from it, and
// the schema-driven row codec. This closes the loop between the §2
// languages, the §3 algebra and the §5 translators on data that never
// existed in the original collection.
func TestWitnessesAcceptedAcrossFormalisms(t *testing.T) {
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 141},
		genjson.GitHub{Seed: 142},
		genjson.NestedArrays{Seed: 143},
		genjson.SkewedOptional{Seed: 144},
	}
	for _, g := range gens {
		docs := genjson.Collection(g, 60)
		for _, engine := range []Engine{ParametricK, ParametricL} {
			inf, err := InferSchema(docs, engine)
			if err != nil {
				t.Fatal(err)
			}
			schema := jsonschema.MustCompile(inf.JSONSchema())
			for seed := int64(0); seed < 40; seed++ {
				w := inf.Type.Witness(seed)
				if w == nil {
					t.Fatalf("%s/%v: inferred type has no witness", g.Name(), engine)
				}
				if !inf.Type.Matches(w) {
					t.Fatalf("%s/%v seed %d: witness rejected by its own type", g.Name(), engine, seed)
				}
				if !schema.Accepts(w) {
					t.Fatalf("%s/%v seed %d: witness rejected by generated JSON Schema", g.Name(), engine, seed)
				}
				enc, err := translate.EncodeRow(nil, w, inf.Type)
				if err != nil {
					t.Fatalf("%s/%v seed %d: witness not encodable: %v", g.Name(), engine, seed, err)
				}
				back, rest, err := translate.DecodeRow(enc, inf.Type)
				if err != nil || len(rest) != 0 {
					t.Fatalf("%s/%v seed %d: witness decode failed: %v", g.Name(), engine, seed, err)
				}
				if !typelang.Equal(inf.Type, inf.Type) || !inf.Type.Matches(back) {
					t.Fatalf("%s/%v seed %d: decoded witness left the type", g.Name(), engine, seed)
				}
			}
		}
	}
}
