package repro_test

// Ablation benchmarks for the design choices docs/EXPERIMENTS.md
// calls out: what each speculative/structural mechanism actually buys.

import (
	"testing"

	"repro/internal/fadjs"
	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/mison"
	"repro/internal/translate"
	"repro/internal/typelang"
)

// Ablation: Mison's speculative pattern tree. A fresh parser per
// record never amortises learned ordinals — the difference is what
// speculation buys on top of the structural index itself.
func BenchmarkAblationMisonSpeculation(b *testing.B) {
	docs := genjson.Collection(genjson.Twitter{Seed: 401, RetweetP: 0.01}, 300)
	lines := make([][]byte, len(docs))
	for i, d := range docs {
		lines[i] = jsontext.Marshal(d)
	}
	paths := []string{"id", "user.screen_name"}
	b.Run("with-speculation", func(b *testing.B) {
		p := mison.MustNewParser(paths...)
		for i := 0; i < b.N; i++ {
			for _, raw := range lines {
				if _, err := p.ParseRecord(raw); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("without-speculation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, raw := range lines {
				p := mison.MustNewParser(paths...) // no memory across records
				if _, err := p.ParseRecord(raw); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// Ablation: Fad.js lazy skipping. Decoding with a 2-field projection
// versus materialising all ~15 fields of a tweet-like record.
func BenchmarkAblationFadjsProjection(b *testing.B) {
	docs := genjson.Collection(genjson.Twitter{Seed: 402, OptionalP: 0, RetweetP: 0}, 500)
	lines := make([][]byte, len(docs))
	for i, d := range docs {
		lines[i] = jsontext.Marshal(d)
	}
	b.Run("project-2-fields", func(b *testing.B) {
		dec := fadjs.NewDecoder("id", "lang")
		for i := 0; i < b.N; i++ {
			for _, raw := range lines {
				if _, err := dec.Decode(raw); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("decode-all-fields", func(b *testing.B) {
		dec := fadjs.NewDecoder()
		for i := 0; i < b.N; i++ {
			for _, raw := range lines {
				if _, err := dec.Decode(raw); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// Ablation: schema-aware versus schema-oblivious row translation. The
// oblivious encoder ships every value as length-prefixed JSON text
// (schema = Any); the aware one uses the inferred schema's layout.
func BenchmarkAblationSchemaOblivious(b *testing.B) {
	docs := genjson.Collection(genjson.Orders{Seed: 403}, 500)
	schema := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
	raw := jsontext.MarshalLines(docs)
	b.Run("schema-aware", func(b *testing.B) {
		var out []byte
		for i := 0; i < b.N; i++ {
			var err error
			out, err = translate.EncodeCollection(docs, schema)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(out))/float64(len(raw)), "size-ratio")
	})
	b.Run("schema-oblivious", func(b *testing.B) {
		var out []byte
		for i := 0; i < b.N; i++ {
			var err error
			out, err = translate.EncodeCollection(docs, typelang.Any)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(out))/float64(len(raw)), "size-ratio")
	})
}

// Ablation: the object field index. Lookup-heavy validation on wide
// records exercises jsonvalue's map-above-threshold design; this bench
// pins its effect at the workload level (inference reads every field).
func BenchmarkAblationInferenceEquivalence(b *testing.B) {
	docs := genjson.Collection(genjson.GitHub{Seed: 404}, 500)
	for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
		e := e
		b.Run(e.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				infer.Infer(docs, infer.Options{Equiv: e})
			}
		})
	}
}
