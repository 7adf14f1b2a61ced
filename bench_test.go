// Package repro_test holds the benchmark harness: one BenchmarkE* per
// experiment in docs/EXPERIMENTS.md (E1–E16). Each bench measures the
// inner operation of its experiment and reports the experiment's shape
// metric (schema size, precision, coverage, hit rate, ...) via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates every
// row the paper-claim tables rest on; `cmd/jsbench` prints the full
// tables.
package repro_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/fadjs"
	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jaql"
	"repro/internal/joi"
	"repro/internal/jsonschema"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/jsound"
	"repro/internal/mison"
	"repro/internal/mmapio"
	"repro/internal/mongoschema"
	"repro/internal/normalize"
	"repro/internal/profile"
	"repro/internal/registry"
	"repro/internal/skeleton"
	"repro/internal/skinfer"
	"repro/internal/sparkinfer"
	"repro/internal/translate"
	"repro/internal/typelang"
)

// E1: parametric inference at both abstraction levels.
func BenchmarkE1ParametricInference(b *testing.B) {
	docs := genjson.Collection(genjson.GitHub{Seed: 11}, 1000)
	for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
		e := e
		b.Run(e.String(), func(b *testing.B) {
			var ty *typelang.Type
			for i := 0; i < b.N; i++ {
				ty = infer.Infer(docs, infer.Options{Equiv: e})
			}
			b.ReportMetric(float64(ty.Size()), "schema-nodes")
			b.ReportMetric(typelang.Precision(ty, docs), "precision")
		})
	}
}

// E2: Spark's union-free fold versus the parametric merge on drifting
// data; the metric is the precision each schema retains.
func BenchmarkE2SparkImprecision(b *testing.B) {
	docs := genjson.Collection(genjson.TypeDrift{Seed: 12, NumFields: 10, DriftFields: 5}, 1000)
	b.Run("spark", func(b *testing.B) {
		var t *sparkinfer.DataType
		for i := 0; i < b.N; i++ {
			t = sparkinfer.Infer(docs)
		}
		b.ReportMetric(typelang.Precision(t.ToTypelang(), docs), "precision")
	})
	b.Run("parametric-L", func(b *testing.B) {
		var t *typelang.Type
		for i := 0; i < b.N; i++ {
			t = infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
		}
		b.ReportMetric(typelang.Precision(t, docs), "precision")
	})
}

// E3: the associative reduce parallelises; same result, more workers.
// The call E3's table times: the streamed byte engine jsinfer runs,
// over the experiment's serialised corpus, at each width.
func BenchmarkE3ParallelInference(b *testing.B) {
	raw := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 13}, 12000))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, _, err := infer.InferStreamBytes(raw,
					infer.Options{Equiv: typelang.EquivLabel, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E3 (streaming): the DOM pipeline (the library API over materialised
// values: decode every document to a value tree, then fold the trees
// sequentially with infer.Infer) versus the streamed engine (what
// jsinfer runs for the parametric engines: type straight off the
// structural index). The streamed rows build no value trees, their
// parallel variants lex on the workers instead of the feeding
// goroutine, and they lex through the structural index (bitmap
// chunking, positional string skipping). All streamed rows fold
// through the mutable accumulator core (typelang.Accum: absorb in
// place, seal once per run and, above one worker, once per chunk); the
// parallel rows reduce in line on the committer (one accumulator, one
// seal), and the registry-ingest row measures the same bytes arriving
// through the live-merge registry (collector and its mapper kept across
// requests, every body absorbed in line: no worker count). The sparse
// rows are high-cardinality L: a few keys drawn from a large universe
// give about one record type per document, so the schema is as large
// as the data and the reduce handles schema-sized work.
// domInfer is the DOM baseline of the E3 rows: decode the whole
// collection to value trees, then run the materialised fold over them.
func domInfer(b *testing.B, raw []byte, opts infer.Options) {
	docs, err := core.ReadCollection(nil, bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	infer.Infer(docs, opts)
}

func BenchmarkE3StreamingInference(b *testing.B) {
	docs := genjson.Collection(genjson.Twitter{Seed: 13}, 5000)
	raw := jsontext.MarshalLines(docs)
	b.Run("dom-sequential", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			domInfer(b, raw, infer.Options{Equiv: typelang.EquivLabel})
		}
	})
	b.Run("mison-sequential", func(b *testing.B) {
		// One worker: the engine's sequential shape (large byte-target
		// chunks through one accumulator, one seal). Documents absorb
		// straight off the structural index into the accumulator: no
		// per-document type, no separator tokens.
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := infer.InferStream(bytes.NewReader(raw),
				infer.Options{Equiv: typelang.EquivLabel, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mison-sequential-bytes", func(b *testing.B) {
		// The zero-copy byte engine against the reader row above: same
		// pipeline, but chunks alias the input slice in place — no read
		// buffers, no compaction copies, no pool churn. The B/op gap to
		// mison-sequential is the cost of streaming through a reader.
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := infer.InferStreamBytes(raw,
				infer.Options{Equiv: typelang.EquivLabel, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mison-sequential-mmap", func(b *testing.B) {
		// The byte engine fed by a memory-mapped file — the full `jsinfer
		// FILE` data path minus argument parsing. The kernel
		// pages the file in; the pipeline never copies it.
		if !mmapio.Supported() {
			b.Skip("mmap not supported on this platform")
		}
		name := filepath.Join(b.TempDir(), "corpus.ndjson")
		if err := os.WriteFile(name, raw, 0o644); err != nil {
			b.Fatal(err)
		}
		f, err := os.Open(name)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		m, err := mmapio.Map(f)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := infer.InferStreamBytes(m.Data(),
				infer.Options{Equiv: typelang.EquivLabel, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("mison-parallel-%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := infer.InferStream(bytes.NewReader(raw),
					infer.Options{Equiv: typelang.EquivLabel, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The zero-copy byte engine under parallelism: workers consume
		// chunks that alias one shared input slice.
		b.Run(fmt.Sprintf("mison-parallel-%d-bytes", workers), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := infer.InferStreamBytes(raw,
					infer.Options{Equiv: typelang.EquivLabel, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The registry ingest path: the same bytes in 256 KiB windows on the
	// request's goroutine, folding into one long-lived collection's
	// collector through its kept mapper — the steady-state
	// per-request cost of the jsinferd daemon (the schema converges after
	// the first request, so later iterations measure warm live-merge).
	b.Run("registry-ingest", func(b *testing.B) {
		reg := registry.New(registry.Options{Equiv: typelang.EquivLabel})
		defer reg.Close()
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Ingest("bench", bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The colon-dense corpus (jsgen -kind fields): hundreds of short
	// fields per object, shallow atoms — the workload where never
	// tokenising separators matters most.
	fieldsRaw := jsontext.MarshalLines(genjson.Collection(genjson.Fields{Seed: 13}, 400))
	b.Run("fields-mison-sequential", func(b *testing.B) {
		b.SetBytes(int64(len(fieldsRaw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := infer.InferStream(bytes.NewReader(fieldsRaw),
				infer.Options{Equiv: typelang.EquivLabel, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The sparse corpus (jsgen -kind sparse): 8 of 500 keys per record.
	sparseRaw := jsontext.MarshalLines(genjson.Collection(genjson.Sparse{Seed: 13}, 10000))
	for _, workers := range []int{1, 2} {
		name := "sparse-mison-sequential"
		if workers > 1 {
			name = fmt.Sprintf("sparse-mison-parallel-%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(sparseRaw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := infer.InferStream(bytes.NewReader(sparseRaw),
					infer.Options{Equiv: typelang.EquivLabel, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The same tweets and sparse bytes as the sequential rows above, cut
	// into many files and passed as file arguments are: one run over all
	// of them, so the gap to the one-reader row is what opening and
	// reading a file costs.
	for _, many := range []struct {
		name string
		raw  []byte
		n    int
	}{{"tweets-2000-files-sequential", raw, 2000}, {"sparse-1000-files-sequential", sparseRaw, 1000}} {
		files := writeLayout(b, many.raw, many.n)
		b.Run(many.name, func(b *testing.B) {
			b.SetBytes(int64(len(many.raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := infer.InferStreamFiles(files, infer.Options{Equiv: typelang.EquivLabel, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// writeLayout cuts NDJSON data into n files of whole lines under a
// temporary directory and returns their names, in order.
func writeLayout(b *testing.B, data []byte, n int) []string {
	lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	dir, per := b.TempDir(), (len(lines)+n-1)/n
	var files []string
	for i := 0; i*per < len(lines); i++ {
		files = append(files, filepath.Join(dir, fmt.Sprintf("part%04d.ndjson", i)))
		if err := os.WriteFile(files[i], bytes.Join(lines[i*per:min((i+1)*per, len(lines))], nil), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return files
}

// E3 (large corpus): the zero-copy claims at the scale they were built
// for — a corpus sized by E3_CORPUS_BYTES (jsgen -target syntax, e.g.
// 100MB for a run by hand; the default keeps local `make bench` quick)
// streamed through the reader path, the byte-slice
// path, and the mmap path. The corpus is generated in index order from
// per-document seeds, so a given (seed, target) names the same bytes on
// every run.
func BenchmarkE3LargeCorpus(b *testing.B) {
	target := int64(4 << 20)
	if s := os.Getenv("E3_CORPUS_BYTES"); s != "" {
		t, err := genjson.ParseSize(s)
		if err != nil {
			b.Fatalf("E3_CORPUS_BYTES: %v", err)
		}
		target = t
	}
	g := genjson.Twitter{Seed: 41}
	var buf bytes.Buffer
	buf.Grow(int(target) + (64 << 10))
	for i := 0; int64(buf.Len()) < target; i++ {
		buf.Write(jsontext.Marshal(g.Generate(i)))
		buf.WriteByte('\n')
	}
	raw := buf.Bytes()
	opts := infer.Options{Equiv: typelang.EquivLabel, Workers: 4}
	b.Run("reader", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := infer.InferStream(bytes.NewReader(raw), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := infer.InferStreamBytes(raw, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mmap", func(b *testing.B) {
		if !mmapio.Supported() {
			b.Skip("mmap not supported on this platform")
		}
		name := filepath.Join(b.TempDir(), "corpus.ndjson")
		if err := os.WriteFile(name, raw, 0o644); err != nil {
			b.Fatal(err)
		}
		f, err := os.Open(name)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		m, err := mmapio.Map(f)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := infer.InferStreamBytes(m.Data(), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E4: merged streaming analysis vs no-merge shape collection; metric
// is the report size each produces.
func BenchmarkE4MongoVsStudio3T(b *testing.B) {
	docs := genjson.Collection(genjson.SkewedOptional{Seed: 14, NumFields: 18}, 1000)
	b.Run("merged", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			a := mongoschema.NewAnalyzer()
			for _, d := range docs {
				a.Analyze(d)
			}
			size = a.SchemaSize()
		}
		b.ReportMetric(float64(size), "schema-bytes")
	})
	b.Run("no-merge", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			c := mongoschema.NewShapeCollector()
			for _, d := range docs {
				c.Analyze(d)
			}
			size = c.SchemaSize()
		}
		b.ReportMetric(float64(size), "schema-bytes")
	})
}

// E5: Skinfer's record-only merge loses array-element structure; the
// metric is the share of documents its schema still validates.
func BenchmarkE5SkinferArrayGap(b *testing.B) {
	docs := genjson.Collection(genjson.NestedArrays{Seed: 15}, 500)
	b.Run("skinfer", func(b *testing.B) {
		var ok int
		for i := 0; i < b.N; i++ {
			s := jsonschema.MustCompile(skinfer.Infer(docs))
			ok = 0
			for _, d := range docs {
				if s.Accepts(d) {
					ok++
				}
			}
		}
		b.ReportMetric(float64(ok)/float64(len(docs)), "validate-rate")
	})
	b.Run("parametric-L", func(b *testing.B) {
		var ok int
		for i := 0; i < b.N; i++ {
			t := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
			ok = 0
			for _, d := range docs {
				if t.Matches(d) {
					ok++
				}
			}
		}
		b.ReportMetric(float64(ok)/float64(len(docs)), "validate-rate")
	})
}

// E6: Mison projection versus full parsing, per record.
func BenchmarkE6MisonProjection(b *testing.B) {
	docs := genjson.Collection(genjson.Twitter{Seed: 16, RetweetP: 0.01}, 500)
	lines := make([][]byte, len(docs))
	var bytes int
	for i, d := range docs {
		lines[i] = jsontext.Marshal(d)
		bytes += len(lines[i])
	}
	projections := map[string][]string{
		"project-1": {"id"},
		"project-2": {"id", "lang"},
		"project-4": {"id", "lang", "user.screen_name", "retweet_count"},
	}
	for name, proj := range projections {
		proj := proj
		b.Run(name, func(b *testing.B) {
			p := mison.MustNewParser(proj...)
			b.SetBytes(int64(bytes))
			for i := 0; i < b.N; i++ {
				for _, raw := range lines {
					if _, err := p.ParseRecord(raw); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(p.Hits)/float64(p.Hits+p.Misses), "spec-hit-rate")
		})
	}
	b.Run("full-parse", func(b *testing.B) {
		b.SetBytes(int64(bytes))
		for i := 0; i < b.N; i++ {
			for _, raw := range lines {
				if _, err := jsontext.Parse(raw); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// E7: Fad.js speculation on constant-shape and churning streams
// against the generic parser.
func BenchmarkE7FadjsSpeculation(b *testing.B) {
	constant := make([][]byte, 1000)
	for i := range constant {
		constant[i] = jsontext.Marshal(jsonvalue.ObjectFromPairs(
			"id", i, "name", "user", "active", i%2 == 0, "score", float64(i)/3))
	}
	churn := make([][]byte, 1000)
	for i := range churn {
		churn[i] = jsontext.Marshal(jsonvalue.ObjectFromPairs(
			fmt.Sprintf("k%d", i%7), i, fmt.Sprintf("m%d", i%11), "x"))
	}
	bench := func(name string, lines [][]byte, useFadjs bool) {
		b.Run(name, func(b *testing.B) {
			dec := fadjs.NewDecoder()
			for i := 0; i < b.N; i++ {
				for _, raw := range lines {
					var err error
					if useFadjs {
						_, err = dec.Decode(raw)
					} else {
						_, err = jsontext.Parse(raw)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	bench("fadjs-constant", constant, true)
	bench("generic-constant", constant, false)
	bench("fadjs-churn", churn, true)
	bench("generic-churn", churn, false)
}

// E8: skeleton mining across support thresholds; metrics are size and
// coverage.
func BenchmarkE8SkeletonCoverage(b *testing.B) {
	docs := genjson.Collection(genjson.Twitter{Seed: 21, OptionalP: 0.4, RetweetP: 0.05}, 1000)
	for _, sup := range []float64{0.01, 0.3, 0.9} {
		sup := sup
		b.Run(fmt.Sprintf("support-%.2f", sup), func(b *testing.B) {
			var sk *skeleton.Skeleton
			for i := 0; i < b.N; i++ {
				sk = skeleton.Build(docs, sup)
			}
			b.ReportMetric(float64(sk.Size()), "paths")
			b.ReportMetric(sk.Coverage(docs), "coverage")
		})
	}
}

// E9: the three schema languages validating the same corpus.
func BenchmarkE9ValidatorThroughput(b *testing.B) {
	docs := genjson.Collection(genjson.OpenData{Seed: 22}, 1000)
	js := jsonschema.MustCompile(jsontext.MustParse(`{
		"type": "object",
		"properties": {
			"identifier": {"type": "string", "pattern": "^ds-"},
			"title": {"type": "string"},
			"accessLevel": {"enum": ["public", "restricted"]},
			"keyword": {"type": "array", "items": {"type": "string"}, "minItems": 1}
		},
		"required": ["identifier", "title", "accessLevel"]
	}`))
	jv := joi.Object().Unknown(true).Keys(joi.K{
		"identifier":  joi.String().Pattern("^ds-").Required(),
		"title":       joi.String().Required(),
		"accessLevel": joi.String().Valid("public", "restricted").Required(),
		"keyword":     joi.Array().Items(joi.String()).Min(1),
	})
	jd := jsound.MustCompile(jsontext.MustParse(`{
		"!identifier": "string", "!title": "string", "description": "string",
		"!accessLevel": "string", "modified": "dateTime", "keyword": ["string"],
		"publisher": {"!name": "string"}, "temporal": "string", "spatial": "string",
		"distribution": [{"!mediaType": "string", "downloadURL": "anyURI"}]
	}`))
	b.Run("jsonschema", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				js.Accepts(d)
			}
		}
	})
	b.Run("joi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				jv.Accepts(d)
			}
		}
	})
	b.Run("jsound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				jd.Accepts(d)
			}
		}
	})
}

// E10: schema-driven translation and the columnar scan advantage.
func BenchmarkE10SchemaTranslation(b *testing.B) {
	docs := genjson.Collection(genjson.Orders{Seed: 23}, 1000)
	schema := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
	raw := jsontext.MarshalLines(docs)
	cs, err := translate.Shred(docs, schema)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode-rows", func(b *testing.B) {
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
	b.Run("shred-columnar", func(b *testing.B) {
		var set *translate.ColumnSet
		for i := 0; i < b.N; i++ {
			var err error
			set, err = translate.Shred(docs, schema)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(set.Bytes()))/float64(len(raw)), "size-ratio")
	})
	b.Run("scan-column", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum int64
			if err := cs.ScanInts("order_id", func(n int64) { sum += n }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan-json-reparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			docs, err := jsontext.ParseLines(raw)
			if err != nil {
				b.Fatal(err)
			}
			var sum int64
			for _, d := range docs {
				id, _ := d.Get("order_id")
				sum += id.Int()
			}
		}
	})
}

// E11: FD mining and decomposition.
func BenchmarkE11Normalization(b *testing.B) {
	docs := genjson.Collection(genjson.Orders{Seed: 24, Customers: 40, Products: 80}, 1000)
	var flatCells, normCells int
	for i := 0; i < b.N; i++ {
		rels := normalize.Flatten(docs)
		flatCells, normCells = 0, 0
		for _, rel := range rels {
			dec := normalize.Normalize(rel, 10)
			flatCells += rel.CellCount()
			normCells += dec.CellCount()
		}
	}
	b.ReportMetric(float64(normCells)/float64(flatCells), "cell-ratio")
}

// E12: counting types cost nothing extra to carry.
func BenchmarkE12CountingTypes(b *testing.B) {
	docs := genjson.Collection(genjson.SkewedOptional{Seed: 17, NumFields: 15}, 1000)
	var ty *typelang.Type
	for i := 0; i < b.N; i++ {
		ty = infer.Infer(docs, infer.Options{Equiv: typelang.EquivKind})
	}
	plain, counted := len(ty.String()), len(ty.StringCounted())
	b.ReportMetric(float64(counted)/float64(plain), "annotation-overhead")
}

// E13: profiling tree construction over a mixed collection.
func BenchmarkE13SchemaProfiling(b *testing.B) {
	mix := genjson.Mixture{
		Seed:       25,
		Generators: []genjson.Generator{genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}},
		Weights:    []float64{1, 1},
	}
	n := 500
	docs := genjson.Collection(mix, n)
	truth := make([]int, n)
	for i := range truth {
		truth[i] = mix.Component(i)
	}
	var tree *profile.Tree
	for i := 0; i < b.N; i++ {
		tree = profile.Build(docs, 4)
	}
	b.ReportMetric(tree.Purity(truth), "purity")
}

// E14: code generation for both target languages.
func BenchmarkE14Codegen(b *testing.B) {
	docs := genjson.Collection(genjson.Twitter{Seed: 26}, 300)
	ty := infer.Infer(docs, infer.Options{Equiv: typelang.EquivKind})
	b.Run("typescript", func(b *testing.B) {
		var src string
		for i := 0; i < b.N; i++ {
			src = codegen.TypeScript("Root", ty)
		}
		if err := codegen.CheckBalanced(src); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("swift", func(b *testing.B) {
		var src string
		for i := 0; i < b.N; i++ {
			src = codegen.Swift("Root", ty)
		}
		if err := codegen.CheckBalanced(src); err != nil {
			b.Fatal(err)
		}
	})
}

// E15: Jaql-style static output schema inference — type-level
// inference cost versus running the query.
func BenchmarkE15JaqlInference(b *testing.B) {
	docs := genjson.Collection(genjson.Orders{Seed: 31}, 1000)
	inType := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
	q := jaql.NewQuery().Expand("lines").Transform(jaql.R(
		"sku", jaql.F("sku"),
		"total", jaql.Arith{Op: '*', L: jaql.F("unit_price"), R: jaql.F("qty")},
	))
	b.Run("static-output-type", func(b *testing.B) {
		var out *typelang.Type
		for i := 0; i < b.N; i++ {
			out = q.OutputType(inType)
		}
		b.ReportMetric(float64(out.Size()), "out-type-nodes")
	})
	b.Run("run-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.Eval(docs)
		}
	})
}

// E16: Couchbase-style discovery over a mixed collection.
func BenchmarkE16Discovery(b *testing.B) {
	docs := genjson.Collection(genjson.GitHub{Seed: 33}, 800)
	var r *discovery.Report
	for i := 0; i < b.N; i++ {
		r = discovery.Discover(docs)
	}
	sugg := r.SuggestIndexes(3, 0.5)
	b.ReportMetric(float64(len(r.Flavors)), "flavors")
	if len(sugg) > 0 {
		b.ReportMetric(sugg[0].Score, "top-index-score")
	}
}
