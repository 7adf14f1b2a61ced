package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/joi"
	"repro/internal/jsonschema"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/jsound"
	"repro/internal/normalize"
	"repro/internal/profile"
	"repro/internal/skeleton"
	"repro/internal/translate"
	"repro/internal/typelang"
)

// E8SkeletonCoverage sweeps the support threshold.
func E8SkeletonCoverage() *Table {
	t := &Table{
		ID:     "E8",
		Title:  "skeleton size and coverage vs support threshold",
		Claim:  "skeletons are small summaries that may totally miss rare paths (§2 [24])",
		Header: []string{"min_support", "skeleton_paths", "structures", "path_coverage", "doc_coverage"},
	}
	docs := genjson.Collection(genjson.Twitter{Seed: 21, OptionalP: 0.4, RetweetP: 0.05}, 2000)
	for _, sup := range []float64{0.001, 0.01, 0.1, 0.3, 0.6, 0.9} {
		sk := skeleton.Build(docs, sup)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", sup), d(sk.Size()), d(len(sk.Structures)),
			f3(sk.Coverage(docs)), f3(sk.DocCoverage(docs)),
		})
	}
	return t
}

// E9ValidatorThroughput races the three schema languages on the same
// contract and corpus, and prints the capability matrix behind the
// numbers.
func E9ValidatorThroughput() *Table {
	t := &Table{
		ID:     "E9",
		Title:  "validator throughput: JSON Schema vs Joi vs JSound",
		Claim:  "same data, different capability/performance envelopes (§2)",
		Header: []string{"validator", "docs/s", "valid_docs", "of", "capabilities"},
	}
	docs := genjson.Collection(genjson.OpenData{Seed: 22}, 4000)

	jsDoc := jsontext.MustParse(`{
		"type": "object",
		"properties": {
			"identifier": {"type": "string", "pattern": "^ds-"},
			"title": {"type": "string"},
			"description": {"type": "string"},
			"accessLevel": {"enum": ["public", "restricted"]},
			"modified": {"type": "string"},
			"keyword": {"type": "array", "items": {"type": "string"}, "minItems": 1},
			"publisher": {"type": "object", "properties": {"name": {"type": "string"}}, "required": ["name"]},
			"temporal": {"type": "string"},
			"spatial": {"type": "string"},
			"distribution": {"type": "array", "items": {
				"type": "object",
				"properties": {"mediaType": {"type": "string"}, "downloadURL": {"type": "string"}},
				"required": ["mediaType"]
			}}
		},
		"required": ["identifier", "title", "accessLevel"]
	}`)
	js := jsonschema.MustCompile(jsDoc)

	jv := joi.Object().Unknown(true).Keys(joi.K{
		"identifier":  joi.String().Pattern("^ds-").Required(),
		"title":       joi.String().Required(),
		"accessLevel": joi.String().Valid("public", "restricted").Required(),
		"keyword":     joi.Array().Items(joi.String()).Min(1),
		"publisher":   joi.Object().Unknown(true).Keys(joi.K{"name": joi.String().Required()}),
	})

	jd := jsound.MustCompile(jsontext.MustParse(`{
		"!identifier": "string",
		"!title": "string",
		"description": "string",
		"!accessLevel": "string",
		"modified": "dateTime",
		"keyword": ["string"],
		"publisher": {"!name": "string"},
		"temporal": "string",
		"spatial": "string",
		"distribution": [{"!mediaType": "string", "downloadURL": "anyURI"}]
	}`))
	run := func(name string, accepts func(*jsonvalue.Value) bool, caps string) {
		start := time.Now()
		ok := 0
		for _, doc := range docs {
			if accepts(doc) {
				ok++
			}
		}
		elapsed := time.Since(start)
		persec := float64(len(docs)) / elapsed.Seconds()
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%.0f", persec), d(ok), d(len(docs)), caps,
		})
	}
	run("jsonschema", js.Accepts, "unions+negation+patterns+refs")
	run("joi", jv.Accepts, "objects+cooccurrence+when")
	run("jsound", jd.Accepts, "closed records, lexical types")
	return t
}

// E10SchemaTranslation compares raw JSON with schema-driven row binary
// and columnar encodings, and column scans against JSON re-parsing.
func E10SchemaTranslation() *Table {
	t := &Table{
		ID:     "E10",
		Title:  "schema-based translation: sizes and scan time",
		Claim:  "schemas improve data format conversion (§5 [1][2])",
		Header: []string{"measure", "raw_json", "row_binary", "columnar"},
	}
	docs := genjson.Collection(genjson.Orders{Seed: 23}, 3000)
	schema := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
	raw := jsontext.MarshalLines(docs)
	rows, err := translate.EncodeCollection(docs, schema)
	if err != nil {
		panic(err)
	}
	cs, err := translate.Shred(docs, schema)
	if err != nil {
		panic(err)
	}
	blob := cs.Bytes()
	t.Rows = append(t.Rows, []string{"size_bytes", d(len(raw)), d(len(rows)), d(len(blob))})
	t.Rows = append(t.Rows, []string{
		"size_ratio", "1.00",
		f2(float64(len(rows)) / float64(len(raw))),
		f2(float64(len(blob)) / float64(len(raw))),
	})
	// Scan: sum order_id over the collection.
	jsonStart := time.Now()
	var jsonSum int64
	lines, _ := jsontext.ParseLines(raw)
	for _, doc := range lines {
		id, _ := doc.Get("order_id")
		jsonSum += id.Int()
	}
	jsonScan := time.Since(jsonStart)
	colStart := time.Now()
	var colSum int64
	if err := cs.ScanInts("order_id", func(n int64) { colSum += n }); err != nil {
		panic(err)
	}
	colScan := time.Since(colStart)
	if colSum != jsonSum {
		panic("scan sums diverge")
	}
	t.Rows = append(t.Rows, []string{"scan_order_id", ms(jsonScan), "-", ms(colScan)})
	t.Rows = append(t.Rows, []string{
		"scan_speedup", "1.00", "-",
		f2(float64(jsonScan) / float64(colScan)),
	})
	return t
}

// E11Normalization runs the FD pipeline on denormalised orders.
func E11Normalization() *Table {
	t := &Table{
		ID:     "E11",
		Title:  "FD-driven normalisation of denormalised JSON",
		Claim:  "schema generation learns relational structure from value patterns (§4.1 [16])",
		Header: []string{"relation", "flat_cells", "normalized_cells", "dimensions", "dim_rows"},
	}
	docs := genjson.Collection(genjson.Orders{Seed: 24, Customers: 40, Products: 80}, 2000)
	rels := normalize.Flatten(docs)
	for _, rel := range rels {
		dec := normalize.Normalize(rel, 10)
		dimRows := 0
		for _, dim := range dec.Dimensions {
			dimRows += len(dim.Rows)
		}
		t.Rows = append(t.Rows, []string{
			rel.Name, d(rel.CellCount()), d(dec.CellCount()),
			d(len(dec.Dimensions)), d(dimRows),
		})
	}
	return t
}

// E13SchemaProfiling recovers planted clusters with a shallow tree.
func E13SchemaProfiling() *Table {
	t := &Table{
		ID:     "E13",
		Title:  "ML-style schema profiling of a mixed collection",
		Claim:  "decision trees explain structural variants (§5 [17])",
		Header: []string{"generators", "docs", "tree_depth", "leaves", "purity"},
	}
	for _, k := range []int{2, 3} {
		gens := []genjson.Generator{
			genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}, genjson.Orders{Seed: 3},
		}[:k]
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = 1
		}
		mix := genjson.Mixture{Seed: 25, Generators: gens, Weights: weights}
		n := 900
		docs := genjson.Collection(mix, n)
		truth := make([]int, n)
		for i := range truth {
			truth[i] = mix.Component(i)
		}
		tree := profile.Build(docs, 4)
		t.Rows = append(t.Rows, []string{
			d(k), d(n), d(tree.Depth), d(tree.NumLeaves), f3(tree.Purity(truth)),
		})
	}
	return t
}

// E14Codegen checks the §3 language mapping over inferred schemas.
func E14Codegen() *Table {
	t := &Table{
		ID:     "E14",
		Title:  "TypeScript/Swift code generation from inferred types",
		Claim:  "record/sequence/union types map into both languages (§3 [8][9])",
		Header: []string{"generator", "ts_lines", "swift_lines", "ts_wellformed", "swift_wellformed", "union_mapped"},
	}
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 26},
		genjson.TypeDrift{Seed: 27},
	}
	for _, g := range gens {
		docs := genjson.Collection(g, 300)
		ty := infer.Infer(docs, infer.Options{Equiv: typelang.EquivKind})
		ts := codegen.TypeScript("Root", ty)
		sw := codegen.Swift("Root", ty)
		tsOK := codegen.CheckBalanced(ts) == nil
		swOK := codegen.CheckBalanced(sw) == nil
		// A union maps if TypeScript's structural `A | B` has a Swift
		// counterpart: an enum with associated values, or an Optional
		// when the union was Null + T.
		unionMapped := !strings.Contains(ts, " | ") ||
			strings.Contains(sw, "enum ") || strings.Contains(sw, "?")
		t.Rows = append(t.Rows, []string{
			g.Name(), d(strings.Count(ts, "\n")), d(strings.Count(sw, "\n")),
			fmt.Sprint(tsOK), fmt.Sprint(swOK), fmt.Sprint(unionMapped),
		})
	}
	return t
}
