// Package core's tests are the cross-module integration suite: every
// path through the facade exercises at least two internal packages.
package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/joi"
	"repro/internal/jsonschema"
	"repro/internal/jsonvalue"
	"repro/internal/sparkinfer"
	"repro/internal/typelang"
)

func TestParseMarshalRoundTrip(t *testing.T) {
	v, err := ParseString(`{"a": [1, 2], "b": null}`)
	if err != nil {
		t.Fatal(err)
	}
	text := string(MarshalIndent(v, "  "))
	if !strings.Contains(text, "\n") {
		t.Error("indent missing")
	}
	if back, err := ParseString(text); err != nil || !jsonvalue.Equal(back, v) {
		t.Errorf("round trip of %s = %v, %v", text, back, err)
	}
}

func TestValidatorsAgreeOnSimpleContract(t *testing.T) {
	// The same contract expressed in all three schema languages plus an
	// inferred type must agree on clearly-valid and clearly-invalid
	// documents — §2's comparison, executable.
	jsonSchemaDoc, _ := ParseString(`{
		"type": "object",
		"properties": {
			"id": {"type": "integer"},
			"name": {"type": "string"}
		},
		"required": ["id", "name"],
		"additionalProperties": false
	}`)
	js, err := CompileJSONSchema(jsonSchemaDoc)
	if err != nil {
		t.Fatal(err)
	}
	jsoundDoc, _ := ParseString(`{"!id": "integer", "!name": "string"}`)
	jd, err := CompileJSound(jsoundDoc)
	if err != nil {
		t.Fatal(err)
	}
	jv := WrapJoi(joi.Object().Keys(joi.K{
		"id":   joi.Number().Integer().Required(),
		"name": joi.String().Required(),
	}))
	good, _ := ParseString(`{"id": 1, "name": "x"}`)
	bad1, _ := ParseString(`{"id": "1", "name": "x"}`)
	bad2, _ := ParseString(`{"id": 1}`)
	bad3, _ := ParseString(`{"id": 1, "name": "x", "extra": true}`)
	for _, val := range []Validator{js, jd, jv} {
		if !val.Accepts(good) {
			t.Errorf("%s rejected valid doc: %v", val.Name(), val.Explain(good))
		}
		for i, bad := range []*Value{bad1, bad2, bad3} {
			if val.Accepts(bad) {
				t.Errorf("%s accepted invalid doc %d", val.Name(), i)
			}
			if len(val.Explain(bad)) == 0 {
				t.Errorf("%s gave no explanation for doc %d", val.Name(), i)
			}
		}
	}
}

func TestInferSchemaEngines(t *testing.T) {
	docs := genjson.Collection(genjson.TypeDrift{Seed: 101}, 150)
	results := map[Engine]*Inference{}
	for _, e := range []Engine{ParametricK, ParametricL, Spark, Skinfer} {
		inf, err := InferSchema(docs, e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if inf.Type == nil || inf.JSONSchema() == nil {
			t.Fatalf("%v: missing outputs", e)
		}
		if inf.Size() <= 0 {
			t.Fatalf("%v: size %d", e, inf.Size())
		}
		results[e] = inf
	}
	// The tutorial's precision ordering on drifting data.
	if !(results[ParametricL].Precision > results[Spark].Precision) {
		t.Errorf("precision: parametric-L %.3f should beat spark %.3f",
			results[ParametricL].Precision, results[Spark].Precision)
	}
	// Parametric JSON Schemas validate their own collection.
	v, err := CompileJSONSchema(results[ParametricL].JSONSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		if !v.Accepts(d) {
			t.Fatalf("doc %d rejected by inferred schema", i)
		}
	}
}

func TestInferredTypeValidatorAndCodegen(t *testing.T) {
	docs := genjson.Collection(genjson.GitHub{Seed: 102}, 100)
	inf, err := InferSchema(docs, ParametricL)
	if err != nil {
		t.Fatal(err)
	}
	val := WrapType(inf.Type)
	if val.Name() != "typelang" {
		t.Error("wrong name")
	}
	for _, d := range docs {
		if !val.Accepts(d) {
			t.Fatal("inferred type rejects its own doc")
		}
	}
	foreign, _ := ParseString(`{"alien": true}`)
	if val.Accepts(foreign) {
		t.Error("foreign doc accepted")
	}
	if len(val.Explain(foreign)) == 0 {
		t.Error("no explanation")
	}
	ts := TypeToTypeScript("Event", inf.Type)
	sw := TypeToSwift("Event", inf.Type)
	if !strings.Contains(ts, "interface") || !strings.Contains(sw, "struct") {
		t.Error("codegen outputs look wrong")
	}
}

func TestJSONSchemaTypeRoundTrip(t *testing.T) {
	docs := genjson.Collection(genjson.NestedArrays{Seed: 103}, 60)
	inf, err := InferSchema(docs, ParametricL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := jsonschema.Compile(inf.JSONSchema())
	if err != nil {
		t.Fatal(err)
	}
	back := jsonschema.ToType(s)
	// The round trip may widen, never narrow: every doc still matches.
	for i, d := range docs {
		if !back.Matches(d) {
			t.Fatalf("doc %d lost in schema->type round trip", i)
		}
	}
}

func TestAnalyzeStreaming(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 104}, 50)
	report := AnalyzeStreaming(docs)
	count, _ := report.Get("count")
	if count.Int() != 50 {
		t.Errorf("report count = %v", count)
	}
	fields, _ := report.Get("fields")
	if fields.Len() == 0 {
		t.Error("empty field report")
	}
}

func TestTranslateRoundTrips(t *testing.T) {
	docs := genjson.Collection(genjson.Orders{Seed: 105}, 80)
	tr, err := Translate(docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.RowBinary) >= len(tr.RawJSON) {
		t.Errorf("row binary %d should be smaller than JSON %d", len(tr.RowBinary), len(tr.RawJSON))
	}
	fromRows, err := RestoreRows(tr)
	if err != nil {
		t.Fatal(err)
	}
	fromCols, err := RestoreColumnar(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		if !jsonvalue.Equal(docs[i], fromRows[i]) {
			t.Fatalf("row round trip lost doc %d", i)
		}
		if !jsonvalue.Equal(docs[i], fromCols[i]) {
			t.Fatalf("columnar round trip lost doc %d", i)
		}
	}
}

func TestEngineString(t *testing.T) {
	names := map[Engine]string{
		ParametricK: "parametric-K", ParametricL: "parametric-L",
		Spark: "spark", Skinfer: "skinfer", Engine(99): "unknown",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("Engine(%d).String() = %q", e, e.String())
		}
	}
	if _, err := InferSchema(nil, Engine(99)); err == nil {
		t.Error("unknown engine should error")
	}
}

// TestSharedAtomsStayImmutable: a seal shares one node per atom kind
// among all atoms counted once, so every consumer of a sealed schema
// must treat it as immutable. Every fixture is sealed under K and L and
// run through Simplify, MergeAll with the previous fixture's type, the
// JSON Schema and Spark projections and both code generators; afterwards
// every shared atom still reads its kind and count 1, and every sealed
// schema renders as it did before.
func TestSharedAtomsStayImmutable(t *testing.T) {
	kinds := []typelang.Kind{typelang.KNull, typelang.KBool, typelang.KInt, typelang.KNum, typelang.KStr, typelang.KAny}
	shared := make([]*typelang.Type, len(kinds))
	for i, k := range kinds {
		once := func() *typelang.Type {
			a := typelang.NewAccum(typelang.EquivLabel)
			a.Absorb(typelang.Atom(k, 1))
			return a.Seal()
		}
		shared[i] = once()
		if s := once(); s != shared[i] || s.Kind != k || s.Count != 1 {
			t.Fatalf("%s counted once: two seals give %s(%d) and %s(%d), not one shared node", k, shared[i].Kind, shared[i].Count, s.Kind, s.Count)
		}
	}

	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures under testdata: %v", err)
	}
	type sealed struct {
		name           string
		t              *typelang.Type
		plain, counted string
	}
	var seals []sealed
	for _, engine := range []Engine{ParametricK, ParametricL} {
		eq, _ := equivFor(engine)
		var prev *typelang.Type
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			inf, _, err := InferSchemaStreamWith(bytes.NewReader(data), engine, StreamOptions{})
			if err != nil {
				t.Fatalf("%s %s: %v", p, engine, err)
			}
			s := inf.Type
			seals = append(seals, sealed{p + " " + engine.String(), s, s.String(), s.StringCounted()})
			_ = typelang.Simplify(s).StringCounted()
			if prev != nil {
				_ = typelang.Merge(prev, s, eq).StringCounted()
				_ = typelang.MergeAll([]*typelang.Type{s, prev, s}, eq).StringCounted()
			}
			_ = MarshalIndent(jsonschema.FromType(s), "")
			_ = sparkinfer.FromType(s).ToTypelang().String()
			_ = TypeToTypeScript("Root", s)
			_ = TypeToSwift("Root", s)
			prev = s
		}
	}
	for i, at := range shared {
		if at.Kind != kinds[i] || at.Count != 1 || at.Fields != nil || at.Elem != nil || at.Alts != nil {
			t.Errorf("the shared %s atom changed: %+v", kinds[i], *at)
		}
	}
	for _, s := range seals {
		if s.t.String() != s.plain || s.t.StringCounted() != s.counted {
			t.Errorf("%s: the sealed schema changed under its consumers", s.name)
		}
	}
}
