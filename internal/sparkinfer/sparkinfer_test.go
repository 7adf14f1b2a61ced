package sparkinfer

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

func TestInferValueAtoms(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`null`, "null"},
		{`true`, "boolean"},
		{`1`, "bigint"},
		{`1.5`, "double"},
		{`"x"`, "string"},
		{`[1,2]`, "array<bigint>"},
		{`{"b":1,"a":"x"}`, "struct<a:string,b:bigint>"}, // fields sorted
	}
	for _, c := range cases {
		got := InferValue(jsontext.MustParse(c.in)).String()
		if got != c.want {
			t.Errorf("InferValue(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestCompatibleTypeWidening(t *testing.T) {
	if got := CompatibleType(longT, doubleT); got.Kind != DoubleType {
		t.Errorf("long+double = %v", got)
	}
	if got := CompatibleType(nullT, boolT); got.Kind != BooleanType {
		t.Errorf("null identity failed: %v", got)
	}
}

func TestCompatibleTypeStringFallback(t *testing.T) {
	// The defining behaviour: incompatible types collapse to string.
	cases := [][2]string{
		{`1`, `"x"`},
		{`true`, `1`},
		{`{"a":1}`, `[1]`},
		{`{"a":1}`, `1`},
		{`[1]`, `"s"`},
	}
	for _, c := range cases {
		a, b := InferValue(jsontext.MustParse(c[0])), InferValue(jsontext.MustParse(c[1]))
		if got := CompatibleType(a, b); got.Kind != StringType {
			t.Errorf("CompatibleType(%s, %s) = %v, want string", c[0], c[1], got)
		}
	}
}

func TestStructMergeAddsNullableColumns(t *testing.T) {
	a := InferValue(jsontext.MustParse(`{"a":1,"b":"x"}`))
	b := InferValue(jsontext.MustParse(`{"a":2,"c":true}`))
	m := CompatibleType(a, b)
	if got := m.String(); got != "struct<a:bigint,b:string,c:boolean>" {
		t.Errorf("struct merge = %s", got)
	}
	for _, f := range m.Fields {
		if !f.Nullable {
			t.Errorf("field %s should be nullable", f.Name)
		}
	}
}

func TestNestedArrayElementMerge(t *testing.T) {
	docs := []string{`{"xs":[{"a":1}]}`, `{"xs":[{"b":"s"}]}`}
	a := InferValue(jsontext.MustParse(docs[0]))
	b := InferValue(jsontext.MustParse(docs[1]))
	m := CompatibleType(a, b)
	if got := m.String(); got != "struct<xs:array<struct<a:bigint,b:string>>>" {
		t.Errorf("nested merge = %s", got)
	}
}

func TestInferFoldMatchesPairwise(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 3}, 100)
	got := Infer(docs)
	acc := InferValue(docs[0])
	for _, d := range docs[1:] {
		acc = CompatibleType(acc, InferValue(d))
	}
	if !Equal(got, acc) {
		t.Error("Infer differs from manual fold")
	}
}

func TestDriftCollapsesToString(t *testing.T) {
	// On a type-drifting collection, drifting columns must become
	// string — the tutorial's imprecision claim.
	docs := genjson.Collection(genjson.TypeDrift{Seed: 7, NumFields: 6, DriftFields: 2}, 200)
	ty := Infer(docs)
	if ty.Kind != StructType {
		t.Fatalf("inferred %v", ty)
	}
	byName := map[string]*DataType{}
	for _, f := range ty.Fields {
		byName[f.Name] = f.Type
	}
	if byName["f00"].Kind != StringType || byName["f01"].Kind != StringType {
		t.Errorf("drifting fields should collapse to string: f00=%v f01=%v", byName["f00"], byName["f01"])
	}
	if byName["f05"].Kind != LongType {
		t.Errorf("stable field should stay bigint: %v", byName["f05"])
	}
}

func TestPrecisionGapVersusParametric(t *testing.T) {
	// E2's claim in miniature: parametric inference is strictly more
	// precise than the Spark schema on heterogeneous data.
	docs := genjson.Collection(genjson.TypeDrift{Seed: 11}, 300)
	spark := Infer(docs).ToTypelang()
	param := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
	ps := typelang.Precision(spark, docs)
	pp := typelang.Precision(param, docs)
	if !(pp > ps) {
		t.Errorf("precision: parametric %.3f should exceed spark %.3f", pp, ps)
	}
}

func TestToTypelangNullability(t *testing.T) {
	if ty := Infer(nil); ty.Kind != NullType {
		t.Errorf("empty collection should infer NullType, got %v", ty)
	}
	d := InferValue(jsontext.MustParse(`{"a":1}`))
	tl := d.ToTypelang()
	if tl.Kind != typelang.KRecord {
		t.Fatalf("got %v", tl)
	}
	fa, _ := tl.Get("a")
	if !fa.Optional {
		t.Error("spark columns are nullable, expected optional field")
	}
	if !fa.Type.Matches(jsontext.MustParse(`null`)) {
		t.Error("nullable column should admit null")
	}
}

// projectionInputs are the edge cases of the projection: duplicate keys
// (the effective, last binding), empty and nested-empty arrays, nulls in
// arrays, empty records, Int against Num, a field that is a struct in one
// document and an array in another, and top-level scalars.
var projectionInputs = []string{
	`{"a":1,"a":"x"}` + "\n" + `{"a":2}`,
	`[]`,
	`[[]]` + "\n" + `[[1.5]]`,
	`[null]` + "\n" + `[1]`,
	`{}` + "\n" + `{"a":null}`,
	`1` + "\n" + `1.5`,
	`{"a":[1]}` + "\n" + `{"a":{"b":1}}`,
	`{"a":{"b":1}}` + "\n" + `{"a":{"c":"x"}}` + "\n" + `{"a":null}`,
	`1` + "\n" + `"s"` + "\n" + `true` + "\n" + `null`,
	`[1,"s",{"a":1},[2]]`,
}

// assertProjectsToInfer checks that Spark's schema of docs — the bytes
// data, decoded — is FromType of the parametric schema under K and
// under L, from the DOM fold and from the streamed engine at one and two
// workers: equal as Spark types, as Spark DDL and as typelang images.
func assertProjectsToInfer(t *testing.T, label string, data []byte, docs []*jsonvalue.Value) {
	t.Helper()
	want := Infer(docs)
	got := map[string]*DataType{
		"K": FromType(infer.Infer(docs, infer.Options{Equiv: typelang.EquivKind})),
		"L": FromType(infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})),
	}
	for _, w := range []int{1, 2} {
		k, n, err := infer.InferStream(bytes.NewReader(data), infer.Options{Equiv: typelang.EquivKind, Workers: w})
		if err != nil || n != len(docs) {
			t.Fatalf("%s: streamed K at %d workers: %d documents, err %v; the decoder read %d", label, w, n, err, len(docs))
		}
		got[fmt.Sprintf("streamed K, %d workers", w)] = FromType(k)
	}
	for name, g := range got {
		if !Equal(g, want) || g.String() != want.String() || !typelang.Equal(g.ToTypelang(), want.ToTypelang()) {
			t.Errorf("%s: FromType(%s) = %s, Infer = %s", label, name, g, want)
		}
	}
}

// TestFromTypeIsInfer pins the projection: Spark's schema is a function
// of the parametric K (and L) schema, over every fixture, every
// generator at 1, 7 and 500 documents, and the edge cases.
func TestFromTypeIsInfer(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.ndjson")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures under testdata: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		docs, err := jsontext.ParseLines(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		assertProjectsToInfer(t, p, data, docs)
	}
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}, genjson.TypeDrift{Seed: 3},
		genjson.SkewedOptional{Seed: 4}, genjson.NestedArrays{Seed: 5}, genjson.Orders{Seed: 6},
		genjson.OpenData{Seed: 7}, genjson.NYTArticles{Seed: 14}, genjson.Wide{Seed: 15},
		genjson.Sparse{Seed: 16}, genjson.Deep{Seed: 17}, genjson.Fields{Seed: 18},
		genjson.Mixture{Seed: 8, Generators: []genjson.Generator{genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}}, Weights: []float64{1, 1}},
	}
	for _, g := range gens {
		for _, n := range []int{1, 7, 500} {
			docs := genjson.Collection(g, n)
			assertProjectsToInfer(t, fmt.Sprintf("%s×%d", g.Name(), n), jsontext.MarshalLines(docs), docs)
		}
	}
	for _, in := range projectionInputs {
		docs, err := decodeAll(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		assertProjectsToInfer(t, fmt.Sprintf("%q", in), []byte(in), docs)
	}
}

// FuzzSparkFromType holds the projection on arbitrary input: whatever
// the decoder accepts, Spark's fold and FromType of the K and L schemas
// (DOM and streamed) agree.
func FuzzSparkFromType(f *testing.F) {
	for _, in := range projectionInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := decodeAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		assertProjectsToInfer(t, fmt.Sprintf("%q", data), data, docs)
	})
}

// decodeAll decodes every document r holds (NDJSON or concatenated
// JSON).
func decodeAll(r io.Reader) ([]*jsonvalue.Value, error) {
	var docs []*jsonvalue.Value
	dec := jsontext.NewDecoder(r)
	for {
		v, err := dec.Decode()
		if err == io.EOF {
			return docs, nil
		}
		if err != nil {
			return nil, err
		}
		docs = append(docs, v)
	}
}
