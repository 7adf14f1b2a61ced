package translate

import (
	"testing"
	"testing/quick"

	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

func inferSchema(docs []*jsonvalue.Value) *typelang.Type {
	return infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
}

func TestRowRoundTripAtoms(t *testing.T) {
	cases := []struct {
		doc    string
		schema *typelang.Type
	}{
		{`null`, typelang.Null},
		{`true`, typelang.Bool},
		{`-42`, typelang.Int},
		{`3.25`, typelang.Num},
		{`7`, typelang.Num}, // Int value under Num schema
		{`"héllo"`, typelang.Str},
		{`[1, 2, 3]`, typelang.NewArray(typelang.Int)},
		{`[]`, typelang.NewArray(typelang.Int)},
		{`{"x": [1]}`, typelang.Any},
	}
	for _, c := range cases {
		doc := jsontext.MustParse(c.doc)
		enc, err := EncodeRow(nil, doc, c.schema)
		if err != nil {
			t.Errorf("EncodeRow(%s): %v", c.doc, err)
			continue
		}
		back, rest, err := DecodeRow(enc, c.schema)
		if err != nil || len(rest) != 0 {
			t.Errorf("DecodeRow(%s): %v, %d rest", c.doc, err, len(rest))
			continue
		}
		if !jsonvalue.Equal(doc, back) {
			t.Errorf("round trip of %s: got %v", c.doc, back)
		}
	}
}

func TestRowRecordOptionalFields(t *testing.T) {
	schema := typelang.NewRecord(
		typelang.Field{Name: "a", Type: typelang.Int},
		typelang.Field{Name: "b", Type: typelang.Str, Optional: true},
	)
	for _, doc := range []string{`{"a": 1, "b": "x"}`, `{"a": 2}`} {
		v := jsontext.MustParse(doc)
		enc, err := EncodeRow(nil, v, schema)
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := DecodeRow(enc, schema)
		if err != nil {
			t.Fatal(err)
		}
		if !jsonvalue.Equal(v, back) {
			t.Errorf("round trip of %s failed: %v", doc, back)
		}
	}
	// Missing required field errors.
	if _, err := EncodeRow(nil, jsontext.MustParse(`{"b": "x"}`), schema); err == nil {
		t.Error("missing required field should fail")
	}
}

func TestRowUnion(t *testing.T) {
	schema := typelang.Union(typelang.Null, typelang.Int, typelang.Str)
	for _, doc := range []string{`null`, `5`, `"s"`} {
		v := jsontext.MustParse(doc)
		enc, err := EncodeRow(nil, v, schema)
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := DecodeRow(enc, schema)
		if err != nil {
			t.Fatal(err)
		}
		if !jsonvalue.Equal(v, back) {
			t.Errorf("union round trip of %s failed", doc)
		}
	}
	if _, err := EncodeRow(nil, jsontext.MustParse(`true`), schema); err == nil {
		t.Error("non-member should fail to encode")
	}
}

func TestCollectionRoundTripAllGenerators(t *testing.T) {
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 51},
		genjson.GitHub{Seed: 52},
		genjson.NestedArrays{Seed: 53},
		genjson.Orders{Seed: 54},
		genjson.SkewedOptional{Seed: 55},
	}
	for _, g := range gens {
		docs := genjson.Collection(g, 60)
		schema := inferSchema(docs)
		enc, err := EncodeCollection(docs, schema)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.Name(), err)
		}
		back, err := DecodeCollection(enc, schema)
		if err != nil {
			t.Fatalf("%s: decode: %v", g.Name(), err)
		}
		if len(back) != len(docs) {
			t.Fatalf("%s: %d docs back", g.Name(), len(back))
		}
		for i := range docs {
			if !jsonvalue.Equal(docs[i], back[i]) {
				t.Fatalf("%s: doc %d round trip mismatch", g.Name(), i)
			}
		}
		// The schema-aware binary should be smaller than the JSON text.
		raw := jsontext.MarshalLines(docs)
		if len(enc) >= len(raw) {
			t.Errorf("%s: binary %d >= JSON %d", g.Name(), len(enc), len(raw))
		}
	}
}

func TestColumnarRoundTripAllGenerators(t *testing.T) {
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 61},
		genjson.GitHub{Seed: 62},
		genjson.NestedArrays{Seed: 63},
		genjson.Orders{Seed: 64},
	}
	for _, g := range gens {
		docs := genjson.Collection(g, 60)
		schema := inferSchema(docs)
		cs, err := Shred(docs, schema)
		if err != nil {
			t.Fatalf("%s: shred: %v", g.Name(), err)
		}
		back, err := cs.Reassemble()
		if err != nil {
			t.Fatalf("%s: reassemble: %v", g.Name(), err)
		}
		for i := range docs {
			if !jsonvalue.Equal(docs[i], back[i]) {
				t.Fatalf("%s: doc %d columnar round trip mismatch", g.Name(), i)
			}
		}
	}
}

func TestColumnarQuickRoundTrip(t *testing.T) {
	g := genjson.NestedArrays{Seed: 65}
	f := func(n uint8) bool {
		count := int(n%40) + 1
		docs := genjson.Collection(g, count)
		schema := inferSchema(docs)
		cs, err := Shred(docs, schema)
		if err != nil {
			return false
		}
		back, err := cs.Reassemble()
		if err != nil || len(back) != count {
			return false
		}
		for i := range docs {
			if !jsonvalue.Equal(docs[i], back[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestColumnarScan(t *testing.T) {
	docs := genjson.Collection(genjson.Orders{Seed: 66}, 100)
	schema := inferSchema(docs)
	cs, err := Shred(docs, schema)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	if err := cs.ScanInts("order_id", func(n int64) { sum += n }); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, d := range docs {
		id, _ := d.Get("order_id")
		want += id.Int()
	}
	if sum != want {
		t.Errorf("ScanInts sum = %d, want %d", sum, want)
	}
	if err := cs.ScanInts("no_such_column", func(int64) {}); err == nil {
		t.Error("scan of missing column should fail")
	}
}

func TestColumnarBytesRoundTrip(t *testing.T) {
	docs := genjson.Collection(genjson.GitHub{Seed: 67}, 40)
	schema := inferSchema(docs)
	cs, err := Shred(docs, schema)
	if err != nil {
		t.Fatal(err)
	}
	blob := cs.Bytes()
	cs2, err := FromBytes(blob, schema)
	if err != nil {
		t.Fatal(err)
	}
	back, err := cs2.Reassemble()
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		if !jsonvalue.Equal(docs[i], back[i]) {
			t.Fatalf("doc %d blob round trip mismatch", i)
		}
	}
}

func TestShredRejectsNonMatchingDoc(t *testing.T) {
	schema := typelang.NewRecord(typelang.Field{Name: "a", Type: typelang.Int})
	_, err := Shred([]*jsonvalue.Value{jsontext.MustParse(`{"a": "not int"}`)}, schema)
	if err == nil {
		t.Error("shred of non-matching doc should fail")
	}
}

func TestSchemaAwareBeatsObliviousOnSize(t *testing.T) {
	// The §5 claim head-on: the same row encoder run with the trivial
	// Any schema (schema-oblivious: every value shipped as JSON text)
	// produces strictly larger output than the inferred schema.
	docs := genjson.Collection(genjson.Orders{Seed: 68}, 200)
	aware, err := EncodeCollection(docs, inferSchema(docs))
	if err != nil {
		t.Fatal(err)
	}
	oblivious, err := EncodeCollection(docs, typelang.Any)
	if err != nil {
		t.Fatal(err)
	}
	if len(aware) >= len(oblivious) {
		t.Errorf("schema-aware %d >= oblivious %d", len(aware), len(oblivious))
	}
	// Both still round-trip.
	back, err := DecodeCollection(oblivious, typelang.Any)
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		if !jsonvalue.Equal(docs[i], back[i]) {
			t.Fatalf("oblivious round trip lost doc %d", i)
		}
	}
}

func TestScanNums(t *testing.T) {
	docs := genjson.Collection(genjson.Orders{Seed: 69}, 50)
	cs, err := Shred(docs, inferSchema(docs))
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var sum float64
	if err := cs.ScanNums("lines[].unit_price", func(f float64) { n++; sum += f }); err != nil {
		t.Fatal(err)
	}
	var wantN int
	var wantSum float64
	for _, d := range docs {
		lines, _ := d.Get("lines")
		for _, ln := range lines.Elems() {
			p, _ := ln.Get("unit_price")
			wantN++
			wantSum += p.Num()
		}
	}
	if n != wantN || sum != wantSum {
		t.Errorf("ScanNums = (%d, %v), want (%d, %v)", n, sum, wantN, wantSum)
	}
}

func TestDecodeErrors(t *testing.T) {
	schema := typelang.NewRecord(typelang.Field{Name: "s", Type: typelang.Str})
	if _, _, err := DecodeRow([]byte{0xff}, schema); err == nil {
		t.Error("truncated row should fail")
	}
	if _, err := DecodeCollection([]byte{0x05, 0x01}, schema); err == nil {
		t.Error("truncated collection should fail")
	}
	if _, err := FromBytes([]byte{}, schema); err == nil {
		t.Error("empty blob should fail")
	}
}
