package fadjs

import (
	"testing"
	"testing/quick"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

func TestDecodeEquivalentToGeneric(t *testing.T) {
	// Property (per docs/EXPERIMENTS.md, E7): fadjs decode == generic
	// parse, across generators, including after the shape cache warms up.
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 41},
		genjson.GitHub{Seed: 42},
		genjson.SkewedOptional{Seed: 43},
		genjson.TypeDrift{Seed: 44},
	}
	for _, g := range gens {
		d := NewDecoder()
		docs := genjson.Collection(g, 150)
		for i, doc := range docs {
			raw := jsontext.Marshal(doc)
			got, err := d.Decode(raw)
			if err != nil {
				t.Fatalf("%s doc %d: %v", g.Name(), i, err)
			}
			if !jsonvalue.Equal(got, doc) {
				t.Fatalf("%s doc %d: decode mismatch", g.Name(), i)
			}
		}
	}
}

func TestConstantShapeStreamHitsCache(t *testing.T) {
	d := NewDecoder()
	// Constant-structure stream: identical field layout every record.
	for i := 0; i < 100; i++ {
		doc := jsonvalue.ObjectFromPairs("id", i, "name", "x", "flag", i%2 == 0)
		raw := jsontext.Marshal(doc)
		got, err := d.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !jsonvalue.Equal(got, doc) {
			t.Fatalf("doc %d mismatch", i)
		}
	}
	if d.Deopts != 1 {
		t.Errorf("deopts = %d, want exactly 1 (first record learns)", d.Deopts)
	}
	if d.Hits != 99 {
		t.Errorf("hits = %d, want 99", d.Hits)
	}
}

func TestValueKindDriftDoesNotDeopt(t *testing.T) {
	// Per-property speculation: a changed value KIND within the same
	// key layout stays on the fast path via the generic sub-scanner.
	d := NewDecoder()
	docs := []string{
		`{"a":1,"b":"x"}`,
		`{"a":2,"b":"y"}`,
		`{"a":"now a string","b":"z"}`,
	}
	for _, raw := range docs {
		got, err := d.Decode([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		want := jsontext.MustParse(raw)
		if !jsonvalue.Equal(got, want) {
			t.Fatalf("mismatch on %s", raw)
		}
	}
	if d.Deopts != 1 {
		t.Errorf("deopts = %d, want 1 (kind drift should not deopt)", d.Deopts)
	}
}

func TestShapeChurnDeopts(t *testing.T) {
	d := NewDecoder()
	shapes := []string{
		`{"a":1}`, `{"b":1}`, `{"c":1}`, `{"d":1}`, `{"e":1}`, `{"f":1}`,
	}
	// More distinct shapes than cache slots: every record deopts.
	for round := 0; round < 3; round++ {
		for _, raw := range shapes {
			if _, err := d.Decode([]byte(raw)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d.Hits != 0 {
		t.Errorf("hits = %d, want 0 under cache-exceeding churn", d.Hits)
	}
}

func TestPolymorphicCacheHolds(t *testing.T) {
	// Up to maxShapes layouts alternate: all should hit after warm-up.
	d := NewDecoder()
	shapes := []string{
		`{"a":1}`, `{"b":2,"c":3}`, `{"d":"x"}`,
	}
	for round := 0; round < 10; round++ {
		for _, raw := range shapes {
			got, err := d.Decode([]byte(raw))
			if err != nil {
				t.Fatal(err)
			}
			if !jsonvalue.Equal(got, jsontext.MustParse(raw)) {
				t.Fatal("mismatch")
			}
		}
	}
	if d.Deopts != len(shapes) {
		t.Errorf("deopts = %d, want %d (one per layout)", d.Deopts, len(shapes))
	}
}

func TestProjectionSkipsUnusedFields(t *testing.T) {
	d := NewDecoder("id", "lang")
	docs := genjson.Collection(genjson.Twitter{Seed: 45}, 80)
	for i, doc := range docs {
		raw := jsontext.Marshal(doc)
		got, err := d.Decode(raw)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if got.Len() > 2 {
			t.Fatalf("doc %d: projection returned %d fields", i, got.Len())
		}
		wantID, _ := doc.Get("id")
		gotID, ok := got.Get("id")
		if !ok || !jsonvalue.Equal(gotID, wantID) {
			t.Fatalf("doc %d: id wrong", i)
		}
		wantLang, _ := doc.Get("lang")
		gotLang, _ := got.Get("lang")
		if !jsonvalue.Equal(gotLang, wantLang) {
			t.Fatalf("doc %d: lang wrong", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	d := NewDecoder()
	for _, bad := range []string{``, `[1]`, `"s"`, `{"a":`, `{"a":1}trailing`} {
		if _, err := d.Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", bad)
		}
	}
}

func TestDecodeWithEscapedKeysStaysGeneric(t *testing.T) {
	d := NewDecoder()
	raw := `{"a\"b": 1}`
	for i := 0; i < 5; i++ {
		got, err := d.Decode([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		if !jsonvalue.Equal(got, jsontext.MustParse(raw)) {
			t.Fatal("mismatch")
		}
	}
	if d.Hits != 0 {
		t.Error("escaped keys must not enter the fast path")
	}
}

func TestSkipValue(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{`"str" rest`, 5},
		{`"a\"b",`, 6},
		{`12.5e3,`, 6},
		{`true,`, 4},
		{`null]`, 4},
		{`{"a":[1,{"b":2}]} tail`, 17},
		{`[1,"]",{}],`, 10},
	}
	for _, c := range cases {
		got, ok := skipValue([]byte(c.in), 0)
		if !ok || got != c.want {
			t.Errorf("skipValue(%q) = %d,%v want %d", c.in, got, ok, c.want)
		}
	}
	for _, bad := range []string{`"unterminated`, `{"a":1`, `[1,2`, ``} {
		if _, ok := skipValue([]byte(bad), 0); ok {
			t.Errorf("skipValue(%q) succeeded", bad)
		}
	}
}

func TestDecodeQuickEquivalence(t *testing.T) {
	g := genjson.GitHub{Seed: 46}
	d := NewDecoder()
	f := func(i uint16) bool {
		doc := g.Generate(int(i % 400))
		got, err := d.Decode(jsontext.Marshal(doc))
		if err != nil {
			return false
		}
		return jsonvalue.Equal(got, doc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestEncoderEquivalenceAndHits(t *testing.T) {
	e := NewEncoder()
	docs := genjson.Collection(genjson.Orders{Seed: 47}, 100)
	for i, doc := range docs {
		got := e.Encode(nil, doc)
		want := jsontext.Marshal(doc)
		if string(got) != string(want) {
			t.Fatalf("doc %d: %s != %s", i, got, want)
		}
	}
	if e.Hits == 0 {
		t.Error("encoder cache never hit on a near-constant stream")
	}
	// Non-objects pass through.
	arr := jsontext.MustParse(`[1,2]`)
	if string(e.Encode(nil, arr)) != `[1,2]` {
		t.Error("non-object encode wrong")
	}
}

func TestEncoderEscapedKeys(t *testing.T) {
	e := NewEncoder()
	doc := jsonvalue.NewObject(jsonvalue.Field{Name: `a"b`, Value: jsonvalue.NewInt(1)})
	for i := 0; i < 3; i++ {
		got := e.Encode(nil, doc)
		if string(got) != `{"a\"b":1}` {
			t.Fatalf("escaped-key encode = %s", got)
		}
	}
}

func TestEncoderEmptyObject(t *testing.T) {
	e := NewEncoder()
	empty := jsonvalue.NewObject()
	for i := 0; i < 2; i++ {
		if got := e.Encode(nil, empty); string(got) != "{}" {
			t.Fatalf("empty encode = %s", got)
		}
	}
}
