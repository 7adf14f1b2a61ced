package discovery

import (
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

func TestClassifyString(t *testing.T) {
	cases := map[string]SemanticClass{
		"2019-03-26":           SemDate,
		"2019-03-26T10:00:00Z": SemDateTime,
		"https://edbt.org/x":   SemURL,
		"42":                   SemNumeric,
		"-3.5":                 SemNumeric,
		"user_123":             SemID,
		"ds-000042":            SemID,
		"a longer free text":   SemText,
		"":                     SemText,
	}
	for in, want := range cases {
		if got := ClassifyString(in); got != want {
			t.Errorf("ClassifyString(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFlavorsSeparateEventTypes(t *testing.T) {
	docs := genjson.Collection(genjson.GitHub{Seed: 131}, 600)
	r := Discover(docs)
	if r.TotalDocs != 600 {
		t.Errorf("TotalDocs = %d", r.TotalDocs)
	}
	// GitHub events: six layouts (plus payload substructure, which the
	// top-level signature ignores) — but the "type" field's semantic
	// class is the same, so flavors come from payload presence/shape.
	if len(r.Flavors) < 2 {
		t.Errorf("flavors = %d, want several", len(r.Flavors))
	}
	// Flavors ordered by support, cover the whole collection.
	total := 0
	for _, fl := range r.Flavors {
		total += fl.Count
		if fl.Example == nil {
			t.Error("flavor without example")
		}
	}
	if total != 600 {
		t.Errorf("flavor counts sum to %d", total)
	}
	if r.Flavors[0].Count < r.Flavors[len(r.Flavors)-1].Count {
		t.Error("flavors not sorted by support")
	}
}

func TestFieldStatistics(t *testing.T) {
	docs := []*jsonvalue.Value{
		jsontext.MustParse(`{"id": 1, "city": "paris"}`),
		jsontext.MustParse(`{"id": 2, "city": "paris"}`),
		jsontext.MustParse(`{"id": 3}`),
	}
	r := Discover(docs)
	id, ok := field(r, "id")
	if !ok || id.Count != 3 || id.Distinct != 3 {
		t.Fatalf("id stats = %+v", id)
	}
	if id.Selectivity() != 1.0 || id.Support(r.TotalDocs) != 1.0 {
		t.Errorf("id support/selectivity = %v/%v", id.Support(3), id.Selectivity())
	}
	city, _ := field(r, "city")
	if city.Count != 2 || city.Distinct != 1 {
		t.Fatalf("city stats = %+v", city)
	}
	if got := city.Selectivity(); got != 0.5 {
		t.Errorf("city selectivity = %v", got)
	}
}

// field is the statistics of path in r's Fields.
func field(r *Report, path string) (*FieldInfo, bool) {
	for _, f := range r.Fields {
		if f.Path == path {
			return f, true
		}
	}
	return nil, false
}

func TestSuggestIndexes(t *testing.T) {
	// order_id is unique and always present: the top suggestion.
	// customer_city is low-selectivity; description-like text fields
	// are penalised.
	docs := genjson.Collection(genjson.Orders{Seed: 132, Customers: 10}, 400)
	r := Discover(docs)
	sugg := r.SuggestIndexes(3, 0.5)
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	if sugg[0].Path != "order_id" {
		t.Errorf("top suggestion = %+v, want order_id", sugg[0])
	}
	for _, s := range sugg {
		if s.Score <= 0 || s.Reason == "" {
			t.Errorf("bad suggestion %+v", s)
		}
		if strings.Contains(s.Path, "[]") {
			t.Errorf("array path suggested: %s", s.Path)
		}
	}
	// A date column beats a 10-value city column on selectivity.
	var cityScore, dateScore float64
	for _, s := range r.SuggestIndexes(100, 0.5) {
		switch s.Path {
		case "customer_city":
			cityScore = s.Score
		case "date":
			dateScore = s.Score
		}
	}
	if dateScore <= cityScore {
		t.Errorf("date (%v) should outrank city (%v)", dateScore, cityScore)
	}
}

func TestFreeTextPenalty(t *testing.T) {
	docs := genjson.Collection(genjson.OpenData{Seed: 133}, 300)
	r := Discover(docs)
	all := r.SuggestIndexes(100, 0.9)
	rank := map[string]int{}
	for i, s := range all {
		rank[s.Path] = i
	}
	// identifier (unique id) must outrank description (free text),
	// even though both are always present and distinct.
	if rank["identifier"] >= rank["description"] {
		t.Errorf("identifier rank %d should beat description rank %d",
			rank["identifier"], rank["description"])
	}
}

func TestSemanticRefinementInSignature(t *testing.T) {
	// Same structure, different string semantics -> different flavors.
	docs := []*jsonvalue.Value{
		jsontext.MustParse(`{"when": "2020-01-01"}`),
		jsontext.MustParse(`{"when": "sometime soon maybe later"}`),
	}
	r := Discover(docs)
	if len(r.Flavors) != 2 {
		t.Errorf("semantic refinement should split flavors, got %d", len(r.Flavors))
	}
}
