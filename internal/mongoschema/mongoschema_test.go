package mongoschema

import (
	"math"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
)

func analyzeAll(a *Analyzer, docs ...string) {
	for _, d := range docs {
		a.Analyze(jsontext.MustParse(d))
	}
}

func TestFieldCountsAndProbability(t *testing.T) {
	a := NewAnalyzer()
	analyzeAll(a,
		`{"a": 1, "b": "x"}`,
		`{"a": 2}`,
		`{"a": "drift", "b": "y"}`,
		`{"a": 4}`,
	)
	fields := a.Fields()
	byPath := map[string]*FieldStats{}
	for _, f := range fields {
		byPath[f.Path] = f
	}
	if byPath["a"].Count != 4 {
		t.Errorf("a count = %d", byPath["a"].Count)
	}
	if got := byPath["b"].Probability(4); got != 0.5 {
		t.Errorf("b probability = %v, want 0.5", got)
	}
	// a's histogram: Number:3, String:1 (sorted by count desc).
	ts := byPath["a"].Types
	if len(ts) != 2 || ts[0].Name != "Number" || ts[0].Count != 3 || ts[1].Name != "String" {
		t.Errorf("a types = %+v", ts)
	}
}

func TestNestedDocumentProbabilities(t *testing.T) {
	a := NewAnalyzer()
	analyzeAll(a,
		`{"user": {"name": "x", "loc": "paris"}}`,
		`{"user": {"name": "y"}}`,
		`{"other": 1}`,
	)
	byPath := map[string]*FieldStats{}
	for _, f := range a.Fields() {
		byPath[f.Path] = f
	}
	// user.name present in every user document (2 of them).
	schema := a.Schema()
	fieldsArr, _ := schema.Get("fields")
	var nameProb, locProb float64 = -1, -1
	for _, f := range fieldsArr.Elems() {
		n, _ := f.Get("name")
		p, _ := f.Get("probability")
		switch n.Str() {
		case "user.name":
			nameProb = p.Num()
		case "user.loc":
			locProb = p.Num()
		}
	}
	if nameProb != 1.0 {
		t.Errorf("user.name probability = %v, want 1 (relative to parent)", nameProb)
	}
	if math.Abs(locProb-0.5) > 1e-9 {
		t.Errorf("user.loc probability = %v, want 0.5", locProb)
	}
}

func TestArrayElementPaths(t *testing.T) {
	a := NewAnalyzer()
	analyzeAll(a,
		`{"tags": ["x", "y"]}`,
		`{"tags": [1]}`,
	)
	byPath := map[string]*FieldStats{}
	for _, f := range a.Fields() {
		byPath[f.Path] = f
	}
	el := byPath["tags[]"]
	if el == nil || el.Count != 3 {
		t.Fatalf("tags[] stats = %+v", el)
	}
	if len(el.Types) != 2 {
		t.Errorf("tags[] types = %+v", el.Types)
	}
}

func TestNestedRecordsInsideArrays(t *testing.T) {
	a := NewAnalyzer()
	analyzeAll(a,
		`{"items": [{"sku": 1}, {"sku": 2, "gift": true}]}`,
	)
	byPath := map[string]*FieldStats{}
	for _, f := range a.Fields() {
		byPath[f.Path] = f
	}
	if byPath["items[].sku"] == nil || byPath["items[].sku"].Count != 2 {
		t.Errorf("items[].sku missing or wrong: %+v", byPath["items[].sku"])
	}
	if byPath["items[].gift"] == nil || byPath["items[].gift"].Count != 1 {
		t.Errorf("items[].gift missing or wrong")
	}
}

func TestSampleLimit(t *testing.T) {
	a := NewAnalyzer()
	for i := 0; i < 50; i++ {
		a.Analyze(jsontext.MustParse(`{"x": 1}`))
	}
	fs := a.Fields()[0]
	if len(fs.Types[0].Samples) != SampleLimit {
		t.Errorf("samples = %d, want %d", len(fs.Types[0].Samples), SampleLimit)
	}
}

func TestSchemaIsValidJSON(t *testing.T) {
	a := NewAnalyzer()
	for _, d := range genjson.Collection(genjson.Twitter{Seed: 1}, 50) {
		a.Analyze(d)
	}
	out := jsontext.Marshal(a.Schema())
	if _, err := jsontext.Parse(out); err != nil {
		t.Fatalf("schema not parseable: %v", err)
	}
	if a.SchemaSize() != len(out) {
		t.Error("SchemaSize inconsistent")
	}
}

func TestMergedConciseVersusShapeCollectorGrowth(t *testing.T) {
	// E4's claim in miniature: on a skewed-optional collection the
	// merged analyzer report stays near-constant while the no-merge
	// (Studio 3T-like) report keeps growing with distinct shapes.
	g := genjson.SkewedOptional{Seed: 5, NumFields: 16}
	small, large := 100, 1000
	sizeAt := func(n int) (merged, unmerged int) {
		a, c := NewAnalyzer(), NewShapeCollector()
		for _, d := range genjson.Collection(g, n) {
			a.Analyze(d)
			c.Analyze(d)
		}
		return a.SchemaSize(), c.SchemaSize()
	}
	m1, u1 := sizeAt(small)
	m2, u2 := sizeAt(large)
	if float64(m2) > float64(m1)*1.5 {
		t.Errorf("merged schema should stay near-constant: %d -> %d", m1, m2)
	}
	if float64(u2) < float64(u1)*2 {
		t.Errorf("no-merge schema should keep growing: %d -> %d", u1, u2)
	}
}

func TestShapeCollectorDistinctShapes(t *testing.T) {
	c := NewShapeCollector()
	for _, d := range []string{
		`{"a": 1}`, `{"a": 2}`, // same shape
		`{"a": "s"}`,          // drifted type: new shape
		`{"a": 1, "b": true}`, // new field set: new shape
	} {
		c.Analyze(jsontext.MustParse(d))
	}
	if got := c.DistinctShapes(); got != 3 {
		t.Errorf("distinct shapes = %d, want 3", got)
	}
	schema := c.Schema()
	shapes, _ := schema.Get("shapes")
	if shapes.Len() != 3 {
		t.Errorf("schema shapes = %d", shapes.Len())
	}
}
