package genjson

import (
	"math"
	"strings"
	"testing"

	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

func allGenerators() []Generator {
	return []Generator{
		Twitter{Seed: 1},
		GitHub{Seed: 2},
		TypeDrift{Seed: 3},
		SkewedOptional{Seed: 4},
		NestedArrays{Seed: 5},
		Orders{Seed: 6},
		OpenData{Seed: 7},
		NYTArticles{Seed: 14},
		Wide{Seed: 15},
		Sparse{Seed: 16},
		Deep{Seed: 17},
		Mixture{Seed: 8, Generators: []Generator{Twitter{Seed: 1}, GitHub{Seed: 2}}, Weights: []float64{1, 1}},
	}
}

func TestDeterminism(t *testing.T) {
	for _, g := range allGenerators() {
		for i := 0; i < 20; i++ {
			a, b := g.Generate(i), g.Generate(i)
			if !jsonvalue.Equal(a, b) {
				t.Errorf("%s: document %d not deterministic", g.Name(), i)
				break
			}
		}
	}
}

func TestDocumentsAreObjectsAndSerializable(t *testing.T) {
	for _, g := range allGenerators() {
		docs := Collection(g, 50)
		for i, d := range docs {
			if d.Kind() != jsonvalue.Object {
				t.Fatalf("%s doc %d: kind %s", g.Name(), i, d.Kind())
			}
			out := jsontext.Marshal(d)
			back, err := jsontext.Parse(out)
			if err != nil {
				t.Fatalf("%s doc %d does not round-trip: %v", g.Name(), i, err)
			}
			if !jsonvalue.Equal(d, back) {
				t.Fatalf("%s doc %d round-trip mismatch", g.Name(), i)
			}
		}
	}
}

func TestTwitterHeterogeneity(t *testing.T) {
	docs := Collection(Twitter{Seed: 11, OptionalP: 0.5}, 300)
	withPlace, withRetweet, nullCoords := 0, 0, 0
	for _, d := range docs {
		if d.Has("place") {
			withPlace++
		}
		if d.Has("retweeted_status") {
			withRetweet++
		}
		if c, ok := d.Get("coordinates"); ok && c.Kind() == jsonvalue.Null {
			nullCoords++
		}
	}
	if withPlace == 0 || withPlace == len(docs) {
		t.Errorf("place should be optional: %d/%d", withPlace, len(docs))
	}
	if withRetweet == 0 {
		t.Error("no retweets generated")
	}
	if nullCoords == 0 {
		t.Error("no explicitly-null coordinates generated")
	}
}

func TestTwitterOptionalPKnob(t *testing.T) {
	low := Collection(Twitter{Seed: 1, OptionalP: 0.05}, 200)
	high := Collection(Twitter{Seed: 1, OptionalP: 0.95}, 200)
	count := func(docs []*jsonvalue.Value) int {
		n := 0
		for _, d := range docs {
			if d.Has("place") {
				n++
			}
		}
		return n
	}
	if count(low) >= count(high) {
		t.Errorf("OptionalP knob ineffective: low=%d high=%d", count(low), count(high))
	}
}

func TestGitHubShapeClusters(t *testing.T) {
	docs := Collection(GitHub{Seed: 3}, 400)
	types := map[string]int{}
	for _, d := range docs {
		ty, _ := d.Get("type")
		types[ty.Str()]++
		if !d.Has("payload") {
			t.Fatal("event without payload")
		}
	}
	if len(types) < 5 {
		t.Errorf("expected >=5 event types, got %v", types)
	}
}

func TestTypeDriftDrifts(t *testing.T) {
	docs := Collection(TypeDrift{Seed: 9, NumFields: 8, DriftFields: 2}, 200)
	kinds := map[string]map[jsonvalue.Kind]bool{}
	for _, d := range docs {
		for _, f := range d.Fields() {
			if kinds[f.Name] == nil {
				kinds[f.Name] = map[jsonvalue.Kind]bool{}
			}
			kinds[f.Name][f.Value.Kind()] = true
		}
	}
	if len(kinds["f00"]) < 3 {
		t.Errorf("f00 should drift across >=3 kinds, got %v", kinds["f00"])
	}
	if len(kinds["f05"]) != 1 {
		t.Errorf("f05 should be stable, got %v", kinds["f05"])
	}
}

func TestSkewedOptionalSkew(t *testing.T) {
	docs := Collection(SkewedOptional{Seed: 10, NumFields: 20}, 1000)
	counts := map[string]int{}
	for _, d := range docs {
		for _, f := range d.Fields() {
			counts[f.Name]++
		}
	}
	if counts["k00"] != 1000 {
		t.Errorf("k00 should always appear, got %d", counts["k00"])
	}
	if !(counts["k01"] > counts["k05"] && counts["k05"] > counts["k15"]) {
		t.Errorf("skew not monotone: k01=%d k05=%d k15=%d", counts["k01"], counts["k05"], counts["k15"])
	}
}

func TestNestedArraysShapes(t *testing.T) {
	docs := Collection(NestedArrays{Seed: 12}, 100)
	shapes := map[string]bool{}
	for _, d := range docs {
		items, _ := d.Get("items")
		for _, it := range items.Elems() {
			key := ""
			for _, f := range it.SortFields().Fields() {
				key += f.Name + ","
			}
			shapes[key] = true
		}
	}
	if len(shapes) < 3 {
		t.Errorf("expected >=3 element shapes, got %v", shapes)
	}
}

func TestOrdersFunctionalDependencies(t *testing.T) {
	docs := Collection(Orders{Seed: 13, Customers: 10, Products: 20}, 500)
	custName := map[int64]string{}
	prodPrice := map[int64]float64{}
	for _, d := range docs {
		cid, _ := d.Get("customer_id")
		name, _ := d.Get("customer_name")
		if prev, ok := custName[cid.Int()]; ok && prev != name.Str() {
			t.Fatalf("FD customer_id->name violated for %d", cid.Int())
		}
		custName[cid.Int()] = name.Str()
		lines, _ := d.Get("lines")
		for _, ln := range lines.Elems() {
			sku, _ := ln.Get("sku")
			price, _ := ln.Get("unit_price")
			if prev, ok := prodPrice[sku.Int()]; ok && prev != price.Num() {
				t.Fatalf("FD sku->unit_price violated for %d", sku.Int())
			}
			prodPrice[sku.Int()] = price.Num()
		}
	}
	if len(custName) < 5 {
		t.Error("too few distinct customers")
	}
}

func TestMixtureComponentsAndWeights(t *testing.T) {
	m := Mixture{
		Seed:       20,
		Generators: []Generator{Twitter{Seed: 1}, GitHub{Seed: 2}},
		Weights:    []float64{3, 1},
	}
	counts := [2]int{}
	for i := 0; i < 1000; i++ {
		k := m.Component(i)
		counts[k]++
		// Document must match the component's generator output.
		if !jsonvalue.Equal(m.Generate(i), m.Generators[k].Generate(i)) {
			t.Fatal("Generate does not match Component's generator")
		}
	}
	if counts[0] < counts[1]*2 {
		t.Errorf("weights not respected: %v", counts)
	}
}

func TestNYTArticlesShape(t *testing.T) {
	docs := Collection(NYTArticles{Seed: 15}, 200)
	nullKickers, withMedia, withPrint := 0, 0, 0
	for _, d := range docs {
		h, _ := d.Get("headline")
		if k, ok := h.Get("kicker"); ok && k.Kind() == jsonvalue.Null {
			nullKickers++
		}
		if m, _ := d.Get("multimedia"); m.Len() > 0 {
			withMedia++
		}
		if d.Has("print_page") {
			withPrint++
		}
	}
	if nullKickers == 0 {
		t.Error("expected some null kickers (API realism)")
	}
	if withMedia == 0 || withMedia == len(docs) {
		t.Errorf("multimedia should vary: %d/%d", withMedia, len(docs))
	}
	if withPrint == 0 || withPrint == len(docs) {
		t.Errorf("print_page should be optional: %d/%d", withPrint, len(docs))
	}
}

func TestWideStableSchema(t *testing.T) {
	g := Wide{Seed: 21, Columns: 50}
	docs := Collection(g, 100)
	kinds := make(map[string]jsonvalue.Kind)
	for i, d := range docs {
		if d.Len() != 50 {
			t.Fatalf("doc %d: %d fields, want 50", i, d.Len())
		}
		for _, f := range d.Fields() {
			k := f.Value.Kind()
			if prev, ok := kinds[f.Name]; !ok {
				kinds[f.Name] = k
			} else if prev != k {
				t.Fatalf("doc %d: column %s drifted %s -> %s", i, f.Name, prev, k)
			}
		}
	}
}

func TestSparseLabelVariety(t *testing.T) {
	g := Sparse{Seed: 22, Universe: 100, PerDoc: 5}
	docs := Collection(g, 200)
	labelSets := make(map[string]bool)
	for i, d := range docs {
		if d.Len() != 5 {
			t.Fatalf("doc %d: %d fields, want 5", i, d.Len())
		}
		key := ""
		for _, f := range d.Fields() {
			key += f.Name + ","
		}
		labelSets[key] = true
	}
	// 5 keys out of 100: collisions across 200 docs should be rare, so
	// nearly every document contributes a fresh label set.
	if len(labelSets) < 150 {
		t.Errorf("only %d distinct label sets across 200 docs", len(labelSets))
	}
}

func TestDeepNesting(t *testing.T) {
	d := Deep{Seed: 23, Depth: 30}.Generate(0)
	depth := 0
	for d != nil {
		switch d.Kind() {
		case jsonvalue.Object:
			depth++
			if lv, ok := d.Get("id"); ok && lv != nil {
				d = nil // reached the payload record
				continue
			}
			var next *jsonvalue.Value
			for _, f := range d.Fields() {
				if f.Value.Kind() == jsonvalue.Object || f.Value.Kind() == jsonvalue.Array {
					next = f.Value
					break
				}
			}
			d = next
		case jsonvalue.Array:
			depth++
			d = d.Elem(0)
		default:
			d = nil
		}
	}
	if depth < 30 {
		t.Errorf("walked depth %d, want >= 30", depth)
	}
}

func TestParseSize(t *testing.T) {
	for in, want := range map[string]int64{
		"1":                   1,
		"64k":                 64 << 10,
		"100MB":               100 << 20,
		" 1G ":                1 << 30,
		"8589934591G":         8589934591 << 30, // the largest G count that fits
		"9223372036854775807": math.MaxInt64,
	} {
		if got, err := ParseSize(in); err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// A product beyond int64 is rejected, not wrapped to a negative size
	// or a smaller positive one.
	for _, in := range []string{"", "0", "-1K", "lots", "1T", "8589934592G", "99999999999G", "9007199254740992K", "9223372036854775808"} {
		if got, err := ParseSize(in); err == nil || !strings.HasPrefix(err.Error(), "invalid size") {
			t.Errorf("ParseSize(%q) = %d, %v; want an invalid size error", in, got, err)
		}
	}
}
