package profile

import (
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

func TestFeatureValue(t *testing.T) {
	doc := jsontext.MustParse(`{"a": 1, "u": {"n": "x"}, "z": null}`)
	cases := map[string]string{
		"a":       "number",
		"u":       "object",
		"u.n":     "string",
		"z":       "null",
		"missing": "absent",
		"u.q":     "absent",
		"a.b":     "absent",
	}
	for path, want := range cases {
		if got := FeatureValue(doc, path); got != want {
			t.Errorf("FeatureValue(%s) = %q, want %q", path, got, want)
		}
	}
}

func TestTreeSeparatesPlantedClusters(t *testing.T) {
	// E13 in miniature: a two-generator mixture must be separated with
	// high purity by a shallow tree.
	mix := genjson.Mixture{
		Seed:       81,
		Generators: []genjson.Generator{genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}},
		Weights:    []float64{1, 1},
	}
	n := 400
	docs := genjson.Collection(mix, n)
	truth := make([]int, n)
	for i := range truth {
		truth[i] = mix.Component(i)
	}
	tree := Build(docs, 4)
	if purity := tree.Purity(truth); purity < 0.9 {
		t.Errorf("purity = %.3f, want >= 0.9", purity)
	}
	if tree.Depth > 4 {
		t.Errorf("depth = %d exceeds budget", tree.Depth)
	}
}

func TestThreeWayMixture(t *testing.T) {
	mix := genjson.Mixture{
		Seed: 82,
		Generators: []genjson.Generator{
			genjson.Twitter{Seed: 3},
			genjson.GitHub{Seed: 4},
			genjson.Orders{Seed: 5},
		},
		Weights: []float64{1, 1, 1},
	}
	n := 600
	docs := genjson.Collection(mix, n)
	truth := make([]int, n)
	for i := range truth {
		truth[i] = mix.Component(i)
	}
	tree := Build(docs, 5)
	if purity := tree.Purity(truth); purity < 0.9 {
		t.Errorf("3-way purity = %.3f", purity)
	}
}

func TestPureCollectionSingleLeaf(t *testing.T) {
	docs := []*jsonvalue.Value{
		jsontext.MustParse(`{"a": 1}`),
		jsontext.MustParse(`{"a": 2}`),
	}
	tree := Build(docs, 3)
	if !tree.Root.IsLeaf() {
		t.Error("structurally uniform collection should yield a leaf root")
	}
	if tree.NumLeaves != 1 {
		t.Errorf("leaves = %d", tree.NumLeaves)
	}
	if tree.Purity([]int{0, 0}) != 1 {
		t.Error("purity of uniform collection should be 1")
	}
}

func TestDepthBudgetRespected(t *testing.T) {
	docs := genjson.Collection(genjson.SkewedOptional{Seed: 83, NumFields: 12}, 200)
	tree := Build(docs, 2)
	if tree.Depth > 2 {
		t.Errorf("depth = %d, budget 2", tree.Depth)
	}
}
