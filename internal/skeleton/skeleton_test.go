package skeleton

import (
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

func docs(ss ...string) []*jsonvalue.Value {
	out := make([]*jsonvalue.Value, len(ss))
	for i, s := range ss {
		out[i] = jsontext.MustParse(s)
	}
	return out
}

func TestBuildRetainsFrequentStructures(t *testing.T) {
	// 6 docs of shape A, 3 of shape B, 1 of shape C.
	var collection []*jsonvalue.Value
	for i := 0; i < 6; i++ {
		collection = append(collection, jsontext.MustParse(`{"a": 1, "b": "x"}`))
	}
	for i := 0; i < 3; i++ {
		collection = append(collection, jsontext.MustParse(`{"a": 1, "c": {"d": true}}`))
	}
	collection = append(collection, jsontext.MustParse(`{"rare": [1]}`))

	sk := Build(collection, 0.2)
	if len(sk.Structures) != 2 {
		t.Fatalf("structures = %d, want 2 (rare one dropped)", len(sk.Structures))
	}
	if !sk.AnswersPath("a") || !sk.AnswersPath("c.d") {
		t.Error("frequent paths missing")
	}
	if sk.AnswersPath("rare[]") {
		t.Error("rare path should be totally missed")
	}
	// Structures ordered by support.
	if sk.Structures[0].Count != 6 {
		t.Errorf("first structure count = %d", sk.Structures[0].Count)
	}
}

func TestSupportSweepShrinksSkeleton(t *testing.T) {
	// E8's shape: size and coverage decrease as support rises.
	collection := genjson.Collection(genjson.GitHub{Seed: 4}, 500)
	var prevSize int = 1 << 30
	var prevCov float64 = 2
	for _, sup := range []float64{0.01, 0.1, 0.3, 0.8} {
		sk := Build(collection, sup)
		size, cov := sk.Size(), sk.Coverage(collection)
		if size > prevSize {
			t.Errorf("support %v: size %d grew above %d", sup, size, prevSize)
		}
		if cov > prevCov+1e-9 {
			t.Errorf("support %v: coverage %v grew above %v", sup, cov, prevCov)
		}
		prevSize, prevCov = size, cov
	}
	// At minimal support everything is covered.
	sk := Build(collection, 1.0/float64(len(collection)))
	if cov := sk.Coverage(collection); cov != 1 {
		t.Errorf("full skeleton coverage = %v, want 1", cov)
	}
}

func TestCoverageBounds(t *testing.T) {
	collection := docs(`{"a": 1}`, `{"a": 1, "b": 2}`)
	sk := Build(collection, 0.5)
	cov := sk.Coverage(collection)
	if cov <= 0 || cov > 1 {
		t.Errorf("coverage out of range: %v", cov)
	}
	dc := sk.DocCoverage(collection)
	if dc != 1 { // both shapes have support 0.5
		t.Errorf("doc coverage = %v, want 1", dc)
	}
	// At 0.6 support only path "a" (support 1.0) survives: the {"a"}
	// document is fully covered, the {"a","b"} one is not.
	strict := Build(collection, 0.6)
	if got := strict.DocCoverage(collection); got != 0.5 {
		t.Errorf("strict doc coverage = %v, want 0.5", got)
	}
	if strict.AnswersPath("b") {
		t.Error("path b (support 0.5) should be missed at 0.6 support")
	}
}

func TestEmptyCollection(t *testing.T) {
	sk := Build(nil, 0.5)
	if sk.Size() != 0 || sk.Coverage(nil) != 1 || sk.DocCoverage(nil) != 1 {
		t.Error("empty-collection skeleton wrong")
	}
}

func TestSkeletonMissesDrillDownButAnswersFrequent(t *testing.T) {
	// The paper's motivating property: common query paths answerable,
	// exotic ones absent.
	collection := genjson.Collection(genjson.Twitter{Seed: 6, OptionalP: 0.3, RetweetP: 0.02}, 400)
	sk := Build(collection, 0.05)
	if !sk.AnswersPath("id") || !sk.AnswersPath("user.screen_name") {
		t.Error("core tweet paths should be answerable")
	}
	found := false
	for p := range sk.paths {
		if len(p) > 17 && p[:17] == "retweeted_status." {
			found = true
		}
	}
	if found {
		t.Error("rare retweet paths should be missed at 5% support")
	}
}
