package infer

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

func TestTypeOfAtoms(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`null`, "Null"},
		{`true`, "Bool"},
		{`3`, "Int"},
		{`3.5`, "Num"},
		{`"s"`, "Str"},
		{`[]`, "[⊥]"},
		{`[1, 2]`, "[Int]"},
		{`[1, "a"]`, "[(Int + Str)]"},
		{`{"a": 1, "b": [true]}`, "{a: Int, b: [Bool]}"},
	}
	for _, c := range cases {
		got := TypeOf(jsontext.MustParse(c.in), typelang.EquivKind).String()
		if got != c.want {
			t.Errorf("TypeOf(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestTypeOfCounts(t *testing.T) {
	ty := TypeOf(jsontext.MustParse(`{"a": [1, 2, 3]}`), typelang.EquivKind)
	if ty.Count != 1 {
		t.Errorf("record count = %d", ty.Count)
	}
	fa, _ := ty.Get("a")
	if fa.Count != 1 {
		t.Errorf("field count = %d", fa.Count)
	}
	if fa.Type.Count != 1 || fa.Type.MinLen != 3 || fa.Type.MaxLen != 3 {
		t.Errorf("array annotations = count %d len [%d,%d]", fa.Type.Count, fa.Type.MinLen, fa.Type.MaxLen)
	}
	if fa.Type.Elem.Count != 3 {
		t.Errorf("element count = %d, want 3", fa.Type.Elem.Count)
	}
}

func TestTypeOfDuplicateFieldObject(t *testing.T) {
	v := jsonvalue.NewObject(
		jsonvalue.Field{Name: "a", Value: jsonvalue.NewInt(1)},
		jsonvalue.Field{Name: "a", Value: jsonvalue.NewString("x")},
	)
	ty := TypeOf(v, typelang.EquivKind)
	if got := ty.String(); got != "{a: Str}" {
		t.Errorf("duplicate-field type = %s, want {a: Str} (last binding)", got)
	}
}

func TestInferKindVsLabel(t *testing.T) {
	docs := []*jsonvalue.Value{
		jsontext.MustParse(`{"a": 1, "b": "x"}`),
		jsontext.MustParse(`{"a": 2, "c": true}`),
		jsontext.MustParse(`{"a": 3, "b": "y"}`),
	}
	k := Infer(docs, Options{Equiv: typelang.EquivKind})
	if got := k.String(); got != "{a: Int, b?: Str, c?: Bool}" {
		t.Errorf("K inference = %s", got)
	}
	l := Infer(docs, Options{Equiv: typelang.EquivLabel})
	if got := l.String(); got != "({a: Int, b: Str} + {a: Int, c: Bool})" {
		t.Errorf("L inference = %s", got)
	}
	// L refines K: L's type is a subtype of K's.
	if !typelang.Subtype(l, k) {
		t.Error("L-inferred type should be a subtype of K-inferred type")
	}
}

func TestInferCountingAnnotations(t *testing.T) {
	docs := []*jsonvalue.Value{
		jsontext.MustParse(`{"a": 1}`),
		jsontext.MustParse(`{"a": 2, "b": "x"}`),
		jsontext.MustParse(`{"a": 3}`),
	}
	ty := Infer(docs, Options{Equiv: typelang.EquivKind})
	if ty.Count != 3 {
		t.Errorf("record count = %d, want 3", ty.Count)
	}
	fa, _ := ty.Get("a")
	fb, _ := ty.Get("b")
	if fa.Count != 3 || fa.Optional {
		t.Errorf("a: count=%d optional=%v", fa.Count, fa.Optional)
	}
	if fb.Count != 1 || !fb.Optional {
		t.Errorf("b: count=%d optional=%v", fb.Count, fb.Optional)
	}
	rendered := ty.StringCounted()
	if !strings.Contains(rendered, "b?:1") {
		t.Errorf("counted rendering missing annotation: %s", rendered)
	}
}

func TestInferredTypeMatchesAllDocs(t *testing.T) {
	// Soundness: every document matches the inferred type, under both
	// equivalences, across all generators.
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 1},
		genjson.GitHub{Seed: 2},
		genjson.TypeDrift{Seed: 3},
		genjson.SkewedOptional{Seed: 4},
		genjson.NestedArrays{Seed: 5},
		genjson.Orders{Seed: 6},
		genjson.OpenData{Seed: 7},
	}
	for _, g := range gens {
		docs := genjson.Collection(g, 80)
		for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
			ty := Infer(docs, Options{Equiv: e})
			for i, d := range docs {
				if !ty.Matches(d) {
					t.Fatalf("%s/%v: doc %d does not match inferred type %s", g.Name(), e, i, ty)
				}
			}
		}
	}
}

func TestInferStreamDecodeError(t *testing.T) {
	// A malformed document mid-stream stops the pipeline: the error
	// propagates with its absolute stream offset, and the partial result
	// covers exactly the documents decoded before it — work done on
	// later chunks is discarded.
	docs := genjson.Collection(genjson.GitHub{Seed: 6}, 10)
	prefix := jsontext.MarshalLines(docs)
	data := slices.Concat(prefix, []byte("{]\n"), jsontext.MarshalLines(genjson.Collection(genjson.GitHub{Seed: 7}, 5)))
	_, _, err := oracle(data, typelang.EquivLabel)
	if syntaxOffset(err) != len(prefix)+1 {
		t.Fatalf("the decoder fails with %v; want a syntax error at the ']', offset %d", err, len(prefix)+1)
	}
	want := Infer(docs, Options{Equiv: typelang.EquivLabel})
	assertEngineYields(t, "decode-error", data, Options{Equiv: typelang.EquivLabel, batch: 3}, []int{1, 2, 4, 6}, want, 10, err)
}

func TestInferStreamEmptyInput(t *testing.T) {
	// Bottom over no documents, as Infer (TestInferEmptyCollection).
	assertEngineYields(t, "empty", nil, Options{}, []int{1, 4}, Infer(nil, Options{}), 0, nil)
}

func TestInferEmptyCollection(t *testing.T) {
	ty := Infer(nil, Options{})
	if ty.Kind != typelang.KBottom {
		t.Errorf("empty inference = %v, want Bottom", ty)
	}
}

func TestMergeOrderInsensitiveProperty(t *testing.T) {
	// Property: inference result does not depend on document order (the
	// precondition for distribution).
	g := genjson.TypeDrift{Seed: 77}
	docs := genjson.Collection(g, 60)
	base := Infer(docs, Options{Equiv: typelang.EquivLabel})
	f := func(seed int64) bool {
		shuffled := make([]*jsonvalue.Value, len(docs))
		copy(shuffled, docs)
		s := uint64(seed)
		for i := len(shuffled) - 1; i > 0; i-- {
			s = s*6364136223846793005 + 1442695040888963407
			j := int(s % uint64(i+1))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		return typelang.Equal(base, Infer(shuffled, Options{Equiv: typelang.EquivLabel}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKSchemaSmallerThanL(t *testing.T) {
	docs := genjson.Collection(genjson.GitHub{Seed: 8}, 400)
	k := Infer(docs, Options{Equiv: typelang.EquivKind})
	l := Infer(docs, Options{Equiv: typelang.EquivLabel})
	if !(k.Size() <= l.Size()) {
		t.Errorf("K schema (%d) should be no larger than L schema (%d)", k.Size(), l.Size())
	}
	var input int
	for _, d := range docs {
		input += d.Size()
	}
	if l.Size() >= input/4 {
		t.Errorf("L schema size %d not ≪ input size %d", l.Size(), input)
	}
}
