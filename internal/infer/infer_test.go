package infer

import (
	"errors"
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

func TestInferStream(t *testing.T) {
	docs := genjson.Collection(genjson.GitHub{Seed: 5}, 100)
	data := jsontext.MarshalLines(docs)
	want := Infer(docs, Options{Equiv: typelang.EquivLabel})

	ty, n, err := InferStream(strings.NewReader(string(data)), Options{Equiv: typelang.EquivLabel})
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("stream consumed %d docs, want 100", n)
	}
	if !typelang.Equal(ty, want) {
		t.Error("streamed inference differs from batch")
	}
}

func TestInferEnginesEquivalent(t *testing.T) {
	// The streamed engine at several workers must agree exactly (types
	// and counts) with the sequential fold, across collection sizes that
	// exercise every window shape: empty input, one document, fewer
	// documents than workers, a partial final window.
	g := genjson.Twitter{Seed: 42}
	for _, n := range []int{0, 1, 3, 100, 513} {
		docs := genjson.Collection(g, n)
		data := jsontext.MarshalLines(docs)
		for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
			seq := Infer(docs, Options{Equiv: e})
			for _, workers := range []int{2, 5} {
				for _, batch := range []int{0, 1, 7} {
					opts := Options{Equiv: e, Workers: workers, batch: batch}
					tk, m, err := InferStream(strings.NewReader(string(data)), opts)
					if err != nil {
						t.Fatalf("n=%d equiv=%v workers=%d batch=%d: %v", n, e, workers, batch, err)
					}
					if m != n {
						t.Errorf("n=%d: stream consumed %d docs", n, m)
					}
					if !typelang.Equal(seq, tk) || seq.StringCounted() != tk.StringCounted() {
						t.Errorf("n=%d equiv=%v workers=%d batch=%d: InferStream diverges", n, e, workers, batch)
					}
				}
			}
		}
	}
	// Skewed optional fields: every field count must survive the
	// parallel merge, so the counted renderings agree too.
	docs := genjson.Collection(genjson.SkewedOptional{Seed: 9}, 300)
	seq := Infer(docs, Options{Equiv: typelang.EquivKind})
	par, _, err := InferStream(strings.NewReader(string(jsontext.MarshalLines(docs))), Options{Equiv: typelang.EquivKind, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Count != 300 || par.Count != 300 {
		t.Errorf("counts diverge: seq=%d par=%d, want 300", seq.Count, par.Count)
	}
	if seq.StringCounted() != par.StringCounted() {
		t.Error("counted renderings diverge between sequential and streamed")
	}
}

func TestInferStreamDecodeError(t *testing.T) {
	// A malformed document mid-stream stops the pipeline: the error
	// propagates with its absolute stream offset, and the partial result
	// covers exactly the documents decoded before it — work done on
	// later chunks is discarded.
	docs := genjson.Collection(genjson.GitHub{Seed: 6}, 10)
	prefix := jsontext.MarshalLines(docs)
	var b strings.Builder
	b.Write(prefix)
	b.WriteString("{]\n")
	b.Write(jsontext.MarshalLines(genjson.Collection(genjson.GitHub{Seed: 7}, 5)))
	want := Infer(docs, Options{Equiv: typelang.EquivLabel})
	for _, workers := range []int{1, 2, 4, 6} {
		opts := Options{Equiv: typelang.EquivLabel, Workers: workers, batch: 3}
		for _, input := range inputKinds {
			ty, n, err := inferStreamOver(t, input, []byte(b.String()), opts)
			if err == nil {
				t.Fatal("expected decode error")
			}
			var se *jsontext.SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("error type %T, want *jsontext.SyntaxError", err)
			}
			if wantOff := len(prefix) + 1; se.Offset != wantOff {
				t.Errorf("workers=%d %s: error offset %d, want %d (the ']')", workers, input, se.Offset, wantOff)
			}
			if n != 10 {
				t.Errorf("workers=%d %s: typed %d docs before the error, want 10", workers, input, n)
			}
			if !typelang.Equal(ty, want) || ty.StringCounted() != want.StringCounted() {
				t.Errorf("workers=%d %s: partial result differs from inference over the decoded prefix", workers, input)
			}
		}
	}
}

func TestInferStreamEmptyInput(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, input := range inputKinds {
			ty, n, err := inferStreamOver(t, input, nil, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 || ty.Kind != typelang.KBottom {
				t.Errorf("workers=%d %s: empty stream inferred %v over %d docs, want Bottom over 0", workers, input, ty, n)
			}
		}
	}
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
