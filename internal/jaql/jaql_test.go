package jaql

import (
	"testing"
	"testing/quick"

	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

func docsOf(ss ...string) []*jsonvalue.Value {
	out := make([]*jsonvalue.Value, len(ss))
	for i, s := range ss {
		out[i] = jsontext.MustParse(s)
	}
	return out
}

func TestFieldEval(t *testing.T) {
	doc := jsontext.MustParse(`{"a": {"b": 1}, "s": "x"}`)
	if got := F("a.b").Eval(doc); got.Int() != 1 {
		t.Errorf("a.b = %v", got)
	}
	if got := F("missing").Eval(doc); got.Kind() != jsonvalue.Null {
		t.Errorf("missing = %v, want null", got)
	}
	if got := F("s.deep").Eval(doc); got.Kind() != jsonvalue.Null {
		t.Errorf("s.deep = %v, want null", got)
	}
}

func TestFieldTypeOf(t *testing.T) {
	ty := typelang.NewRecord(
		typelang.Field{Name: "a", Type: typelang.Int},
		typelang.Field{Name: "b", Type: typelang.Str, Optional: true},
	)
	if got := F("a").TypeOf(ty); got.Kind != typelang.KInt {
		t.Errorf("a: %v", got)
	}
	// Optional field: type includes Null.
	bt := F("b").TypeOf(ty)
	if !bt.Matches(jsontext.MustParse(`null`)) || !bt.Matches(jsontext.MustParse(`"s"`)) {
		t.Errorf("b: %v", bt)
	}
	if got := F("zz").TypeOf(ty); got.Kind != typelang.KNull {
		t.Errorf("zz: %v", got)
	}
}

func TestCmpAndArith(t *testing.T) {
	doc := jsontext.MustParse(`{"x": 5, "name": "bob"}`)
	cases := []struct {
		e    Expr
		want string
	}{
		{Cmp{Eq, F("x"), C(5)}, "true"},
		{Cmp{Ne, F("x"), C(5)}, "false"},
		{Cmp{Lt, F("x"), C(10)}, "true"},
		{Cmp{Ge, F("x"), C(5)}, "true"},
		{Cmp{Gt, F("name"), C("alice")}, "true"},
		{Cmp{Lt, F("name"), C(3)}, "false"}, // incomparable
		{Arith{'+', F("x"), C(2)}, "7"},
		{Arith{'*', F("x"), C(2.5)}, "12.5"},
		{Arith{'-', F("name"), C(1)}, "null"},
	}
	for _, c := range cases {
		got := jsontext.MarshalString(c.e.Eval(doc))
		if got != c.want {
			t.Errorf("%s = %s, want %s", c.e, got, c.want)
		}
	}
}

func TestPipelineEval(t *testing.T) {
	docs := docsOf(
		`{"user": "a", "score": 10, "tags": ["x", "y"]}`,
		`{"user": "b", "score": 3,  "tags": ["x"]}`,
		`{"user": "a", "score": 7,  "tags": []}`,
	)
	q := NewQuery().
		Filter(Cmp{Ge, F("score"), C(5)}).
		Transform(R("who", F("user"), "double", Arith{'*', F("score"), C(2)}))
	out := q.Eval(docs)
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if s := jsontext.MarshalString(out[0]); s != `{"who":"a","double":20}` {
		t.Errorf("out[0] = %s", s)
	}
}

func TestExpand(t *testing.T) {
	docs := docsOf(
		`{"tags": ["x", "y"]}`,
		`{"tags": "not-an-array"}`,
		`{"other": 1}`,
	)
	out := NewQuery().Expand("tags").Eval(docs)
	if len(out) != 2 || out[0].Str() != "x" {
		t.Errorf("expand = %v", out)
	}
}

func TestGroupBy(t *testing.T) {
	docs := docsOf(
		`{"k": "a", "v": 1}`,
		`{"k": "b", "v": 2}`,
		`{"k": "a", "v": 3}`,
	)
	out := NewQuery().GroupBy(F("k")).Eval(docs)
	if len(out) != 2 {
		t.Fatalf("groups = %v", out)
	}
	// Groups are ordered by key rendering.
	first := out[0]
	key, _ := first.Get("key")
	count, _ := first.Get("count")
	items, _ := first.Get("items")
	if key.Str() != "a" || count.Int() != 2 || items.Len() != 2 {
		t.Errorf("group a = %v", first)
	}
}

func TestOutputTypeStatic(t *testing.T) {
	in := typelang.NewRecord(
		typelang.Field{Name: "user", Type: typelang.Str},
		typelang.Field{Name: "score", Type: typelang.Int},
		typelang.Field{Name: "tags", Type: typelang.NewArray(typelang.Str)},
	)
	q := NewQuery().
		Filter(Cmp{Gt, F("score"), C(0)}).
		Transform(R("who", F("user"), "n", F("score")))
	got := q.OutputType(in)
	want := typelang.NewRecord(
		typelang.Field{Name: "who", Type: typelang.Str},
		typelang.Field{Name: "n", Type: typelang.Int},
	)
	if !typelang.Equal(got, want) {
		t.Errorf("OutputType = %v, want %v", got, want)
	}
	// Expand types to the array's element type.
	et := NewQuery().Expand("tags").OutputType(in)
	if et.Kind != typelang.KStr {
		t.Errorf("expand type = %v", et)
	}
	// GroupBy builds the group record.
	gt := NewQuery().GroupBy(F("user")).OutputType(in)
	items, _ := gt.Get("items")
	if items.Type.Kind != typelang.KArray || !typelang.Equal(items.Type.Elem, in) {
		t.Errorf("group type = %v", gt)
	}
}

// The paper's property: the statically inferred output type is sound —
// every document the pipeline produces inhabits it.
func TestOutputTypeSoundnessOnGenerators(t *testing.T) {
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 121},
		genjson.GitHub{Seed: 122},
		genjson.Orders{Seed: 123},
	}
	queries := []*Query{
		NewQuery().Transform(R("id", F("id"), "whole", Input{})),
		NewQuery().Filter(Cmp{Gt, F("retweet_count"), C(100)}),
		NewQuery().GroupBy(F("lang")),
		NewQuery().Expand("lines").Transform(R(
			"sku", F("sku"),
			"total", Arith{'*', F("unit_price"), F("qty")},
		)),
	}
	for _, g := range gens {
		docs := genjson.Collection(g, 120)
		inType := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
		for qi, q := range queries {
			outType := q.OutputType(inType)
			for i, v := range q.Eval(docs) {
				if !outType.Matches(v) {
					t.Fatalf("%s query %d: output %d %s does not match inferred type %s",
						g.Name(), qi, i, jsontext.MarshalString(v), outType)
				}
			}
		}
	}
}

func TestOutputTypeSoundnessProperty(t *testing.T) {
	g := genjson.NestedArrays{Seed: 124}
	q := NewQuery().
		Expand("items").
		Transform(R("s", F("sku"), "g", F("gift"), "d", F("discount")))
	f := func(n uint8) bool {
		docs := genjson.Collection(g, int(n%50)+1)
		inType := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
		outType := q.OutputType(inType)
		for _, v := range q.Eval(docs) {
			if !outType.Matches(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQueryString(t *testing.T) {
	q := NewQuery().Filter(Cmp{Eq, F("a"), C(1)}).Transform(R("x", F("a"))).Expand("x").GroupBy(Input{})
	s := q.String()
	for _, want := range []string{"$in", "filter ($.a == 1)", "transform {x: $.a}", "expand $.x", "group by $"} {
		if !contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

func contains(h, n string) bool {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return true
		}
	}
	return false
}
