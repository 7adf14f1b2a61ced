package jsonschema

import (
	"testing"
	"testing/quick"

	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

func compile(t *testing.T, schema string) *Schema {
	t.Helper()
	s, err := Compile(jsontext.MustParse(schema))
	if err != nil {
		t.Fatalf("Compile(%s): %v", schema, err)
	}
	return s
}

func accepts(t *testing.T, s *Schema, doc string) bool {
	t.Helper()
	return s.Accepts(jsontext.MustParse(doc))
}

func TestBooleanSchemas(t *testing.T) {
	if !accepts(t, compile(t, `true`), `{"anything": 1}`) {
		t.Error("true schema rejected a value")
	}
	if accepts(t, compile(t, `false`), `1`) {
		t.Error("false schema accepted a value")
	}
	if !accepts(t, compile(t, `{}`), `[1, "x"]`) {
		t.Error("empty schema rejected a value")
	}
}

func TestTypeKeyword(t *testing.T) {
	s := compile(t, `{"type": "integer"}`)
	if !accepts(t, s, `3`) || accepts(t, s, `3.5`) || accepts(t, s, `"3"`) {
		t.Error("integer type semantics wrong")
	}
	// A float with integral value IS an integer per the spec.
	if !accepts(t, s, `3.0`) {
		t.Error("3.0 should validate as integer")
	}
	multi := compile(t, `{"type": ["string", "null"]}`)
	if !accepts(t, multi, `"x"`) || !accepts(t, multi, `null`) || accepts(t, multi, `1`) {
		t.Error("type list semantics wrong")
	}
}

func TestEnumAndConst(t *testing.T) {
	s := compile(t, `{"enum": [1, "two", [3], {"k": 4}]}`)
	for _, ok := range []string{`1`, `"two"`, `[3]`, `{"k": 4}`} {
		if !accepts(t, s, ok) {
			t.Errorf("enum should accept %s", ok)
		}
	}
	for _, bad := range []string{`2`, `"three"`, `[4]`, `{"k": 5}`, `null`} {
		if accepts(t, s, bad) {
			t.Errorf("enum should reject %s", bad)
		}
	}
	c := compile(t, `{"const": {"a": [1, 2]}}`)
	if !accepts(t, c, `{"a": [1, 2]}`) || accepts(t, c, `{"a": [1]}`) {
		t.Error("const semantics wrong")
	}
}

func TestNumericKeywords(t *testing.T) {
	s := compile(t, `{"minimum": 0, "maximum": 10, "multipleOf": 0.5}`)
	if !accepts(t, s, `7.5`) || accepts(t, s, `-1`) || accepts(t, s, `11`) || accepts(t, s, `0.3`) {
		t.Error("numeric bounds wrong")
	}
	e := compile(t, `{"exclusiveMinimum": 0, "exclusiveMaximum": 10}`)
	if accepts(t, e, `0`) || accepts(t, e, `10`) || !accepts(t, e, `5`) {
		t.Error("exclusive bounds wrong")
	}
	// Non-numbers are unconstrained by numeric keywords.
	if !accepts(t, s, `"text"`) {
		t.Error("numeric keywords should ignore non-numbers")
	}
}

func TestStringKeywords(t *testing.T) {
	s := compile(t, `{"minLength": 2, "maxLength": 4, "pattern": "^a"}`)
	if !accepts(t, s, `"abc"`) || accepts(t, s, `"a"`) || accepts(t, s, `"abcde"`) || accepts(t, s, `"xbc"`) {
		t.Error("string constraints wrong")
	}
	// Length counts code points, not bytes.
	u := compile(t, `{"maxLength": 2}`)
	if !accepts(t, u, `"😀😀"`) {
		t.Error("maxLength should count code points")
	}
}

func TestArrayKeywords(t *testing.T) {
	s := compile(t, `{"items": {"type": "integer"}, "minItems": 1, "maxItems": 3, "uniqueItems": true}`)
	if !accepts(t, s, `[1, 2]`) {
		t.Error("valid array rejected")
	}
	for _, bad := range []string{`[]`, `[1,2,3,4]`, `[1,1]`, `[1,"x"]`} {
		if accepts(t, s, bad) {
			t.Errorf("should reject %s", bad)
		}
	}
	tuple := compile(t, `{"items": [{"type": "integer"}, {"type": "string"}], "additionalItems": {"type": "boolean"}}`)
	if !accepts(t, tuple, `[1, "x", true, false]`) {
		t.Error("tuple form rejected valid input")
	}
	if accepts(t, tuple, `[1, "x", 3]`) {
		t.Error("additionalItems violated but accepted")
	}
	if accepts(t, tuple, `["x"]`) {
		t.Error("positional mismatch accepted")
	}
	contains := compile(t, `{"contains": {"type": "string"}}`)
	if !accepts(t, contains, `[1, "x"]`) || accepts(t, contains, `[1, 2]`) {
		t.Error("contains semantics wrong")
	}
	// uniqueItems uses deep equality with order-insensitive objects.
	uniq := compile(t, `{"uniqueItems": true}`)
	if accepts(t, uniq, `[{"a":1,"b":2}, {"b":2,"a":1}]`) {
		t.Error("uniqueItems should treat reordered objects as equal")
	}
}

func TestObjectKeywords(t *testing.T) {
	s := compile(t, `{
		"properties": {"id": {"type": "integer"}, "name": {"type": "string"}},
		"required": ["id"],
		"additionalProperties": false
	}`)
	if !accepts(t, s, `{"id": 1, "name": "x"}`) || !accepts(t, s, `{"id": 1}`) {
		t.Error("valid objects rejected")
	}
	for _, bad := range []string{`{"name": "x"}`, `{"id": "1"}`, `{"id": 1, "extra": 2}`} {
		if accepts(t, s, bad) {
			t.Errorf("should reject %s", bad)
		}
	}
	props := compile(t, `{"minProperties": 1, "maxProperties": 2}`)
	if accepts(t, props, `{}`) || !accepts(t, props, `{"a":1}`) || accepts(t, props, `{"a":1,"b":2,"c":3}`) {
		t.Error("property count bounds wrong")
	}
}

func TestPatternProperties(t *testing.T) {
	s := compile(t, `{
		"patternProperties": {"^x_": {"type": "integer"}},
		"additionalProperties": {"type": "string"}
	}`)
	if !accepts(t, s, `{"x_a": 1, "other": "s"}`) {
		t.Error("valid patternProperties rejected")
	}
	if accepts(t, s, `{"x_a": "not int"}`) {
		t.Error("patternProperties violation accepted")
	}
	if accepts(t, s, `{"other": 5}`) {
		t.Error("additionalProperties violation accepted")
	}
}

func TestPropertyNames(t *testing.T) {
	s := compile(t, `{"propertyNames": {"pattern": "^[a-z]+$"}}`)
	if !accepts(t, s, `{"abc": 1}`) || accepts(t, s, `{"ABC": 1}`) {
		t.Error("propertyNames semantics wrong")
	}
}

func TestDependencies(t *testing.T) {
	s := compile(t, `{"dependencies": {"credit_card": ["billing_address"]}}`)
	if !accepts(t, s, `{"credit_card": 1, "billing_address": "x"}`) {
		t.Error("satisfied dependency rejected")
	}
	if accepts(t, s, `{"credit_card": 1}`) {
		t.Error("violated dependency accepted")
	}
	if !accepts(t, s, `{"billing_address": "x"}`) {
		t.Error("dependency should only fire when trigger present")
	}
	ds := compile(t, `{"dependencies": {"a": {"required": ["b"]}}}`)
	if accepts(t, ds, `{"a": 1}`) || !accepts(t, ds, `{"a": 1, "b": 2}`) {
		t.Error("schema dependency wrong")
	}
}

func TestCombinators(t *testing.T) {
	allOf := compile(t, `{"allOf": [{"type": "integer"}, {"minimum": 5}]}`)
	if !accepts(t, allOf, `7`) || accepts(t, allOf, `3`) || accepts(t, allOf, `7.5`) {
		t.Error("allOf semantics wrong")
	}
	anyOf := compile(t, `{"anyOf": [{"type": "string"}, {"type": "integer"}]}`)
	if !accepts(t, anyOf, `"x"`) || !accepts(t, anyOf, `3`) || accepts(t, anyOf, `true`) {
		t.Error("anyOf semantics wrong")
	}
	oneOf := compile(t, `{"oneOf": [{"type": "integer"}, {"type": "number", "minimum": 5}]}`)
	// 3 matches only the first; 7 matches both; 5.5 only the second;
	// "x" matches neither. (Note a bare {"minimum": 5} would vacuously
	// accept non-numbers — numeric keywords ignore other types.)
	if !accepts(t, oneOf, `3`) || accepts(t, oneOf, `7`) || !accepts(t, oneOf, `5.5`) || accepts(t, oneOf, `"x"`) {
		t.Error("oneOf semantics wrong")
	}
	not := compile(t, `{"not": {"type": "string"}}`)
	if accepts(t, not, `"x"`) || !accepts(t, not, `5`) {
		t.Error("negation types wrong")
	}
}

func TestRefAndDefinitions(t *testing.T) {
	s := compile(t, `{
		"definitions": {
			"positive": {"type": "integer", "minimum": 1}
		},
		"type": "object",
		"properties": {"n": {"$ref": "#/definitions/positive"}}
	}`)
	if !accepts(t, s, `{"n": 5}`) || accepts(t, s, `{"n": -1}`) || accepts(t, s, `{"n": "x"}`) {
		t.Error("$ref resolution wrong")
	}
}

func TestRecursiveRef(t *testing.T) {
	// A linked list: recursive schemas must compile and validate.
	s := compile(t, `{
		"definitions": {
			"list": {
				"type": "object",
				"properties": {
					"value": {"type": "integer"},
					"next": {"anyOf": [{"type": "null"}, {"$ref": "#/definitions/list"}]}
				},
				"required": ["value", "next"]
			}
		},
		"$ref": "#/definitions/list"
	}`)
	if !accepts(t, s, `{"value": 1, "next": {"value": 2, "next": null}}`) {
		t.Error("valid recursive instance rejected")
	}
	if accepts(t, s, `{"value": 1, "next": {"value": "x", "next": null}}`) {
		t.Error("invalid nested instance accepted")
	}
}

func TestRootRef(t *testing.T) {
	s := compile(t, `{
		"type": "object",
		"properties": {"child": {"anyOf": [{"type": "null"}, {"$ref": "#"}]}},
		"required": ["child"]
	}`)
	if !accepts(t, s, `{"child": {"child": null}}`) {
		t.Error("root ref failed")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`{"type": "banana"}`,
		`{"type": 5}`,
		`{"pattern": "["}`,
		`{"multipleOf": 0}`,
		`{"minLength": -1}`,
		`{"required": [1]}`,
		`{"allOf": []}`,
		`{"$ref": "#/definitions/missing"}`,
		`{"$ref": "http://elsewhere/schema"}`,
		`{"properties": {"a": {"pattern": "["}}}`,
		`5`,
	}
	for _, b := range bad {
		if _, err := Compile(jsontext.MustParse(b)); err == nil {
			t.Errorf("Compile(%s) succeeded, want error", b)
		}
	}
}

func TestValidationErrorsCarryPaths(t *testing.T) {
	s := compile(t, `{
		"type": "object",
		"properties": {"xs": {"items": {"type": "integer"}}}
	}`)
	res := s.Validate(jsontext.MustParse(`{"xs": [1, "bad", 3]}`))
	if res.Valid() {
		t.Fatal("expected failure")
	}
	if res.Errors[0].InstancePath != "/xs/1" {
		t.Errorf("error path = %q, want /xs/1", res.Errors[0].InstancePath)
	}
	if res.Errors[0].Keyword != "type" {
		t.Errorf("keyword = %q", res.Errors[0].Keyword)
	}
	if res.Errors[0].Error() == "" {
		t.Error("empty error text")
	}
}

func TestFromTypeRoundTripAgreement(t *testing.T) {
	// Property: for generated collections, the JSON Schema produced
	// from an inferred type accepts exactly the documents the type
	// matches.
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 21},
		genjson.GitHub{Seed: 22},
		genjson.NestedArrays{Seed: 23},
	}
	for _, g := range gens {
		docs := genjson.Collection(g, 60)
		ty := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
		schema := MustCompile(FromType(ty))
		for i, d := range docs {
			if !schema.Accepts(d) {
				t.Fatalf("%s: doc %d rejected by schema generated from its inferred type", g.Name(), i)
			}
		}
		// Foreign documents should (almost always) be rejected by both.
		foreign := genjson.Collection(genjson.Orders{Seed: 99}, 20)
		for i, d := range foreign {
			if ty.Matches(d) != schema.Accepts(d) {
				t.Fatalf("%s: doc %d: type and schema disagree", g.Name(), i)
			}
		}
	}
}

func TestFromTypeMembershipAgreementProperty(t *testing.T) {
	// Property: Matches(v) == Accepts(v) for random types and values.
	f := func(s1, s2 int64) bool {
		ty := randomType(s1, 3)
		v := randomValue(s2, 3)
		schema := MustCompile(FromType(ty))
		return ty.Matches(v) == schema.Accepts(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

func TestToTypeBestEffort(t *testing.T) {
	s := compile(t, `{
		"type": "object",
		"properties": {
			"id": {"type": "integer"},
			"tags": {"type": "array", "items": {"type": "string"}},
			"extra": {"anyOf": [{"type": "null"}, {"type": "number"}]}
		},
		"required": ["id"]
	}`)
	ty := ToType(s)
	if ty.Kind != typelang.KRecord {
		t.Fatalf("ToType = %v", ty)
	}
	id, _ := ty.Get("id")
	if id.Optional || id.Type.Kind != typelang.KInt {
		t.Errorf("id field = %+v", id)
	}
	tags, _ := ty.Get("tags")
	if !tags.Optional || tags.Type.Kind != typelang.KArray || tags.Type.Elem.Kind != typelang.KStr {
		t.Errorf("tags field = %+v", tags)
	}
	extra, _ := ty.Get("extra")
	if extra.Type.Kind != typelang.KUnion {
		t.Errorf("extra field = %+v", extra)
	}
}

func TestToTypeOverApproximates(t *testing.T) {
	// Values accepted by the schema must match the converted type
	// (over-approximation direction).
	s := compile(t, `{
		"type": "object",
		"properties": {"n": {"type": "integer", "minimum": 5}},
		"required": ["n"],
		"additionalProperties": false
	}`)
	ty := ToType(s)
	doc := jsontext.MustParse(`{"n": 10}`)
	if !ty.Matches(doc) {
		t.Error("accepted doc should match converted type")
	}
	// The bound is dropped: n=1 fails the schema but matches the type.
	low := jsontext.MustParse(`{"n": 1}`)
	if s.Accepts(low) {
		t.Error("schema should reject n=1")
	}
	if !ty.Matches(low) {
		t.Error("type conversion should have dropped the bound")
	}
}

// randomType and randomValue mirror the typelang test generators.
func randomType(seed int64, depth int) *typelang.Type {
	s := uint64(seed)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var gen func(d int) *typelang.Type
	gen = func(d int) *typelang.Type {
		k := next() % 8
		if d <= 0 && k >= 5 {
			k = next() % 5
		}
		switch k {
		case 0:
			return typelang.Null
		case 1:
			return typelang.Bool
		case 2:
			return typelang.Int
		case 3:
			return typelang.Num
		case 4:
			return typelang.Str
		case 5:
			n := int(next() % 3)
			fields := make([]typelang.Field, 0, n)
			for i := 0; i < n; i++ {
				fields = append(fields, typelang.Field{
					Name:     string(rune('a' + i)),
					Type:     gen(d - 1),
					Optional: next()%3 == 0,
				})
			}
			return typelang.NewRecord(fields...)
		case 6:
			return typelang.NewArray(gen(d - 1))
		default:
			return typelang.Merge(gen(d-1), gen(d-1), typelang.EquivLabel)
		}
	}
	return gen(depth)
}

func randomValue(seed int64, depth int) *jsonvalue.Value {
	s := uint64(seed) ^ 0x1234567
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var gen func(d int) *jsonvalue.Value
	gen = func(d int) *jsonvalue.Value {
		k := next() % 7
		if d <= 0 && k >= 5 {
			k = next() % 5
		}
		switch k {
		case 0:
			return jsonvalue.NewNull()
		case 1:
			return jsonvalue.NewBool(next()%2 == 0)
		case 2:
			return jsonvalue.NewInt(int64(next() % 50))
		case 3:
			return jsonvalue.NewNumber(float64(next()%50) + 0.5)
		case 4:
			return jsonvalue.NewString("s")
		case 5:
			n := int(next() % 3)
			elems := make([]*jsonvalue.Value, n)
			for i := range elems {
				elems[i] = gen(d - 1)
			}
			return jsonvalue.NewArray(elems...)
		default:
			n := int(next() % 3)
			fields := make([]jsonvalue.Field, n)
			for i := range fields {
				fields[i] = jsonvalue.Field{Name: string(rune('a' + i)), Value: gen(d - 1)}
			}
			return jsonvalue.NewObject(fields...)
		}
	}
	return gen(depth)
}
