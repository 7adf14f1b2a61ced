package jsound

import (
	"testing"

	"repro/internal/jsontext"
)

func mustCompile(t *testing.T, schema string) *Schema {
	t.Helper()
	s, err := Compile(jsontext.MustParse(schema))
	if err != nil {
		t.Fatalf("Compile(%s): %v", schema, err)
	}
	return s
}

func check(t *testing.T, s *Schema, doc string, wantValid bool) {
	t.Helper()
	errs := s.Validate(jsontext.MustParse(doc))
	if (len(errs) == 0) != wantValid {
		t.Errorf("Validate(%s): valid=%v, want %v (%v)", doc, len(errs) == 0, wantValid, errs)
	}
}

func TestAtomicTypes(t *testing.T) {
	check(t, mustCompile(t, `"string"`), `"x"`, true)
	check(t, mustCompile(t, `"string"`), `1`, false)
	check(t, mustCompile(t, `"integer"`), `3`, true)
	check(t, mustCompile(t, `"integer"`), `3.5`, false)
	check(t, mustCompile(t, `"decimal"`), `3.5`, true)
	check(t, mustCompile(t, `"double"`), `3.5`, true)
	check(t, mustCompile(t, `"boolean"`), `true`, true)
	check(t, mustCompile(t, `"null"`), `null`, true)
	check(t, mustCompile(t, `"null"`), `0`, false)
}

func TestNullableSuffix(t *testing.T) {
	s := mustCompile(t, `"integer?"`)
	check(t, s, `3`, true)
	check(t, s, `null`, true)
	check(t, s, `"x"`, false)
	strict := mustCompile(t, `"integer"`)
	check(t, strict, `null`, false)
}

func TestLexicalTypes(t *testing.T) {
	check(t, mustCompile(t, `"date"`), `"2019-03-26"`, true)
	check(t, mustCompile(t, `"date"`), `"26/03/2019"`, false)
	check(t, mustCompile(t, `"dateTime"`), `"2019-03-26T10:30:00Z"`, true)
	check(t, mustCompile(t, `"dateTime"`), `"2019-03-26"`, false)
	check(t, mustCompile(t, `"anyURI"`), `"https://edbt.org"`, true)
	check(t, mustCompile(t, `"anyURI"`), `"not a uri"`, false)
}

func TestHomogeneousArray(t *testing.T) {
	s := mustCompile(t, `["integer"]`)
	check(t, s, `[1, 2, 3]`, true)
	check(t, s, `[]`, true)
	check(t, s, `[1, "x"]`, false)
	check(t, s, `{"a": 1}`, false)
	if _, err := Compile(jsontext.MustParse(`["integer", "string"]`)); err == nil {
		t.Error("multi-type array should fail to compile (restrictive!)")
	}
}

func TestObjectRequiredAndClosed(t *testing.T) {
	s := mustCompile(t, `{
		"!name": "string",
		"age": "integer"
	}`)
	check(t, s, `{"name": "ada", "age": 36}`, true)
	check(t, s, `{"name": "ada"}`, true)          // age optional
	check(t, s, `{"age": 36}`, false)             // name required
	check(t, s, `{"name": "ada", "x": 1}`, false) // closed object
}

func TestPrimaryKey(t *testing.T) {
	s := mustCompile(t, `{"@id": "integer", "name": "string"}`)
	check(t, s, `{"id": 1, "name": "a"}`, true)
	check(t, s, `{"name": "a"}`, false) // @key implies required
}

func TestMultipleKeysRejected(t *testing.T) {
	if _, err := Compile(jsontext.MustParse(`{"@a": "integer", "@b": "integer"}`)); err == nil {
		t.Error("two @key fields should fail to compile")
	}
}

func TestDefaults(t *testing.T) {
	s := mustCompile(t, `{
		"!name": "string",
		"lang": {"type": "string", "default": "en"}
	}`)
	check(t, s, `{"name": "x"}`, true)
	// Required field with a default is satisfied by the default.
	s2 := mustCompile(t, `{"!lang": {"type": "string", "default": "en"}}`)
	check(t, s2, `{}`, true)
}

func TestNestedObjects(t *testing.T) {
	s := mustCompile(t, `{
		"!user": {"!name": "string", "tags": ["string"]}
	}`)
	check(t, s, `{"user": {"name": "x", "tags": ["a", "b"]}}`, true)
	check(t, s, `{"user": {"tags": []}}`, false)
	check(t, s, `{"user": {"name": "x", "tags": [1]}}`, false)
}

func TestCompileErrors(t *testing.T) {
	for _, bad := range []string{
		`"frobnicate"`,
		`5`,
		`{"": "string"}`,
		`{"!": "string"}`,
		`{"a": "nope"}`,
	} {
		if _, err := Compile(jsontext.MustParse(bad)); err == nil {
			t.Errorf("Compile(%s) succeeded, want error", bad)
		}
	}
}

func TestErrorRendering(t *testing.T) {
	s := mustCompile(t, `{"a": {"b": "integer"}}`)
	errs := s.Validate(jsontext.MustParse(`{"a": {"b": "no"}}`))
	if len(errs) != 1 || errs[0].Error() != "a.b: must be an integer" {
		t.Errorf("errors = %v", errs)
	}
}
