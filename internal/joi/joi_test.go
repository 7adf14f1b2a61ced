package joi

import (
	"strings"
	"testing"

	"repro/internal/jsontext"
)

func check(t *testing.T, s *Schema, doc string, wantValid bool) {
	t.Helper()
	errs := s.Validate(jsontext.MustParse(doc))
	if (len(errs) == 0) != wantValid {
		t.Errorf("Validate(%s): valid=%v, want %v (errors: %v)", doc, len(errs) == 0, wantValid, errs)
	}
}

func TestAtomSchemas(t *testing.T) {
	check(t, Boolean(), `true`, true)
	check(t, Boolean(), `"true"`, false)
	check(t, Any(), `{"x": [1]}`, true)
}

func TestNumberConstraints(t *testing.T) {
	s := Number().Integer().Min(0)
	check(t, s, `50`, true)
	check(t, s, `50.5`, false)
	check(t, s, `-1`, false)
	check(t, s, `"50"`, false)
	check(t, Number().Positive(), `0`, false)
	check(t, Number().Positive(), `1`, true)
}

func TestStringConstraints(t *testing.T) {
	s := String().Min(2).Pattern(`^[a-z]+$`)
	check(t, s, `"abc"`, true)
	check(t, s, `"a"`, false)
	check(t, s, `"ABC"`, false)
	check(t, s, `5`, false)
}

func TestValidAllowList(t *testing.T) {
	s := String().Valid("red", "green", "blue")
	check(t, s, `"red"`, true)
	check(t, s, `"yellow"`, false)
	n := Any().Valid(1, 2, nil)
	check(t, n, `null`, true)
	check(t, n, `2`, true)
	check(t, n, `3`, false)
}

func TestArrayConstraints(t *testing.T) {
	s := Array().Items(Number()).Min(1)
	check(t, s, `[1, 2]`, true)
	check(t, s, `[]`, false)
	check(t, s, `[1, "x"]`, false)
	check(t, s, `"not array"`, false)
}

func TestObjectKeysRequiredOptionalUnknown(t *testing.T) {
	s := Object().Keys(K{
		"id":   Number().Integer().Required(),
		"name": String(),
	})
	check(t, s, `{"id": 1, "name": "x"}`, true)
	check(t, s, `{"id": 1}`, true)           // name optional (Joi default)
	check(t, s, `{"name": "x"}`, false)      // id required
	check(t, s, `{"id": 1, "zz": 0}`, false) // unknown key rejected
	check(t, s.Unknown(true), `{"id": 1, "zz": 0}`, true)
}

func TestXorMutualExclusion(t *testing.T) {
	s := Object().Keys(K{
		"email": String(),
		"phone": String(),
	}).Xor("email", "phone")
	check(t, s, `{"email": "a@b"}`, true)
	check(t, s, `{"phone": "123"}`, true)
	check(t, s, `{}`, false)
	check(t, s, `{"email": "a@b", "phone": "123"}`, false)
}

func TestWithWithoutCooccurrence(t *testing.T) {
	s := Object().Keys(K{
		"card":    String(),
		"billing": String(),
		"guest":   Boolean(),
		"user":    String(),
	}).With("card", "billing").Without("guest", "user")
	check(t, s, `{"card": "visa", "billing": "addr"}`, true)
	check(t, s, `{"card": "visa"}`, false)
	check(t, s, `{"guest": true}`, true)
	check(t, s, `{"guest": true, "user": "bob"}`, false)
	check(t, s, `{"user": "bob"}`, true)
}

func TestWhenValueDependent(t *testing.T) {
	// payload's type depends on kind: kind="text" => payload string,
	// otherwise payload number.
	s := Object().Keys(K{
		"kind":    String().Required(),
		"payload": When("kind", String().Valid("text"), String().Required(), Number().Required()),
	})
	check(t, s, `{"kind": "text", "payload": "hello"}`, true)
	check(t, s, `{"kind": "text", "payload": 5}`, false)
	check(t, s, `{"kind": "binary", "payload": 5}`, true)
	check(t, s, `{"kind": "binary", "payload": "hello"}`, false)
}

func TestWhenRequiredPropagation(t *testing.T) {
	s := Object().Keys(K{
		"kind":    String(),
		"payload": When("kind", String().Valid("a"), String().Required(), Number().Required()),
	})
	// payload required in both branches: absence fails.
	check(t, s, `{"kind": "a"}`, false)
}

func TestNestedObjects(t *testing.T) {
	s := Object().Keys(K{
		"user": Object().Keys(K{
			"name": String().Required(),
			"tags": Array().Items(String()),
		}).Required(),
	})
	check(t, s, `{"user": {"name": "x", "tags": ["a"]}}`, true)
	check(t, s, `{"user": {"tags": ["a"]}}`, false)
	check(t, s, `{}`, false)
}

func TestErrorPaths(t *testing.T) {
	s := Object().Keys(K{
		"user": Object().Keys(K{"age": Number()}),
	})
	errs := s.Validate(jsontext.MustParse(`{"user": {"age": "old"}}`))
	if len(errs) != 1 {
		t.Fatalf("errors = %v", errs)
	}
	if errs[0].Path != "user.age" {
		t.Errorf("path = %q, want user.age", errs[0].Path)
	}
	if !strings.Contains(errs[0].Error(), "user.age") {
		t.Error("Error() should include the path")
	}
}

func TestBuilderImmutability(t *testing.T) {
	base := Number()
	withMin := base.Min(5)
	check(t, base, `1`, true) // base unaffected by derived constraint
	check(t, withMin, `1`, false)
}

func TestBuilderPanicsOnKindMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("String().Items should panic")
		}
	}()
	String().Items(Number())
}

func TestObjectKeyCountBounds(t *testing.T) {
	s := Object().Unknown(true).Min(1)
	check(t, s, `{}`, false)
	check(t, s, `{"a":1}`, true)
}
