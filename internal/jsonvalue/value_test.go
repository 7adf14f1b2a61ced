package jsonvalue

import (
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Null: "null", Bool: "boolean", Number: "number",
		String: "string", Array: "array", Object: "object", Invalid: "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if NewNull().Kind() != Null {
		t.Error("NewNull not null")
	}
	if NewBool(true).Bool() != true || NewBool(false).Bool() != false {
		t.Error("bool payload wrong")
	}
	if NewNumber(3.5).Num() != 3.5 {
		t.Error("number payload wrong")
	}
	if NewInt(42).Int() != 42 {
		t.Error("int payload wrong")
	}
	if NewString("hi").Str() != "hi" {
		t.Error("string payload wrong")
	}
	arr := NewArray(NewInt(1), NewInt(2))
	if arr.Len() != 2 || arr.Elem(1).Int() != 2 {
		t.Error("array accessors wrong")
	}
}

func TestIsInt(t *testing.T) {
	cases := []struct {
		v    *Value
		want bool
	}{
		{NewNumber(1), true},
		{NewNumber(1.5), false},
		{NewNumber(-0), true},
		{NewNumber(1e15), true},
		{NewNumber(1e300), false}, // too large for exact int
		{NewString("1"), false},
	}
	for i, c := range cases {
		if got := c.v.IsInt(); got != c.want {
			t.Errorf("case %d: IsInt = %v, want %v", i, got, c.want)
		}
	}
}

func TestObjectGetLastBindingWins(t *testing.T) {
	obj := NewObject(
		Field{Name: "a", Value: NewInt(1)},
		Field{Name: "a", Value: NewInt(2)},
	)
	v, ok := obj.Get("a")
	if !ok || v.Int() != 2 {
		t.Errorf("Get(a) = %v, %v; want 2, true", v, ok)
	}
}

func TestObjectIndexedLookup(t *testing.T) {
	// Build an object big enough to trigger the index.
	var fields []Field
	for i := 0; i < 20; i++ {
		fields = append(fields, Field{Name: string(rune('a' + i)), Value: NewInt(int64(i))})
	}
	obj := NewObject(fields...)
	for i := 0; i < 20; i++ {
		name := string(rune('a' + i))
		v, ok := obj.Get(name)
		if !ok || v.Int() != int64(i) {
			t.Fatalf("Get(%q) = %v, %v", name, v, ok)
		}
	}
	if _, ok := obj.Get("zz"); ok {
		t.Error("Get of missing field succeeded")
	}
}

func TestObjectFromPairsAndFromGo(t *testing.T) {
	obj := ObjectFromPairs("name", "bob", "age", 30, "tags", []any{"x", "y"}, "meta", nil)
	if got, _ := obj.Get("name"); got.Str() != "bob" {
		t.Error("name wrong")
	}
	if got, _ := obj.Get("age"); got.Int() != 30 {
		t.Error("age wrong")
	}
	if got, _ := obj.Get("tags"); got.Len() != 2 {
		t.Error("tags wrong")
	}
	if got, _ := obj.Get("meta"); got.Kind() != Null {
		t.Error("meta wrong")
	}
	m := FromGo(map[string]any{"b": 1, "a": 2})
	// map conversion sorts names for determinism
	if m.Fields()[0].Name != "a" {
		t.Error("map fields not sorted")
	}
}

func TestWithField(t *testing.T) {
	obj := ObjectFromPairs("a", 1, "b", 2)
	obj2 := obj.WithField("a", NewInt(9))
	if v, _ := obj2.Get("a"); v.Int() != 9 {
		t.Error("WithField replace failed")
	}
	if v, _ := obj.Get("a"); v.Int() != 1 {
		t.Error("WithField mutated original")
	}
	obj3 := obj.WithField("c", NewInt(3))
	if obj3.Len() != 3 {
		t.Error("WithField append failed")
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b *Value
		want bool
	}{
		{NewNull(), NewNull(), true},
		{NewNull(), NewBool(false), false},
		{NewNumber(100), NewNumberRaw(100, "1e2"), true},
		{NewString("a"), NewString("a"), true},
		{NewArray(NewInt(1)), NewArray(NewInt(1)), true},
		{NewArray(NewInt(1)), NewArray(NewInt(2)), false},
		{NewArray(NewInt(1)), NewArray(NewInt(1), NewInt(2)), false},
		{ObjectFromPairs("a", 1, "b", 2), ObjectFromPairs("b", 2, "a", 1), true}, // order-insensitive
		{ObjectFromPairs("a", 1), ObjectFromPairs("a", 2), false},
		{ObjectFromPairs("a", 1), ObjectFromPairs("b", 1), false},
		{nil, nil, true},
		{nil, NewNull(), false},
	}
	for i, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("case %d: Equal(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestEqualDuplicateFields(t *testing.T) {
	dup := NewObject(Field{Name: "a", Value: NewInt(1)}, Field{Name: "a", Value: NewInt(2)})
	eff := ObjectFromPairs("a", 2)
	if !Equal(dup, eff) {
		t.Error("duplicate-field object should equal its effective view")
	}
}

func TestSize(t *testing.T) {
	v := ObjectFromPairs("a", 1, "b", []any{1, 2, 3}, "c", map[string]any{"d": "x"})
	// nodes: obj(1) + a(1) + arr(1)+3 + c-obj(1)+d(1) = 8
	if got := v.Size(); got != 8 {
		t.Errorf("Size = %d, want 8", got)
	}
}

func TestSortFields(t *testing.T) {
	v := ObjectFromPairs("b", 1, "a", map[string]any{"z": 1, "y": 2})
	s := v.SortFields()
	if s.Fields()[0].Name != "a" || s.Fields()[1].Name != "b" {
		t.Error("top-level not sorted")
	}
	inner, _ := s.Get("a")
	if inner.Fields()[0].Name != "y" {
		t.Error("nested not sorted")
	}
	// Original untouched.
	if v.Fields()[0].Name != "b" {
		t.Error("SortFields mutated original")
	}
}

func TestStringDebug(t *testing.T) {
	v := ObjectFromPairs("a", []any{1, "x", nil, true})
	want := `{"a":[1,"x",null,true]}`
	if got := v.String(); got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
}

func TestPaths(t *testing.T) {
	v := ObjectFromPairs(
		"id", 1,
		"user", map[string]any{"name": "x", "tags": []any{"a"}},
		"items", []any{map[string]any{"sku": 1}},
	)
	got := Paths(v)
	want := map[string]bool{
		"id": true, "user.name": true, "user.tags[]": true, "items[].sku": true,
	}
	if len(got) != len(want) {
		t.Fatalf("Paths = %v, want keys %v", got, want)
	}
	for _, p := range got {
		if !want[p] {
			t.Errorf("unexpected path %q in %v", p, got)
		}
	}
}

func TestMustBePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic using string as number")
		}
	}()
	NewString("x").Num()
}

func TestZeroValueKindInvalid(t *testing.T) {
	var v *Value
	if v.Kind() != Invalid {
		t.Error("nil value kind should be Invalid")
	}
	var zero Value
	if zero.Kind() != Invalid {
		t.Error("zero value kind should be Invalid")
	}
}
