// Package jsonvalue defines the JSON data model shared by every schema
// language, inference tool and parser in this repository.
//
// The model follows the JSON grammar used in the tutorial's JSON primer
// (§1): a value is null, a boolean, a number, a string, an array of
// values, or an object, i.e. a sequence of name/value fields. Unlike
// encoding/json's map[string]any representation, objects here preserve
// field order (JSON texts are ordered, and order matters to the
// structural tools in §4, e.g. Mison's pattern trees and Fad.js' shape
// caches) while still offering O(1) lookup by name.
package jsonvalue

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the syntactic category of a Value.
type Kind uint8

// The seven kinds of JSON values. Invalid is the zero Kind and marks the
// zero Value, which is not a valid JSON value.
const (
	Invalid Kind = iota
	Null
	Bool
	Number
	String
	Array
	Object
)

// String returns the conventional lowercase name of the kind, matching
// the "type" vocabulary of JSON Schema ("null", "boolean", "number",
// "string", "array", "object").
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Bool:
		return "boolean"
	case Number:
		return "number"
	case String:
		return "string"
	case Array:
		return "array"
	case Object:
		return "object"
	default:
		return "invalid"
	}
}

// Field is a single name/value member of an object.
type Field struct {
	Name  string
	Value *Value
}

// Value is an immutable-by-convention JSON value. Construct values with
// the constructor functions (NewString, NewObject, ...) rather than by
// filling the struct directly; the constructors maintain the object
// index invariant.
type Value struct {
	kind Kind

	boolVal bool
	numVal  float64
	// numRaw preserves the literal spelling of a parsed number so that
	// serialisation round-trips (e.g. "1e2" is not rewritten as "100").
	// Empty for programmatically constructed numbers.
	numRaw string
	strVal string

	arr []*Value

	fields []Field
	index  map[string]int // name -> position in fields; nil for small objects
}

// indexThreshold is the object size above which a name->position map is
// maintained. Linear scans win below it.
const indexThreshold = 8

// NewNull returns the JSON null value.
func NewNull() *Value { return &Value{kind: Null} }

// NewBool returns a JSON boolean.
func NewBool(b bool) *Value { return &Value{kind: Bool, boolVal: b} }

// NewNumber returns a JSON number with the given numeric value.
func NewNumber(f float64) *Value { return &Value{kind: Number, numVal: f} }

// NewNumberRaw returns a JSON number that remembers its literal spelling.
// The caller guarantees that raw is a valid JSON number literal whose
// value is f.
func NewNumberRaw(f float64, raw string) *Value {
	return &Value{kind: Number, numVal: f, numRaw: raw}
}

// NewInt returns a JSON number holding an integer.
func NewInt(i int64) *Value {
	return &Value{kind: Number, numVal: float64(i), numRaw: strconv.FormatInt(i, 10)}
}

// NewString returns a JSON string.
func NewString(s string) *Value { return &Value{kind: String, strVal: s} }

// NewArray returns a JSON array with the given elements. The slice is
// retained, not copied.
func NewArray(elems ...*Value) *Value { return &Value{kind: Array, arr: elems} }

// NewObject returns a JSON object with the given fields in order. The
// slice is retained. Duplicate names keep the JavaScript semantics the
// tutorial's JSON primer inherits: lookup returns the last binding.
func NewObject(fields ...Field) *Value {
	v := &Value{kind: Object, fields: fields}
	v.reindex()
	return v
}

// ObjectFromPairs builds an object from alternating name, value pairs.
// It panics if args has odd length or non-string names; it is intended
// for tests and examples.
func ObjectFromPairs(args ...any) *Value {
	if len(args)%2 != 0 {
		panic("jsonvalue: ObjectFromPairs needs name/value pairs")
	}
	fields := make([]Field, 0, len(args)/2)
	for i := 0; i < len(args); i += 2 {
		name, ok := args[i].(string)
		if !ok {
			panic(fmt.Sprintf("jsonvalue: pair %d: name is %T, not string", i/2, args[i]))
		}
		fields = append(fields, Field{Name: name, Value: FromGo(args[i+1])})
	}
	return NewObject(fields...)
}

// FromGo converts a native Go value into a *Value. Supported inputs:
// nil, bool, all int/uint/float types, string, *Value (returned as is),
// []any, map[string]any (fields sorted by name for determinism), and
// []Field. It panics on anything else.
func FromGo(x any) *Value {
	switch t := x.(type) {
	case nil:
		return NewNull()
	case *Value:
		return t
	case bool:
		return NewBool(t)
	case int:
		return NewInt(int64(t))
	case int8:
		return NewInt(int64(t))
	case int16:
		return NewInt(int64(t))
	case int32:
		return NewInt(int64(t))
	case int64:
		return NewInt(t)
	case uint:
		return NewInt(int64(t))
	case uint8:
		return NewInt(int64(t))
	case uint16:
		return NewInt(int64(t))
	case uint32:
		return NewInt(int64(t))
	case uint64:
		return NewNumber(float64(t))
	case float32:
		return NewNumber(float64(t))
	case float64:
		return NewNumber(t)
	case string:
		return NewString(t)
	case []any:
		elems := make([]*Value, len(t))
		for i, e := range t {
			elems[i] = FromGo(e)
		}
		return NewArray(elems...)
	case []Field:
		return NewObject(t...)
	case map[string]any:
		names := make([]string, 0, len(t))
		for n := range t {
			names = append(names, n)
		}
		sort.Strings(names)
		fields := make([]Field, 0, len(names))
		for _, n := range names {
			fields = append(fields, Field{Name: n, Value: FromGo(t[n])})
		}
		return NewObject(fields...)
	default:
		panic(fmt.Sprintf("jsonvalue: cannot convert %T", x))
	}
}

func (v *Value) reindex() {
	if len(v.fields) < indexThreshold {
		v.index = nil
		return
	}
	v.index = make(map[string]int, len(v.fields))
	for i, f := range v.fields {
		v.index[f.Name] = i // later duplicates overwrite: last binding wins
	}
}

// Kind reports the value's kind. The zero Value reports Invalid.
func (v *Value) Kind() Kind {
	if v == nil {
		return Invalid
	}
	return v.kind
}

// Bool returns the boolean payload; it panics if v is not a boolean.
func (v *Value) Bool() bool {
	v.mustBe(Bool)
	return v.boolVal
}

// Num returns the numeric payload; it panics if v is not a number.
func (v *Value) Num() float64 {
	v.mustBe(Number)
	return v.numVal
}

// NumRaw returns the literal spelling of a parsed number, or "" when the
// number was constructed programmatically without one.
func (v *Value) NumRaw() string {
	v.mustBe(Number)
	return v.numRaw
}

// IsInt reports whether v is a number with an integral value that fits
// float64 exactly enough to round-trip (the notion of "integer" used by
// JSON Schema's "integer" type and by the type-inference lattice).
func (v *Value) IsInt() bool {
	if v.Kind() != Number {
		return false
	}
	f := v.numVal
	return f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1<<53
}

// Int returns the number as int64; it panics unless IsInt.
func (v *Value) Int() int64 {
	if !v.IsInt() {
		panic("jsonvalue: Int on non-integer " + v.kind.String())
	}
	return int64(v.numVal)
}

// Str returns the string payload; it panics if v is not a string.
func (v *Value) Str() string {
	v.mustBe(String)
	return v.strVal
}

// Len returns the element count of an array or the field count of an
// object, and 0 for every other kind.
func (v *Value) Len() int {
	switch v.Kind() {
	case Array:
		return len(v.arr)
	case Object:
		return len(v.fields)
	default:
		return 0
	}
}

// Elems returns the backing element slice of an array. Callers must not
// mutate it. It panics if v is not an array.
func (v *Value) Elems() []*Value {
	v.mustBe(Array)
	return v.arr
}

// Elem returns the i-th array element; it panics on kind or bounds
// violations.
func (v *Value) Elem(i int) *Value {
	v.mustBe(Array)
	return v.arr[i]
}

// Fields returns the backing field slice of an object in document order.
// Callers must not mutate it. It panics if v is not an object.
func (v *Value) Fields() []Field {
	v.mustBe(Object)
	return v.fields
}

// Get returns the value bound to name in an object and whether it was
// present. With duplicate names the last binding wins. Get on a
// non-object returns (nil, false).
func (v *Value) Get(name string) (*Value, bool) {
	if v.Kind() != Object {
		return nil, false
	}
	if v.index != nil {
		if i, ok := v.index[name]; ok {
			return v.fields[i].Value, true
		}
		return nil, false
	}
	for i := len(v.fields) - 1; i >= 0; i-- {
		if v.fields[i].Name == name {
			return v.fields[i].Value, true
		}
	}
	return nil, false
}

// Has reports whether an object has a field called name.
func (v *Value) Has(name string) bool {
	_, ok := v.Get(name)
	return ok
}

// FieldNames returns the object's field names in document order.
func (v *Value) FieldNames() []string {
	v.mustBe(Object)
	names := make([]string, len(v.fields))
	for i, f := range v.fields {
		names[i] = f.Name
	}
	return names
}

// WithField returns a copy of object v with name bound to val, replacing
// an existing binding in place or appending a new field.
func (v *Value) WithField(name string, val *Value) *Value {
	v.mustBe(Object)
	fields := make([]Field, len(v.fields))
	copy(fields, v.fields)
	for i := range fields {
		if fields[i].Name == name {
			fields[i].Value = val
			return NewObject(fields...)
		}
	}
	return NewObject(append(fields, Field{Name: name, Value: val})...)
}

func (v *Value) mustBe(k Kind) {
	if v.Kind() != k {
		panic(fmt.Sprintf("jsonvalue: %s used as %s", v.Kind(), k))
	}
}

// Equal reports deep structural equality. Object comparison is
// order-insensitive, as in the JSON data model (and in JSON Schema's
// notion of instance equality used by "enum", "const" and
// "uniqueItems"); duplicate-name objects compare by their effective
// (last-binding) view. Numbers compare by numeric value, so 1e2 == 100.
func Equal(a, b *Value) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case Null:
		return true
	case Bool:
		return a.boolVal == b.boolVal
	case Number:
		return a.numVal == b.numVal
	case String:
		return a.strVal == b.strVal
	case Array:
		if len(a.arr) != len(b.arr) {
			return false
		}
		for i := range a.arr {
			if !Equal(a.arr[i], b.arr[i]) {
				return false
			}
		}
		return true
	case Object:
		an, bn := a.effectiveNames(), b.effectiveNames()
		if len(an) != len(bn) {
			return false
		}
		for _, name := range an {
			bv, ok := b.Get(name)
			if !ok {
				return false
			}
			av, _ := a.Get(name)
			if !Equal(av, bv) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// effectiveNames returns the set of distinct field names.
func (v *Value) effectiveNames() []string {
	seen := make(map[string]struct{}, len(v.fields))
	names := make([]string, 0, len(v.fields))
	for _, f := range v.fields {
		if _, dup := seen[f.Name]; !dup {
			seen[f.Name] = struct{}{}
			names = append(names, f.Name)
		}
	}
	return names
}

// Size returns the number of nodes in the value tree: 1 for an atom,
// 1 + Σ size(child) for arrays and objects. It is the "input size"
// measure used by the inference experiments (E1, E4).
func (v *Value) Size() int {
	if v == nil {
		return 0
	}
	switch v.kind {
	case Array:
		n := 1
		for _, e := range v.arr {
			n += e.Size()
		}
		return n
	case Object:
		n := 1
		for _, f := range v.fields {
			n += f.Value.Size()
		}
		return n
	default:
		return 1
	}
}

// SortFields returns v with object fields recursively sorted by name —
// the canonical form used when comparing schemas and shapes.
func (v *Value) SortFields() *Value {
	if v == nil {
		return nil
	}
	switch v.kind {
	case Array:
		elems := make([]*Value, len(v.arr))
		for i, e := range v.arr {
			elems[i] = e.SortFields()
		}
		return NewArray(elems...)
	case Object:
		fields := make([]Field, len(v.fields))
		for i, f := range v.fields {
			fields[i] = Field{Name: f.Name, Value: f.Value.SortFields()}
		}
		sort.SliceStable(fields, func(i, j int) bool { return fields[i].Name < fields[j].Name })
		return NewObject(fields...)
	default:
		return v
	}
}

// String renders a debugging representation (compact JSON-like). The
// jsontext package owns real serialisation.
func (v *Value) String() string {
	var b strings.Builder
	v.debugTo(&b)
	return b.String()
}

func (v *Value) debugTo(b *strings.Builder) {
	switch v.Kind() {
	case Invalid:
		b.WriteString("<invalid>")
	case Null:
		b.WriteString("null")
	case Bool:
		b.WriteString(strconv.FormatBool(v.boolVal))
	case Number:
		if v.numRaw != "" {
			b.WriteString(v.numRaw)
		} else {
			b.WriteString(strconv.FormatFloat(v.numVal, 'g', -1, 64))
		}
	case String:
		b.WriteString(strconv.Quote(v.strVal))
	case Array:
		b.WriteByte('[')
		for i, e := range v.arr {
			if i > 0 {
				b.WriteByte(',')
			}
			e.debugTo(b)
		}
		b.WriteByte(']')
	case Object:
		b.WriteByte('{')
		for i, f := range v.fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(f.Name))
			b.WriteByte(':')
			f.Value.debugTo(b)
		}
		b.WriteByte('}')
	}
}
