// Package joi reimplements the schema style of Walmart Labs' Joi
// library ([6] in the tutorial): schemas for JSON objects built by
// chained function calls inside the host language, validating data in
// an otherwise untyped setting. The tutorial highlights "the ability to
// specify co-occurrence and mutual exclusion constraints on fields, as
// well as union and value-dependent types"; modelled here are the
// co-occurrence and exclusion constraints (Xor, With, Without) and the
// value-dependent types (When), the ones the experiments and examples
// use.
//
// The builder API mirrors Joi's JavaScript one:
//
//	schema := joi.Object().Keys(joi.K{
//	    "username": joi.String().Min(3).Required(),
//	    "age":      joi.Number().Integer().Min(0),
//	    "payload":  joi.When("kind", joi.String().Valid("a"), joi.String(), joi.Number()),
//	}).Xor("email", "phone").With("card", "billing").Without("guest", "password")
//
// As in Joi, fields are optional unless marked Required, and unknown
// object keys are rejected unless Unknown(true).
package joi

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"repro/internal/jsonvalue"
)

// kind discriminates schema nodes.
type kind uint8

const (
	kAny kind = iota
	kBool
	kNumber
	kString
	kArray
	kObject
	kWhen
)

// K is the key→schema map accepted by Object().Keys.
type K map[string]*Schema

// Schema is an immutable Joi-style schema node; builder methods return
// modified copies, so schemas can be shared and extended safely.
type Schema struct {
	kind     kind
	required bool

	// number
	integer  bool
	hasMin   bool
	min      float64
	positive bool

	// string
	minLen  int // -1 unset
	pattern *regexp.Regexp

	// any
	valid []*jsonvalue.Value // allow-list (Joi .valid())

	// array
	items    *Schema
	minItems int // -1 unset

	// object
	keys         map[string]*Schema
	unknown      bool
	xorPeers     [][]string
	withPeers    map[string][]string
	withoutPeers map[string][]string

	// when
	whenRef       string
	whenIs        *Schema
	whenThen      *Schema
	whenOtherwise *Schema
}

func (s *Schema) clone() *Schema {
	c := *s
	return &c
}

// Any matches every value.
func Any() *Schema { return &Schema{kind: kAny, minLen: -1, minItems: -1} }

// Boolean matches booleans.
func Boolean() *Schema { s := Any(); s.kind = kBool; return s }

// Number matches numbers.
func Number() *Schema { s := Any(); s.kind = kNumber; return s }

// String matches strings.
func String() *Schema { s := Any(); s.kind = kString; return s }

// Array matches arrays.
func Array() *Schema { s := Any(); s.kind = kArray; return s }

// Object matches objects.
func Object() *Schema { s := Any(); s.kind = kObject; return s }

// When builds a value-dependent schema: if the sibling field ref (in
// the enclosing object) matches is, the value must satisfy then,
// otherwise otherwise. Mirrors Joi.when(ref, {is, then, otherwise}).
func When(ref string, is, then, otherwise *Schema) *Schema {
	s := Any()
	s.kind = kWhen
	s.whenRef = ref
	s.whenIs = is
	s.whenThen = then
	s.whenOtherwise = otherwise
	return s
}

// Required marks the value as mandatory when used as an object key.
func (s *Schema) Required() *Schema {
	c := s.clone()
	c.required = true
	return c
}

// Valid restricts the value to the given allow-list (Joi .valid()).
func (s *Schema) Valid(vals ...any) *Schema {
	c := s.clone()
	for _, v := range vals {
		c.valid = append(c.valid, jsonvalue.FromGo(v))
	}
	return c
}

// Integer requires an integral number.
func (s *Schema) Integer() *Schema {
	s.mustBe(kNumber, "Integer")
	c := s.clone()
	c.integer = true
	return c
}

// Positive requires > 0.
func (s *Schema) Positive() *Schema {
	s.mustBe(kNumber, "Positive")
	c := s.clone()
	c.positive = true
	return c
}

// Min sets the numeric minimum, string minimum length, array minimum
// length, or object minimum key count depending on the schema kind.
func (s *Schema) Min(n float64) *Schema {
	c := s.clone()
	switch s.kind {
	case kNumber:
		c.hasMin, c.min = true, n
	case kString:
		c.minLen = int(n)
	case kArray, kObject:
		c.minItems = int(n)
	default:
		panic("joi: Min on " + s.kindName())
	}
	return c
}

// Pattern constrains strings by a regular expression.
func (s *Schema) Pattern(re string) *Schema {
	s.mustBe(kString, "Pattern")
	c := s.clone()
	c.pattern = regexp.MustCompile(re)
	return c
}

// Items sets the array element schema.
func (s *Schema) Items(item *Schema) *Schema {
	s.mustBe(kArray, "Items")
	c := s.clone()
	c.items = item
	return c
}

// Keys declares the object's fields.
func (s *Schema) Keys(keys K) *Schema {
	s.mustBe(kObject, "Keys")
	c := s.clone()
	c.keys = make(map[string]*Schema, len(keys))
	for k, v := range keys {
		c.keys[k] = v
	}
	return c
}

// Unknown allows (true) or rejects (false, default) unknown keys.
func (s *Schema) Unknown(allow bool) *Schema {
	s.mustBe(kObject, "Unknown")
	c := s.clone()
	c.unknown = allow
	return c
}

// Xor requires exactly one of the peers — Joi's mutual exclusion.
func (s *Schema) Xor(peers ...string) *Schema {
	s.mustBe(kObject, "Xor")
	c := s.clone()
	c.xorPeers = append(append([][]string{}, s.xorPeers...), peers)
	return c
}

// With requires deps whenever key is present — co-occurrence.
func (s *Schema) With(key string, deps ...string) *Schema {
	s.mustBe(kObject, "With")
	c := s.clone()
	c.withPeers = copyPeerMap(s.withPeers)
	c.withPeers[key] = append(c.withPeers[key], deps...)
	return c
}

// Without forbids deps whenever key is present — exclusion.
func (s *Schema) Without(key string, deps ...string) *Schema {
	s.mustBe(kObject, "Without")
	c := s.clone()
	c.withoutPeers = copyPeerMap(s.withoutPeers)
	c.withoutPeers[key] = append(c.withoutPeers[key], deps...)
	return c
}

func copyPeerMap(m map[string][]string) map[string][]string {
	out := make(map[string][]string, len(m)+1)
	for k, v := range m {
		out[k] = append([]string(nil), v...)
	}
	return out
}

func (s *Schema) mustBe(k kind, method string) {
	if s.kind != k {
		panic(fmt.Sprintf("joi: %s on %s schema", method, s.kindName()))
	}
}

func (s *Schema) kindName() string {
	switch s.kind {
	case kAny:
		return "any"
	case kBool:
		return "boolean"
	case kNumber:
		return "number"
	case kString:
		return "string"
	case kArray:
		return "array"
	case kObject:
		return "object"
	case kWhen:
		return "when"
	default:
		return "?"
	}
}

// Error is one validation failure.
type Error struct {
	Path    string
	Message string
}

func (e Error) Error() string {
	where := e.Path
	if where == "" {
		where = "(root)"
	}
	return where + ": " + e.Message
}

// Validate checks v and returns every violation found.
func (s *Schema) Validate(v *jsonvalue.Value) []Error {
	var errs []Error
	s.validate(v, nil, "", &errs)
	return errs
}

// Accepts reports whether the value validates.
func (s *Schema) Accepts(v *jsonvalue.Value) bool { return len(s.Validate(v)) == 0 }

// validate walks the value. ctx is the nearest enclosing object, used
// by When references.
func (s *Schema) validate(v *jsonvalue.Value, ctx *jsonvalue.Value, path string, errs *[]Error) {
	addf := func(format string, args ...any) {
		*errs = append(*errs, Error{Path: path, Message: fmt.Sprintf(format, args...)})
	}
	if len(s.valid) > 0 {
		ok := false
		for _, allowed := range s.valid {
			if jsonvalue.Equal(allowed, v) {
				ok = true
				break
			}
		}
		if !ok {
			addf("value not in valid() allow-list")
			return
		}
	}
	switch s.kind {
	case kAny:
		return
	case kBool:
		if v.Kind() != jsonvalue.Bool {
			addf("must be a boolean")
		}
	case kNumber:
		s.validateNumber(v, addf)
	case kString:
		s.validateString(v, addf)
	case kArray:
		s.validateArray(v, ctx, path, errs, addf)
	case kObject:
		s.validateObject(v, path, errs, addf)
	case kWhen:
		s.resolveWhen(ctx).validate(v, ctx, path, errs)
	}
}

func (s *Schema) resolveWhen(ctx *jsonvalue.Value) *Schema {
	branch := s.whenOtherwise
	if ctx != nil {
		if ref, ok := ctx.Get(s.whenRef); ok && s.whenIs.Accepts(ref) {
			branch = s.whenThen
		}
	}
	if branch == nil {
		return Any()
	}
	return branch
}

func (s *Schema) validateNumber(v *jsonvalue.Value, addf func(string, ...any)) {
	if v.Kind() != jsonvalue.Number {
		addf("must be a number")
		return
	}
	n := v.Num()
	if s.integer && !v.IsInt() {
		addf("must be an integer")
	}
	if s.positive && n <= 0 {
		addf("must be positive")
	}
	if s.hasMin && n < s.min {
		addf("must be >= %v", s.min)
	}
}

func (s *Schema) validateString(v *jsonvalue.Value, addf func(string, ...any)) {
	if v.Kind() != jsonvalue.String {
		addf("must be a string")
		return
	}
	str := v.Str()
	n := len([]rune(str))
	if s.minLen >= 0 && n < s.minLen {
		addf("length must be >= %d", s.minLen)
	}
	if s.pattern != nil && !s.pattern.MatchString(str) {
		addf("must match pattern %q", s.pattern)
	}
}

func (s *Schema) validateArray(v *jsonvalue.Value, ctx *jsonvalue.Value, path string, errs *[]Error, addf func(string, ...any)) {
	if v.Kind() != jsonvalue.Array {
		addf("must be an array")
		return
	}
	elems := v.Elems()
	if s.minItems >= 0 && len(elems) < s.minItems {
		addf("must have >= %d items", s.minItems)
	}
	if s.items != nil {
		for i, e := range elems {
			s.items.validate(e, ctx, fmt.Sprintf("%s[%d]", path, i), errs)
		}
	}
}

func (s *Schema) validateObject(v *jsonvalue.Value, path string, errs *[]Error, addf func(string, ...any)) {
	if v.Kind() != jsonvalue.Object {
		addf("must be an object")
		return
	}
	names := make([]string, 0, len(s.keys))
	for name := range s.keys {
		names = append(names, name)
	}
	sort.Strings(names)
	fieldCount := 0
	seen := map[string]struct{}{}
	for _, f := range v.Fields() {
		if _, dup := seen[f.Name]; !dup {
			seen[f.Name] = struct{}{}
			fieldCount++
		}
	}
	if s.minItems >= 0 && fieldCount < s.minItems {
		addf("must have >= %d keys", s.minItems)
	}
	for _, name := range names {
		sub := s.keys[name]
		// Value-dependent schemas resolve against the enclosing object
		// before requiredness is judged.
		eff := sub
		for eff.kind == kWhen {
			eff = eff.resolveWhen(v)
		}
		fv, present := v.Get(name)
		if !present {
			if eff.required {
				addf("missing required key %q", name)
			}
			continue
		}
		eff.validate(fv, v, joinPath(path, name), errs)
	}
	if !s.unknown {
		for name := range seen {
			if _, known := s.keys[name]; !known {
				addf("unknown key %q", name)
			}
		}
	}
	present := func(name string) bool { return v.Has(name) }
	for _, group := range s.xorPeers {
		if n := countPresent(group, present); n != 1 {
			addf("xor(%s): exactly one must be present, found %d", strings.Join(group, ", "), n)
		}
	}
	for key, deps := range s.withPeers {
		if present(key) {
			for _, dep := range deps {
				if !present(dep) {
					addf("with(%s): requires %q", key, dep)
				}
			}
		}
	}
	for key, deps := range s.withoutPeers {
		if present(key) {
			for _, dep := range deps {
				if present(dep) {
					addf("without(%s): conflicts with %q", key, dep)
				}
			}
		}
	}
}

func countPresent(names []string, present func(string) bool) int {
	n := 0
	for _, name := range names {
		if present(name) {
			n++
		}
	}
	return n
}

func joinPath(base, key string) string {
	if base == "" {
		return key
	}
	return base + "." + key
}
