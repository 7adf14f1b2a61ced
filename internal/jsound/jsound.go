// Package jsound implements the JSound schema definition language ([5]
// in the tutorial) — the "alternative, but quite restrictive, schema
// language" of §2. JSound describes JSON values by example-shaped
// schema documents in a compact syntax; its restrictiveness (closed
// objects, homogeneous arrays, no combinators or negation) is the point
// of the comparison with JSON Schema and Joi, and is preserved here.
//
// Supported compact syntax (a JSON document):
//
//   - a type name string: "string", "integer", "decimal", "double",
//     "boolean", "null", "anyURI", "date", "dateTime" (the lexical
//     types validate string contents);
//   - a "?" suffix on the type name allows null ("integer?");
//   - an object: field descriptors keyed by name, where a "!" name
//     prefix marks the field required and "@" marks it as the primary
//     key (implying required; a schema has at most one);
//     objects are closed — unknown fields are violations;
//   - an array with exactly one element type: a homogeneous array;
//   - an "=value" default: descriptor objects of the form
//     {"type": T, "default": v} record a default for absent fields
//     (Validate treats an absent field with a default as valid).
package jsound

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/jsonvalue"
)

// Schema is a compiled JSound schema.
type Schema struct {
	kind     schemaKind
	typeName string // atomic type name, without "?"
	nullable bool

	elem *Schema // array

	fields map[string]*fieldSchema // object
	// keyField is the "@"-marked primary key field name, if any.
	keyField string
}

type fieldSchema struct {
	schema   *Schema
	required bool
	isKey    bool
	def      *jsonvalue.Value
}

type schemaKind uint8

const (
	kindAtomic schemaKind = iota
	kindArray
	kindObject
)

var atomicTypes = map[string]struct{}{
	"string": {}, "integer": {}, "decimal": {}, "double": {},
	"boolean": {}, "null": {}, "anyURI": {}, "date": {}, "dateTime": {},
}

var (
	dateRe     = regexp.MustCompile(`^\d{4}-\d{2}-\d{2}$`)
	dateTimeRe = regexp.MustCompile(`^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d+)?(Z|[+-]\d{2}:\d{2})?$`)
	uriRe      = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9+.-]*:`)
)

// Compile parses a JSound compact-syntax schema document.
func Compile(doc *jsonvalue.Value) (*Schema, error) {
	return compile(doc, "")
}

// MustCompile compiles or panics; for fixtures.
func MustCompile(doc *jsonvalue.Value) *Schema {
	s, err := Compile(doc)
	if err != nil {
		panic(err)
	}
	return s
}

func compile(doc *jsonvalue.Value, at string) (*Schema, error) {
	switch doc.Kind() {
	case jsonvalue.String:
		name := doc.Str()
		nullable := strings.HasSuffix(name, "?")
		name = strings.TrimSuffix(name, "?")
		if _, ok := atomicTypes[name]; !ok {
			return nil, fmt.Errorf("jsound: unknown type %q at %q", name, at)
		}
		return &Schema{kind: kindAtomic, typeName: name, nullable: nullable}, nil
	case jsonvalue.Array:
		if doc.Len() != 1 {
			return nil, fmt.Errorf("jsound: array type at %q must have exactly one element type", at)
		}
		elem, err := compile(doc.Elem(0), at+"[]")
		if err != nil {
			return nil, err
		}
		return &Schema{kind: kindArray, elem: elem}, nil
	case jsonvalue.Object:
		s := &Schema{kind: kindObject, fields: make(map[string]*fieldSchema, doc.Len())}
		for _, f := range doc.Fields() {
			name := f.Name
			fs := &fieldSchema{}
			for {
				switch {
				case strings.HasPrefix(name, "!"):
					fs.required = true
					name = name[1:]
					continue
				case strings.HasPrefix(name, "@"):
					fs.isKey = true
					fs.required = true
					name = name[1:]
					continue
				}
				break
			}
			if name == "" {
				return nil, fmt.Errorf("jsound: empty field name at %q", at)
			}
			descriptor := f.Value
			// Long-form descriptor: {"type": T, "default": v}.
			if descriptor.Kind() == jsonvalue.Object && descriptor.Has("type") {
				tv, _ := descriptor.Get("type")
				sub, err := compile(tv, at+"/"+name)
				if err != nil {
					return nil, err
				}
				fs.schema = sub
				if d, ok := descriptor.Get("default"); ok {
					fs.def = d
				}
			} else {
				sub, err := compile(descriptor, at+"/"+name)
				if err != nil {
					return nil, err
				}
				fs.schema = sub
			}
			if fs.isKey {
				if s.keyField != "" {
					return nil, fmt.Errorf("jsound: multiple @key fields at %q", at)
				}
				s.keyField = name
			}
			if _, dup := s.fields[name]; dup {
				return nil, fmt.Errorf("jsound: duplicate field %q at %q", name, at)
			}
			s.fields[name] = fs
		}
		return s, nil
	default:
		return nil, fmt.Errorf("jsound: schema node at %q must be a type name, array or object", at)
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

// Validate checks one value.
func (s *Schema) Validate(v *jsonvalue.Value) []Error {
	var errs []Error
	s.validate(v, "", &errs)
	return errs
}

// Accepts reports whether v validates.
func (s *Schema) Accepts(v *jsonvalue.Value) bool { return len(s.Validate(v)) == 0 }

func (s *Schema) validate(v *jsonvalue.Value, path string, errs *[]Error) {
	addf := func(format string, args ...any) {
		*errs = append(*errs, Error{Path: path, Message: fmt.Sprintf(format, args...)})
	}
	switch s.kind {
	case kindAtomic:
		if v.Kind() == jsonvalue.Null {
			if !s.nullable && s.typeName != "null" {
				addf("null not allowed for %s", s.typeName)
			}
			return
		}
		switch s.typeName {
		case "string":
			if v.Kind() != jsonvalue.String {
				addf("must be a string")
			}
		case "integer":
			if !v.IsInt() {
				addf("must be an integer")
			}
		case "decimal", "double":
			if v.Kind() != jsonvalue.Number {
				addf("must be a number")
			}
		case "boolean":
			if v.Kind() != jsonvalue.Bool {
				addf("must be a boolean")
			}
		case "null":
			addf("must be null")
		case "anyURI":
			if v.Kind() != jsonvalue.String || !uriRe.MatchString(v.Str()) {
				addf("must be a URI string")
			}
		case "date":
			if v.Kind() != jsonvalue.String || !dateRe.MatchString(v.Str()) {
				addf("must be a date string (YYYY-MM-DD)")
			}
		case "dateTime":
			if v.Kind() != jsonvalue.String || !dateTimeRe.MatchString(v.Str()) {
				addf("must be a dateTime string")
			}
		}
	case kindArray:
		if v.Kind() != jsonvalue.Array {
			addf("must be an array")
			return
		}
		for i, e := range v.Elems() {
			s.elem.validate(e, fmt.Sprintf("%s[%d]", path, i), errs)
		}
	case kindObject:
		if v.Kind() != jsonvalue.Object {
			addf("must be an object")
			return
		}
		for name, fs := range s.fields {
			fv, ok := v.Get(name)
			if !ok {
				if fs.required && fs.def == nil {
					addf("missing required field %q", name)
				}
				continue
			}
			fs.schema.validate(fv, joinPath(path, name), errs)
		}
		// Closed objects: the restrictive core of JSound.
		seen := map[string]struct{}{}
		for _, f := range v.Fields() {
			if _, dup := seen[f.Name]; dup {
				continue
			}
			seen[f.Name] = struct{}{}
			if _, known := s.fields[f.Name]; !known {
				addf("unexpected field %q (closed object)", f.Name)
			}
		}
	}
}

func joinPath(base, key string) string {
	if base == "" {
		return key
	}
	return base + "." + key
}
