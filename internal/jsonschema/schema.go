// Package jsonschema implements the JSON Schema language surveyed in §2
// of the tutorial, following the formal semantics of Pezoa, Reutter,
// Suarez, Ugarte and Vrgoč, "Foundations of JSON Schema" (WWW 2016) —
// the work the tutorial cites as having laid the language's formal
// foundations.
//
// Supported keywords cover the draft-04/-06 core that the formal
// treatment addresses: type, enum, const; numeric multipleOf,
// minimum/maximum with exclusive variants; string minLength/maxLength
// and pattern; array items (single schema and positional), additionalItems,
// minItems/maxItems, uniqueItems, contains; object properties,
// patternProperties, additionalProperties, required,
// minProperties/maxProperties, dependencies, propertyNames; the boolean
// combinators allOf, anyOf, oneOf, not (including the "very powerful"
// negation types the tutorial highlights); and definitions with $ref,
// including recursive references. Boolean schemas (true/false) are
// supported.
package jsonschema

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"

	"repro/internal/jsonpointer"
	"repro/internal/jsonvalue"
)

// Schema is a compiled JSON Schema node.
type Schema struct {
	// BoolValue is set for the boolean schemas: true accepts
	// everything, false rejects everything.
	IsBool    bool
	BoolValue bool

	// Types is the allowed-type set from "type" (empty = unconstrained).
	Types []string

	Enum  []*jsonvalue.Value
	Const *jsonvalue.Value // nil when absent

	// Numeric constraints; NaN when absent.
	MultipleOf       float64
	Minimum          float64
	Maximum          float64
	ExclusiveMinimum float64
	ExclusiveMaximum float64

	// String constraints; -1 when absent.
	MinLength int
	MaxLength int
	Pattern   *regexp.Regexp

	// Array constraints.
	Items           *Schema   // single-schema form
	TupleItems      []*Schema // positional form
	AdditionalItems *Schema   // nil = unconstrained
	MinItems        int       // -1 when absent
	MaxItems        int
	UniqueItems     bool
	Contains        *Schema

	// Object constraints.
	Properties           map[string]*Schema
	PatternProperties    []PatternSchema
	AdditionalProperties *Schema // nil = unconstrained
	Required             []string
	MinProperties        int // -1 when absent
	MaxProperties        int
	DependencyKeys       map[string][]string // property dependencies
	DependencySchemas    map[string]*Schema  // schema dependencies
	PropertyNames        *Schema

	// Combinators.
	AllOf []*Schema
	AnyOf []*Schema
	OneOf []*Schema
	Not   *Schema

	// Conditionals (draft-07): when If accepts, Then applies, else
	// Else applies.
	If   *Schema
	Then *Schema
	Else *Schema

	// Format is the draft-07 semantic format annotation; recognised
	// formats are validated, unknown formats are ignored per spec.
	Format string

	// Ref is the unresolved "$ref" target; resolved lazily against the
	// document root during validation.
	Ref string

	// root points at the compiler shared by every schema compiled from
	// the same document, for $ref resolution.
	root *compiler

	// Source is the raw JSON this node was compiled from.
	Source *jsonvalue.Value
}

// PatternSchema pairs a compiled pattern with its schema.
type PatternSchema struct {
	Pattern *regexp.Regexp
	Raw     string
	Schema  *Schema
}

// compiler holds per-document compilation state.
type compiler struct {
	doc  *jsonvalue.Value
	memo map[string]*Schema
}

// Compile parses a schema document (an object or boolean value) into a
// compiled Schema. $ref targets are compiled eagerly and memoised, so
// recursive schemas tie into cyclic Schema graphs.
func Compile(doc *jsonvalue.Value) (*Schema, error) {
	c := &compiler{doc: doc, memo: make(map[string]*Schema)}
	return c.compileAt("", doc)
}

// MustCompile compiles or panics; for fixtures.
func MustCompile(doc *jsonvalue.Value) *Schema {
	s, err := Compile(doc)
	if err != nil {
		panic(err)
	}
	return s
}

func (c *compiler) compileAt(ptr string, node *jsonvalue.Value) (*Schema, error) {
	if s, ok := c.memo[ptr]; ok {
		return s, nil
	}
	s := &Schema{root: c, Source: node,
		MinLength: -1, MaxLength: -1, MinItems: -1, MaxItems: -1,
		MinProperties: -1, MaxProperties: -1,
		MultipleOf: math.NaN(), Minimum: math.NaN(), Maximum: math.NaN(),
		ExclusiveMinimum: math.NaN(), ExclusiveMaximum: math.NaN(),
	}
	// Memoise before descending so self-references resolve.
	c.memo[ptr] = s
	if err := c.fill(s, ptr, node); err != nil {
		delete(c.memo, ptr)
		return nil, err
	}
	return s, nil
}

func (c *compiler) fill(s *Schema, ptr string, node *jsonvalue.Value) error {
	switch node.Kind() {
	case jsonvalue.Bool:
		s.IsBool = true
		s.BoolValue = node.Bool()
		return nil
	case jsonvalue.Object:
	default:
		return fmt.Errorf("jsonschema: schema at %q must be an object or boolean, got %s", ptr, node.Kind())
	}

	if ref, ok := node.Get("$ref"); ok {
		if ref.Kind() != jsonvalue.String {
			return fmt.Errorf("jsonschema: $ref at %q must be a string", ptr)
		}
		s.Ref = ref.Str()
		// Per draft-04 semantics, $ref replaces sibling keywords.
		_, err := c.resolveRef(s.Ref)
		return err
	}

	var err error
	get := func(name string) (*jsonvalue.Value, bool) { return node.Get(name) }

	if v, ok := get("type"); ok {
		switch v.Kind() {
		case jsonvalue.String:
			s.Types = []string{v.Str()}
		case jsonvalue.Array:
			for _, e := range v.Elems() {
				if e.Kind() != jsonvalue.String {
					return fmt.Errorf("jsonschema: type list at %q must contain strings", ptr)
				}
				s.Types = append(s.Types, e.Str())
			}
		default:
			return fmt.Errorf("jsonschema: type at %q must be a string or list", ptr)
		}
		for _, t := range s.Types {
			switch t {
			case "null", "boolean", "integer", "number", "string", "array", "object":
			default:
				return fmt.Errorf("jsonschema: unknown type %q at %q", t, ptr)
			}
		}
	}
	if v, ok := get("enum"); ok {
		if v.Kind() != jsonvalue.Array {
			return fmt.Errorf("jsonschema: enum at %q must be an array", ptr)
		}
		s.Enum = v.Elems()
	}
	if v, ok := get("const"); ok {
		s.Const = v
	}

	// Numeric.
	if s.MultipleOf, err = numKeyword(node, "multipleOf", ptr); err != nil {
		return err
	}
	if !math.IsNaN(s.MultipleOf) && s.MultipleOf <= 0 {
		return fmt.Errorf("jsonschema: multipleOf at %q must be positive", ptr)
	}
	if s.Minimum, err = numKeyword(node, "minimum", ptr); err != nil {
		return err
	}
	if s.Maximum, err = numKeyword(node, "maximum", ptr); err != nil {
		return err
	}
	if s.ExclusiveMinimum, err = numKeyword(node, "exclusiveMinimum", ptr); err != nil {
		return err
	}
	if s.ExclusiveMaximum, err = numKeyword(node, "exclusiveMaximum", ptr); err != nil {
		return err
	}

	// String.
	if s.MinLength, err = intKeyword(node, "minLength", ptr); err != nil {
		return err
	}
	if s.MaxLength, err = intKeyword(node, "maxLength", ptr); err != nil {
		return err
	}
	if v, ok := get("pattern"); ok {
		if v.Kind() != jsonvalue.String {
			return fmt.Errorf("jsonschema: pattern at %q must be a string", ptr)
		}
		re, rerr := regexp.Compile(v.Str())
		if rerr != nil {
			return fmt.Errorf("jsonschema: pattern at %q: %v", ptr, rerr)
		}
		s.Pattern = re
	}

	// Array.
	if v, ok := get("items"); ok {
		if v.Kind() == jsonvalue.Array {
			for i, e := range v.Elems() {
				sub, serr := c.compileAt(fmt.Sprintf("%s/items/%d", ptr, i), e)
				if serr != nil {
					return serr
				}
				s.TupleItems = append(s.TupleItems, sub)
			}
		} else {
			if s.Items, err = c.compileAt(ptr+"/items", v); err != nil {
				return err
			}
		}
	}
	if v, ok := get("additionalItems"); ok {
		if s.AdditionalItems, err = c.compileAt(ptr+"/additionalItems", v); err != nil {
			return err
		}
	}
	if s.MinItems, err = intKeyword(node, "minItems", ptr); err != nil {
		return err
	}
	if s.MaxItems, err = intKeyword(node, "maxItems", ptr); err != nil {
		return err
	}
	if v, ok := get("uniqueItems"); ok {
		if v.Kind() != jsonvalue.Bool {
			return fmt.Errorf("jsonschema: uniqueItems at %q must be boolean", ptr)
		}
		s.UniqueItems = v.Bool()
	}
	if v, ok := get("contains"); ok {
		if s.Contains, err = c.compileAt(ptr+"/contains", v); err != nil {
			return err
		}
	}

	// Object.
	if v, ok := get("properties"); ok {
		if v.Kind() != jsonvalue.Object {
			return fmt.Errorf("jsonschema: properties at %q must be an object", ptr)
		}
		s.Properties = make(map[string]*Schema, v.Len())
		for _, f := range v.Fields() {
			sub, serr := c.compileAt(ptr+"/properties/"+escapePtr(f.Name), f.Value)
			if serr != nil {
				return serr
			}
			s.Properties[f.Name] = sub
		}
	}
	if v, ok := get("patternProperties"); ok {
		if v.Kind() != jsonvalue.Object {
			return fmt.Errorf("jsonschema: patternProperties at %q must be an object", ptr)
		}
		for _, f := range v.Fields() {
			re, rerr := regexp.Compile(f.Name)
			if rerr != nil {
				return fmt.Errorf("jsonschema: patternProperties pattern %q at %q: %v", f.Name, ptr, rerr)
			}
			sub, serr := c.compileAt(ptr+"/patternProperties/"+escapePtr(f.Name), f.Value)
			if serr != nil {
				return serr
			}
			s.PatternProperties = append(s.PatternProperties, PatternSchema{Pattern: re, Raw: f.Name, Schema: sub})
		}
		sort.Slice(s.PatternProperties, func(i, j int) bool {
			return s.PatternProperties[i].Raw < s.PatternProperties[j].Raw
		})
	}
	if v, ok := get("additionalProperties"); ok {
		if s.AdditionalProperties, err = c.compileAt(ptr+"/additionalProperties", v); err != nil {
			return err
		}
	}
	if v, ok := get("required"); ok {
		if v.Kind() != jsonvalue.Array {
			return fmt.Errorf("jsonschema: required at %q must be an array", ptr)
		}
		for _, e := range v.Elems() {
			if e.Kind() != jsonvalue.String {
				return fmt.Errorf("jsonschema: required at %q must contain strings", ptr)
			}
			s.Required = append(s.Required, e.Str())
		}
	}
	if s.MinProperties, err = intKeyword(node, "minProperties", ptr); err != nil {
		return err
	}
	if s.MaxProperties, err = intKeyword(node, "maxProperties", ptr); err != nil {
		return err
	}
	if v, ok := get("dependencies"); ok {
		if v.Kind() != jsonvalue.Object {
			return fmt.Errorf("jsonschema: dependencies at %q must be an object", ptr)
		}
		for _, f := range v.Fields() {
			switch f.Value.Kind() {
			case jsonvalue.Array:
				var names []string
				for _, e := range f.Value.Elems() {
					if e.Kind() != jsonvalue.String {
						return fmt.Errorf("jsonschema: dependency list for %q at %q must contain strings", f.Name, ptr)
					}
					names = append(names, e.Str())
				}
				if s.DependencyKeys == nil {
					s.DependencyKeys = map[string][]string{}
				}
				s.DependencyKeys[f.Name] = names
			default:
				sub, serr := c.compileAt(ptr+"/dependencies/"+escapePtr(f.Name), f.Value)
				if serr != nil {
					return serr
				}
				if s.DependencySchemas == nil {
					s.DependencySchemas = map[string]*Schema{}
				}
				s.DependencySchemas[f.Name] = sub
			}
		}
	}
	if v, ok := get("propertyNames"); ok {
		if s.PropertyNames, err = c.compileAt(ptr+"/propertyNames", v); err != nil {
			return err
		}
	}

	// Combinators.
	if s.AllOf, err = c.schemaList(node, "allOf", ptr); err != nil {
		return err
	}
	if s.AnyOf, err = c.schemaList(node, "anyOf", ptr); err != nil {
		return err
	}
	if s.OneOf, err = c.schemaList(node, "oneOf", ptr); err != nil {
		return err
	}
	if v, ok := get("not"); ok {
		if s.Not, err = c.compileAt(ptr+"/not", v); err != nil {
			return err
		}
	}
	if v, ok := get("if"); ok {
		if s.If, err = c.compileAt(ptr+"/if", v); err != nil {
			return err
		}
	}
	if v, ok := get("then"); ok {
		if s.Then, err = c.compileAt(ptr+"/then", v); err != nil {
			return err
		}
	}
	if v, ok := get("else"); ok {
		if s.Else, err = c.compileAt(ptr+"/else", v); err != nil {
			return err
		}
	}
	if v, ok := get("format"); ok {
		if v.Kind() != jsonvalue.String {
			return fmt.Errorf("jsonschema: format at %q must be a string", ptr)
		}
		s.Format = v.Str()
	}

	// Compile definitions eagerly so broken definitions surface here.
	if v, ok := get("definitions"); ok {
		if v.Kind() != jsonvalue.Object {
			return fmt.Errorf("jsonschema: definitions at %q must be an object", ptr)
		}
		for _, f := range v.Fields() {
			if _, derr := c.compileAt(ptr+"/definitions/"+escapePtr(f.Name), f.Value); derr != nil {
				return derr
			}
		}
	}
	return nil
}

func (c *compiler) schemaList(node *jsonvalue.Value, key, ptr string) ([]*Schema, error) {
	v, ok := node.Get(key)
	if !ok {
		return nil, nil
	}
	if v.Kind() != jsonvalue.Array || v.Len() == 0 {
		return nil, fmt.Errorf("jsonschema: %s at %q must be a non-empty array", key, ptr)
	}
	out := make([]*Schema, 0, v.Len())
	for i, e := range v.Elems() {
		sub, err := c.compileAt(fmt.Sprintf("%s/%s/%d", ptr, key, i), e)
		if err != nil {
			return nil, err
		}
		out = append(out, sub)
	}
	return out, nil
}

// resolveRef resolves a "$ref" URI fragment against the document root.
// Only intra-document references ("#", "#/...") are supported; the
// schemas the tutorial discusses are single documents.
func (c *compiler) resolveRef(ref string) (*Schema, error) {
	if !strings.HasPrefix(ref, "#") {
		return nil, fmt.Errorf("jsonschema: only intra-document $ref supported, got %q", ref)
	}
	frag := ref[1:]
	p, err := jsonpointer.Parse(frag)
	if err != nil {
		return nil, fmt.Errorf("jsonschema: bad $ref %q: %v", ref, err)
	}
	target, err := p.Eval(c.doc)
	if err != nil {
		return nil, fmt.Errorf("jsonschema: $ref %q: %v", ref, err)
	}
	return c.compileAt(frag, target)
}

func escapePtr(name string) string {
	name = strings.ReplaceAll(name, "~", "~0")
	return strings.ReplaceAll(name, "/", "~1")
}

func numKeyword(node *jsonvalue.Value, key, ptr string) (float64, error) {
	v, ok := node.Get(key)
	if !ok {
		return math.NaN(), nil
	}
	if v.Kind() != jsonvalue.Number {
		return 0, fmt.Errorf("jsonschema: %s at %q must be a number", key, ptr)
	}
	return v.Num(), nil
}

func intKeyword(node *jsonvalue.Value, key, ptr string) (int, error) {
	v, ok := node.Get(key)
	if !ok {
		return -1, nil
	}
	if !v.IsInt() || v.Int() < 0 {
		return 0, fmt.Errorf("jsonschema: %s at %q must be a non-negative integer", key, ptr)
	}
	return int(v.Int()), nil
}
