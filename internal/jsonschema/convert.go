package jsonschema

import (
	"sort"

	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

// FromType renders a typelang type as a JSON Schema document, the
// bridge from the inference tools of §4.1 to the schema language of §2.
// Records become closed object schemas (additionalProperties: false),
// unions become anyOf, Int becomes "integer".
func FromType(t *typelang.Type) *jsonvalue.Value {
	switch t.Kind {
	case typelang.KBottom:
		return jsonvalue.NewBool(false)
	case typelang.KAny:
		return jsonvalue.NewBool(true)
	case typelang.KNull:
		return jsonvalue.ObjectFromPairs("type", "null")
	case typelang.KBool:
		return jsonvalue.ObjectFromPairs("type", "boolean")
	case typelang.KInt:
		return jsonvalue.ObjectFromPairs("type", "integer")
	case typelang.KNum:
		return jsonvalue.ObjectFromPairs("type", "number")
	case typelang.KStr:
		return jsonvalue.ObjectFromPairs("type", "string")
	case typelang.KArray:
		if t.Elem == nil || t.Elem.Kind == typelang.KBottom {
			return jsonvalue.ObjectFromPairs("type", "array", "maxItems", 0)
		}
		return jsonvalue.ObjectFromPairs("type", "array", "items", FromType(t.Elem))
	case typelang.KRecord:
		props := make([]jsonvalue.Field, 0, len(t.Fields))
		var required []*jsonvalue.Value
		for _, f := range t.Fields {
			props = append(props, jsonvalue.Field{Name: f.Name, Value: FromType(f.Type)})
			if !f.Optional {
				required = append(required, jsonvalue.NewString(f.Name))
			}
		}
		fields := []jsonvalue.Field{
			{Name: "type", Value: jsonvalue.NewString("object")},
			{Name: "properties", Value: jsonvalue.NewObject(props...)},
			{Name: "additionalProperties", Value: jsonvalue.NewBool(false)},
		}
		if len(required) > 0 {
			fields = append(fields, jsonvalue.Field{Name: "required", Value: jsonvalue.NewArray(required...)})
		}
		return jsonvalue.NewObject(fields...)
	case typelang.KUnion:
		alts := make([]*jsonvalue.Value, len(t.Alts))
		for i, a := range t.Alts {
			alts[i] = FromType(a)
		}
		return jsonvalue.ObjectFromPairs("anyOf", jsonvalue.NewArray(alts...))
	default:
		return jsonvalue.NewBool(true)
	}
}

// ToType converts a compiled schema into the type algebra, best effort:
// value constraints that the algebra cannot express (bounds, patterns,
// enums, negations) are dropped, yielding an over-approximation. This
// is the §3 comparison in executable form — what survives the trip from
// a schema language into a programming-language type system.
func ToType(s *Schema) *typelang.Type {
	if s.IsBool {
		if s.BoolValue {
			return typelang.Any
		}
		return typelang.Bottom
	}
	if s.Ref != "" {
		// Avoid non-termination on recursive schemas: a reference
		// over-approximates to Any (the type algebra has no recursion).
		return typelang.Any
	}
	var alts []*typelang.Type
	if s.AnyOf != nil {
		for _, sub := range s.AnyOf {
			alts = append(alts, ToType(sub))
		}
		return typelang.Union(alts...)
	}
	if s.OneOf != nil {
		for _, sub := range s.OneOf {
			alts = append(alts, ToType(sub))
		}
		return typelang.Union(alts...)
	}
	if len(s.AllOf) > 0 {
		// Approximate a conjunction by its first conjunct.
		return ToType(s.AllOf[0])
	}
	if len(s.Types) == 0 {
		return typelang.Any
	}
	for _, tn := range s.Types {
		alts = append(alts, s.typeBranch(tn))
	}
	return typelang.Union(alts...)
}

func (s *Schema) typeBranch(typeName string) *typelang.Type {
	switch typeName {
	case "null":
		return typelang.Null
	case "boolean":
		return typelang.Bool
	case "integer":
		return typelang.Int
	case "number":
		return typelang.Num
	case "string":
		return typelang.Str
	case "array":
		switch {
		case s.Items != nil:
			return typelang.NewArray(ToType(s.Items))
		case s.TupleItems != nil:
			elems := make([]*typelang.Type, len(s.TupleItems))
			for i, sub := range s.TupleItems {
				elems[i] = ToType(sub)
			}
			return typelang.NewArray(typelang.Union(elems...))
		default:
			return typelang.NewArray(typelang.Any)
		}
	case "object":
		names := make([]string, 0, len(s.Properties))
		for n := range s.Properties {
			names = append(names, n)
		}
		sort.Strings(names)
		req := make(map[string]bool, len(s.Required))
		for _, r := range s.Required {
			req[r] = true
		}
		fields := make([]typelang.Field, 0, len(names))
		for _, n := range names {
			fields = append(fields, typelang.Field{
				Name:     n,
				Type:     ToType(s.Properties[n]),
				Optional: !req[n],
			})
		}
		return typelang.NewRecord(fields...)
	default:
		return typelang.Any
	}
}
