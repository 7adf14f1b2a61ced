// Package sparkinfer reimplements the schema extraction that Spark SQL
// applies to JSON datasets (the "Spark Dataframe schema extraction" of
// §4.1) — the tutorial's canonical example of an imprecise inference:
// "its inference approach is quite imprecise, since the type language
// lacks union types and the inference algorithm resorts to Str on
// strongly heterogeneous collections of data".
//
// The port follows Spark's JsonInferSchema/TypeCoercion semantics:
//
//   - atomic types: NullType, BooleanType, LongType, DoubleType,
//     StringType;
//   - StructType with name-sorted, nullable fields and ArrayType with a
//     single element type;
//   - compatibleType (the fold operator) merges two types: equal types
//     stay, Long+Double widens to Double, structs merge field-wise with
//     missing fields nullable, arrays merge element-wise, NullType is
//     the identity — and ANY other combination falls back to
//     StringType.
//
// The fallback is the whole point: there is no union constructor, so a
// field that is sometimes a number and sometimes a record becomes a
// plain string column.
//
// compatibleType is a join — NullType its unit, StringType absorbing
// every other type — and every distinction it draws the parametric K
// type keeps, so Spark's schema is a projection of K's: FromType of the K
// (or L) schema of a collection equals Infer over its documents.
// TestFromTypeIsInfer pins that over every fixture and generator, and
// FuzzSparkFromType over arbitrary input, against the streamed engine
// too. The CLI streams `-engine spark` through the K pass and projects;
// Infer stays as the reference and the API over materialised documents.
package sparkinfer

import (
	"sort"
	"strings"

	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

// TypeKind enumerates Spark SQL data types used for JSON inference.
type TypeKind uint8

// The Spark type kinds.
const (
	NullType TypeKind = iota
	BooleanType
	LongType
	DoubleType
	StringType
	StructType
	ArrayType
)

// String renders the kind with Spark's names.
func (k TypeKind) String() string {
	switch k {
	case NullType:
		return "NullType"
	case BooleanType:
		return "BooleanType"
	case LongType:
		return "LongType"
	case DoubleType:
		return "DoubleType"
	case StringType:
		return "StringType"
	case StructType:
		return "StructType"
	case ArrayType:
		return "ArrayType"
	default:
		return "?"
	}
}

// StructField is one column of a struct.
type StructField struct {
	Name     string
	Type     *DataType
	Nullable bool
}

// DataType is a Spark SQL type tree.
type DataType struct {
	Kind   TypeKind
	Fields []StructField // StructType, sorted by name
	Elem   *DataType     // ArrayType
}

var (
	nullT   = &DataType{Kind: NullType}
	boolT   = &DataType{Kind: BooleanType}
	longT   = &DataType{Kind: LongType}
	doubleT = &DataType{Kind: DoubleType}
	stringT = &DataType{Kind: StringType}
)

// InferValue types a single JSON value as Spark's inferField does.
func InferValue(v *jsonvalue.Value) *DataType {
	switch v.Kind() {
	case jsonvalue.Null:
		return nullT
	case jsonvalue.Bool:
		return boolT
	case jsonvalue.Number:
		if v.IsInt() {
			return longT
		}
		return doubleT
	case jsonvalue.String:
		return stringT
	case jsonvalue.Array:
		elem := nullT
		for _, e := range v.Elems() {
			elem = CompatibleType(elem, InferValue(e))
		}
		return &DataType{Kind: ArrayType, Elem: elem}
	case jsonvalue.Object:
		seen := make(map[string]struct{}, v.Len())
		fields := make([]StructField, 0, v.Len())
		for _, f := range v.Fields() {
			if _, dup := seen[f.Name]; dup {
				continue
			}
			seen[f.Name] = struct{}{}
			fv, _ := v.Get(f.Name)
			fields = append(fields, StructField{Name: f.Name, Type: InferValue(fv), Nullable: true})
		}
		sort.Slice(fields, func(i, j int) bool { return fields[i].Name < fields[j].Name })
		return &DataType{Kind: StructType, Fields: fields}
	default:
		return nullT
	}
}

// CompatibleType is Spark's two-type merge: the fold operator of the
// schema extraction. Incompatible combinations collapse to StringType.
func CompatibleType(t1, t2 *DataType) *DataType {
	if t1.Kind == NullType {
		return t2
	}
	if t2.Kind == NullType {
		return t1
	}
	if Equal(t1, t2) {
		return t1
	}
	switch {
	case t1.Kind == LongType && t2.Kind == DoubleType,
		t1.Kind == DoubleType && t2.Kind == LongType:
		return doubleT
	case t1.Kind == StructType && t2.Kind == StructType:
		return mergeStructs(t1, t2)
	case t1.Kind == ArrayType && t2.Kind == ArrayType:
		return &DataType{Kind: ArrayType, Elem: CompatibleType(t1.Elem, t2.Elem)}
	default:
		// No union types: fall back to strings.
		return stringT
	}
}

func mergeStructs(a, b *DataType) *DataType {
	out := make([]StructField, 0, len(a.Fields)+len(b.Fields))
	i, j := 0, 0
	for i < len(a.Fields) && j < len(b.Fields) {
		switch {
		case a.Fields[i].Name == b.Fields[j].Name:
			out = append(out, StructField{
				Name:     a.Fields[i].Name,
				Type:     CompatibleType(a.Fields[i].Type, b.Fields[j].Type),
				Nullable: true,
			})
			i++
			j++
		case a.Fields[i].Name < b.Fields[j].Name:
			out = append(out, a.Fields[i])
			i++
		default:
			out = append(out, b.Fields[j])
			j++
		}
	}
	out = append(out, a.Fields[i:]...)
	out = append(out, b.Fields[j:]...)
	return &DataType{Kind: StructType, Fields: out}
}

// Infer folds CompatibleType over the collection, exactly as the
// Dataframe reader does over an RDD of parsed rows.
func Infer(docs []*jsonvalue.Value) *DataType {
	acc := nullT
	for _, d := range docs {
		acc = CompatibleType(acc, InferValue(d))
	}
	return acc
}

// Equal reports structural equality of Spark types.
func Equal(a, b *DataType) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case StructType:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Fields[i].Name != b.Fields[i].Name || !Equal(a.Fields[i].Type, b.Fields[i].Type) {
				return false
			}
		}
		return true
	case ArrayType:
		return Equal(a.Elem, b.Elem)
	default:
		return true
	}
}

// String renders the type in Spark's DDL-ish notation.
func (t *DataType) String() string {
	var b strings.Builder
	t.render(&b)
	return b.String()
}

func (t *DataType) render(b *strings.Builder) {
	switch t.Kind {
	case StructType:
		b.WriteString("struct<")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Name)
			b.WriteByte(':')
			f.Type.render(b)
		}
		b.WriteByte('>')
	case ArrayType:
		b.WriteString("array<")
		t.Elem.render(b)
		b.WriteByte('>')
	case NullType:
		b.WriteString("null")
	case BooleanType:
		b.WriteString("boolean")
	case LongType:
		b.WriteString("bigint")
	case DoubleType:
		b.WriteString("double")
	case StringType:
		b.WriteString("string")
	}
}

// FromType projects a type of the shared algebra onto Spark's types: ⊥
// and Null are NullType, Bool BooleanType, Int LongType, Num DoubleType,
// Str and Any StringType; a record is a name-sorted struct of nullable
// fields, an array the array of its element's image, and a union the
// CompatibleType fold of its members' images. Over the parametric K (or
// L) type of a collection it is Infer over the same documents.
func FromType(t *typelang.Type) *DataType {
	switch t.Kind {
	case typelang.KBool:
		return boolT
	case typelang.KInt:
		return longT
	case typelang.KNum:
		return doubleT
	case typelang.KStr, typelang.KAny:
		return stringT
	case typelang.KArray:
		return &DataType{Kind: ArrayType, Elem: FromType(t.Elem)}
	case typelang.KRecord:
		fields := make([]StructField, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = StructField{Name: f.Name, Type: FromType(f.Type), Nullable: true}
		}
		return &DataType{Kind: StructType, Fields: fields}
	case typelang.KUnion:
		acc := nullT
		for _, a := range t.Alts {
			acc = CompatibleType(acc, FromType(a))
		}
		return acc
	default: // KBottom, KNull
		return nullT
	}
}

// ToTypelang converts a Spark type into the shared type algebra so the
// precision metric can compare it with parametric inference (E2).
// Nullable columns become T + Null unions; StringType stays Str — which
// is exactly where the precision loss shows up.
func (t *DataType) ToTypelang() *typelang.Type {
	switch t.Kind {
	case NullType:
		return typelang.Null
	case BooleanType:
		return typelang.Bool
	case LongType:
		return typelang.Int
	case DoubleType:
		return typelang.Num
	case StringType:
		return typelang.Str
	case ArrayType:
		return typelang.NewArray(t.Elem.ToTypelang())
	case StructType:
		fields := make([]typelang.Field, 0, len(t.Fields))
		for _, f := range t.Fields {
			ft := f.Type.ToTypelang()
			if f.Nullable {
				ft = typelang.Union(ft, typelang.Null)
			}
			fields = append(fields, typelang.Field{
				Name:     f.Name,
				Type:     ft,
				Optional: f.Nullable,
			})
		}
		return typelang.NewRecord(fields...)
	default:
		return typelang.Bottom
	}
}
