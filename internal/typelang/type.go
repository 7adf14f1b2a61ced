// type.go defines the Type node, its constructors and renderings; the
// least upper bound lives in merge.go, subtyping in subtype.go.

package typelang

import (
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/jsonvalue"
)

// Kind discriminates type nodes.
type Kind uint8

// The type constructors. KInt is a refinement of KNum (every Int value
// is a Num value), mirroring JSON Schema's "integer" versus "number".
const (
	KBottom Kind = iota // no values (empty union, empty-array element)
	KNull
	KBool
	KInt
	KNum
	KStr
	KRecord
	KArray
	KUnion
	KAny // all values
)

// String returns the conventional rendering of the kind.
func (k Kind) String() string {
	switch k {
	case KBottom:
		return "⊥"
	case KNull:
		return "Null"
	case KBool:
		return "Bool"
	case KInt:
		return "Int"
	case KNum:
		return "Num"
	case KStr:
		return "Str"
	case KRecord:
		return "Record"
	case KArray:
		return "Array"
	case KUnion:
		return "Union"
	case KAny:
		return "Any"
	default:
		return "?"
	}
}

// Field is one record member.
type Field struct {
	Name string
	Type *Type
	// Optional marks fields not guaranteed to be present.
	Optional bool
	// Count is the number of merged records in which the field occurred —
	// the field-level annotation of counting types (DBPL'17). Zero for
	// hand-built types.
	Count int64
}

// Type is a node of the algebra. Exactly the fields relevant to Kind
// are meaningful: Fields for KRecord, Elem/MinLen/MaxLen for KArray,
// Alts for KUnion.
type Type struct {
	Kind Kind

	// Count is the number of values this node summarises — the
	// counting-types annotation. Zero for hand-built types.
	Count int64

	// Fields of a record, sorted by name (maintained by constructors).
	Fields []Field

	// Elem is the array element type; Bottom for the empty array.
	Elem *Type
	// MinLen and MaxLen are the observed array length bounds
	// (counting annotation; MaxLen is -1 when unknown/unbounded).
	MinLen, MaxLen int

	// Alts are union alternatives in canonical order, each non-union.
	Alts []*Type
}

// Singleton atoms for hand-built types (Count 0). Inference builds its
// own counted instances.
var (
	Bottom = &Type{Kind: KBottom}
	Null   = &Type{Kind: KNull}
	Bool   = &Type{Kind: KBool}
	Int    = &Type{Kind: KInt}
	Num    = &Type{Kind: KNum}
	Str    = &Type{Kind: KStr}
	Any    = &Type{Kind: KAny}
)

// Atom returns a counted atom of kind k.
func Atom(k Kind, count int64) *Type {
	switch k {
	case KNull, KBool, KInt, KNum, KStr, KAny, KBottom:
		return &Type{Kind: k, Count: count}
	default:
		panic("typelang: Atom on non-atom kind " + k.String())
	}
}

// NewRecord builds a record type from fields; the slice is copied and
// sorted by name. Duplicate names panic.
func NewRecord(fields ...Field) *Type {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	slices.SortFunc(fs, compareFieldNames)
	for i := 1; i < len(fs); i++ {
		if fs[i].Name == fs[i-1].Name {
			panic("typelang: duplicate record field " + fs[i].Name)
		}
	}
	return &Type{Kind: KRecord, Fields: fs}
}

// RecordOwned builds a counted record taking ownership of fields: no
// defensive copy is made, and the caller must not reuse the slice and
// must guarantee the names are duplicate-free. It is the allocation-lean
// constructor for the inference map phase, which types millions of
// objects; fields arriving already name-sorted (the common case for
// machine-generated JSON) skip the sort entirely.
func RecordOwned(count int64, fields []Field) *Type {
	sorted := true
	for i := 1; i < len(fields); i++ {
		if fields[i].Name < fields[i-1].Name {
			sorted = false
			break
		}
	}
	if !sorted {
		slices.SortFunc(fields, compareFieldNames)
	}
	return &Type{Kind: KRecord, Fields: fields, Count: count}
}

// compareFieldNames orders record fields by name; the generic sort
// avoids the reflect-based swapper sort.Slice allocates, which showed
// up in the inference map phase's allocation profile.
func compareFieldNames(a, b Field) int { return strings.Compare(a.Name, b.Name) }

// NewArray builds an array type with the given element type. A nil elem
// means the empty-array element type Bottom.
func NewArray(elem *Type) *Type {
	if elem == nil {
		elem = Bottom
	}
	return &Type{Kind: KArray, Elem: elem, MaxLen: -1}
}

// NewArrayCounted builds a counted array type with observed length
// bounds.
func NewArrayCounted(elem *Type, count int64, minLen, maxLen int) *Type {
	if elem == nil {
		elem = Bottom
	}
	return &Type{Kind: KArray, Elem: elem, Count: count, MinLen: minLen, MaxLen: maxLen}
}

// Union builds the canonical union of the given types under the Kind
// equivalence (records always merge). For parameterised canonical
// unions use Merge with an explicit Equiv.
func Union(ts ...*Type) *Type {
	acc := Bottom
	for _, t := range ts {
		acc = Merge(acc, t, EquivKind)
	}
	return acc
}

// Get returns the record field named name.
func (t *Type) Get(name string) (Field, bool) {
	i := sort.Search(len(t.Fields), func(i int) bool { return t.Fields[i].Name >= name })
	if i < len(t.Fields) && t.Fields[i].Name == name {
		return t.Fields[i], true
	}
	return Field{}, false
}

// Size returns the number of nodes in the type tree — the schema size
// measure reported by the inference experiments (E1, E4, E12). Field
// entries count as one node each.
func (t *Type) Size() int {
	if t == nil {
		return 0
	}
	switch t.Kind {
	case KRecord:
		n := 1
		for _, f := range t.Fields {
			n += 1 + f.Type.Size()
		}
		return n
	case KArray:
		return 1 + t.Elem.Size()
	case KUnion:
		n := 1
		for _, a := range t.Alts {
			n += a.Size()
		}
		return n
	default:
		return 1
	}
}

// Equal reports structural equality, ignoring counts. Both types must
// be canonical (as produced by the constructors and Merge).
func Equal(a, b *Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KRecord:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for i := range a.Fields {
			af, bf := a.Fields[i], b.Fields[i]
			if af.Name != bf.Name || af.Optional != bf.Optional || !Equal(af.Type, bf.Type) {
				return false
			}
		}
		return true
	case KArray:
		return Equal(a.Elem, b.Elem)
	case KUnion:
		if len(a.Alts) != len(b.Alts) {
			return false
		}
		for i := range a.Alts {
			if !Equal(a.Alts[i], b.Alts[i]) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// String renders the type in the compact notation of the parametric
// inference papers: atoms by name, {a: T, b?: T} for records, [T] for
// arrays, T1 + T2 for unions. Counts are not shown; use StringCounted.
func (t *Type) String() string {
	r := renderer{}
	r.render(t)
	return string(r.buf)
}

// StringCounted renders the type with counting annotations: atom(n),
// field:n, record{..}(n).
func (t *Type) StringCounted() string {
	r := renderer{counted: true}
	r.render(t)
	return string(r.buf)
}

// Render writes the type's rendering — StringCounted's when counted,
// else String's — and a newline to w, through a buffer of about
// renderFlush bytes: a schema of any size is written without a string
// of its size. It returns the first error w returns, and renders no
// further once w has failed.
func (t *Type) Render(w io.Writer, counted bool) error {
	r := renderer{buf: make([]byte, 0, renderFlush+renderFlush/8), w: w, counted: counted}
	r.render(t)
	r.buf = append(r.buf, '\n')
	if r.err == nil {
		_, r.err = w.Write(r.buf)
	}
	return r.err
}

// renderFlush is the size at which Render hands its buffer to the
// writer.
const renderFlush = 32 << 10

// renderer appends a rendering to buf. With a writer, buf is flushed to
// it whenever it reaches renderFlush bytes; without one, buf ends up
// holding the whole rendering.
type renderer struct {
	buf     []byte
	w       io.Writer
	err     error
	counted bool
}

func (r *renderer) render(t *Type) {
	if r.w != nil && len(r.buf) >= renderFlush {
		if r.err == nil {
			_, r.err = r.w.Write(r.buf)
		}
		r.buf = r.buf[:0]
	}
	if r.err != nil {
		return
	}
	if t == nil {
		r.buf = append(r.buf, "⊥"...)
		return
	}
	switch t.Kind {
	case KRecord:
		r.buf = append(r.buf, '{')
		for i, f := range t.Fields {
			if i > 0 {
				r.buf = append(r.buf, ", "...)
			}
			r.buf = append(r.buf, f.Name...)
			if f.Optional {
				r.buf = append(r.buf, '?')
			}
			if r.counted {
				r.buf = append(r.buf, ':')
				r.buf = strconv.AppendInt(r.buf, f.Count, 10)
			}
			r.buf = append(r.buf, ": "...)
			r.render(f.Type)
		}
		r.buf = append(r.buf, '}')
		r.count(t.Count)
	case KArray:
		r.buf = append(r.buf, '[')
		r.render(t.Elem)
		r.buf = append(r.buf, ']')
		r.count(t.Count)
	case KUnion:
		r.buf = append(r.buf, '(')
		for i, a := range t.Alts {
			if i > 0 {
				r.buf = append(r.buf, " + "...)
			}
			r.render(a)
		}
		r.buf = append(r.buf, ')')
	default:
		r.buf = append(r.buf, t.Kind.String()...)
		r.count(t.Count)
	}
}

// count appends a node's count annotation, when the rendering is
// counted.
func (r *renderer) count(n int64) {
	if r.counted {
		r.buf = append(r.buf, '(')
		r.buf = strconv.AppendInt(r.buf, n, 10)
		r.buf = append(r.buf, ')')
	}
}

// Matches reports whether value v is an instance of t. Records are
// closed: fields of v not mentioned in the record type are violations,
// and non-optional fields must be present. This is the membership
// judgment the inferred schemas are validated with.
func (t *Type) Matches(v *jsonvalue.Value) bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case KBottom:
		return false
	case KAny:
		return true
	case KNull:
		return v.Kind() == jsonvalue.Null
	case KBool:
		return v.Kind() == jsonvalue.Bool
	case KInt:
		return v.IsInt()
	case KNum:
		return v.Kind() == jsonvalue.Number
	case KStr:
		return v.Kind() == jsonvalue.String
	case KArray:
		if v.Kind() != jsonvalue.Array {
			return false
		}
		for _, e := range v.Elems() {
			if !t.Elem.Matches(e) {
				return false
			}
		}
		return true
	case KRecord:
		if v.Kind() != jsonvalue.Object {
			return false
		}
		for _, f := range t.Fields {
			fv, ok := v.Get(f.Name)
			if !ok {
				if !f.Optional {
					return false
				}
				continue
			}
			if !f.Type.Matches(fv) {
				return false
			}
		}
		// Closed-record check: no unknown fields.
		for _, vf := range v.Fields() {
			if _, ok := t.Get(vf.Name); !ok {
				return false
			}
		}
		return true
	case KUnion:
		for _, a := range t.Alts {
			if a.Matches(v) {
				return true
			}
		}
		return false
	default:
		return false
	}
}
