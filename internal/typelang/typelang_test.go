package typelang

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

// NewRecordCounted is NewRecord with a value count: the tests' way to
// write a counted record literal.
func NewRecordCounted(count int64, fields ...Field) *Type {
	t := NewRecord(fields...)
	t.Count = count
	return t
}

func TestKindString(t *testing.T) {
	if KRecord.String() != "Record" || KBottom.String() != "⊥" {
		t.Error("kind names wrong")
	}
}

func TestAtomPanicsOnComposite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Atom(KRecord) should panic")
		}
	}()
	Atom(KRecord, 1)
}

func TestNewRecordSortsAndRejectsDuplicates(t *testing.T) {
	r := NewRecord(Field{Name: "b", Type: Int}, Field{Name: "a", Type: Str})
	if r.Fields[0].Name != "a" {
		t.Error("fields not sorted")
	}
	if _, ok := r.Get("b"); !ok {
		t.Error("Get failed")
	}
	if _, ok := r.Get("zz"); ok {
		t.Error("Get of missing field succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate field should panic")
		}
	}()
	NewRecord(Field{Name: "a", Type: Int}, Field{Name: "a", Type: Str})
}

func TestMergeAtoms(t *testing.T) {
	cases := []struct {
		a, b *Type
		want string
	}{
		{Int, Int, "Int"},
		{Int, Num, "Num"},
		{Num, Int, "Num"},
		{Int, Str, "(Int + Str)"},
		{Null, Bool, "(Null + Bool)"},
		{Str, Null, "(Null + Str)"},
		{Bottom, Str, "Str"},
		{Any, Str, "Any"},
		{Union(Int, Str), Union(Bool, Num), "(Bool + Num + Str)"},
	}
	for _, c := range cases {
		got := Merge(c.a, c.b, EquivKind).String()
		if got != c.want {
			t.Errorf("Merge(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestMergeRecordsKind(t *testing.T) {
	r1 := NewRecord(Field{Name: "a", Type: Int}, Field{Name: "b", Type: Str})
	r2 := NewRecord(Field{Name: "a", Type: Int}, Field{Name: "c", Type: Bool})
	m := Merge(r1, r2, EquivKind)
	if m.Kind != KRecord {
		t.Fatalf("K-merge of records should be a record, got %v", m)
	}
	if got := m.String(); got != "{a: Int, b?: Str, c?: Bool}" {
		t.Errorf("K-merge = %s", got)
	}
}

func TestMergeRecordsLabel(t *testing.T) {
	r1 := NewRecord(Field{Name: "a", Type: Int}, Field{Name: "b", Type: Str})
	r2 := NewRecord(Field{Name: "a", Type: Int}, Field{Name: "c", Type: Bool})
	r3 := NewRecord(Field{Name: "a", Type: Num}, Field{Name: "b", Type: Str})
	m := MergeAll([]*Type{r1, r2, r3}, EquivLabel)
	if m.Kind != KUnion || len(m.Alts) != 2 {
		t.Fatalf("L-merge should keep two label sets apart, got %v", m)
	}
	// r1 and r3 share labels {a,b}: fused with a: Num.
	if got := m.String(); got != "({a: Num, b: Str} + {a: Int, c: Bool})" {
		t.Errorf("L-merge = %s", got)
	}
}

func TestMergeArrays(t *testing.T) {
	a1 := NewArray(Int)
	a2 := NewArray(Str)
	m := Merge(a1, a2, EquivKind)
	if got := m.String(); got != "[(Int + Str)]" {
		t.Errorf("array merge = %s", got)
	}
	empty := NewArray(nil)
	m2 := Merge(empty, a1, EquivKind)
	if got := m2.String(); got != "[Int]" {
		t.Errorf("empty-array merge = %s", got)
	}
}

func TestMergeCounts(t *testing.T) {
	i1 := Atom(KInt, 3)
	i2 := Atom(KInt, 4)
	if got := Merge(i1, i2, EquivKind).Count; got != 7 {
		t.Errorf("count = %d, want 7", got)
	}
	n := Atom(KNum, 2)
	m := Merge(i1, n, EquivKind)
	if m.Kind != KNum || m.Count != 5 {
		t.Errorf("Int+Num count merge = %v (count %d)", m, m.Count)
	}
	r1 := NewRecordCounted(2, Field{Name: "a", Type: Atom(KInt, 2), Count: 2})
	r2 := NewRecordCounted(3, Field{Name: "b", Type: Atom(KStr, 3), Count: 3})
	rm := Merge(r1, r2, EquivKind)
	if rm.Count != 5 {
		t.Errorf("record count = %d, want 5", rm.Count)
	}
	fa, _ := rm.Get("a")
	if fa.Count != 2 || !fa.Optional {
		t.Errorf("field a: count %d optional %v", fa.Count, fa.Optional)
	}
}

func TestMergeLatticeLaws(t *testing.T) {
	// Property tests over randomly generated types: commutativity,
	// associativity, idempotence (all up to count-insensitive
	// equality). Idempotence is stated on canonical types: Merge only
	// promises it for types in the equivalence's canonical form —
	// which everything this package produces is — and a random type
	// may contain shapes (a union of two records under K, say) that a
	// first merge is supposed to fuse; a self-merge canonicalises.
	// The generators are explicitly seeded so the laws are checked on
	// the same inputs every run.
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		e := e
		comm := func(s1, s2 int64) bool {
			a, b := randomType(s1, 3), randomType(s2, 3)
			return Equal(Merge(a, b, e), Merge(b, a, e))
		}
		assoc := func(s1, s2, s3 int64) bool {
			a, b, c := randomType(s1, 3), randomType(s2, 3), randomType(s3, 3)
			l := Merge(Merge(a, b, e), c, e)
			r := Merge(a, Merge(b, c, e), e)
			return Equal(l, r)
		}
		idem := func(s int64) bool {
			canon := Merge(randomType(s, 3), randomType(s, 3), e)
			return Equal(Merge(canon, canon, e), canon) &&
				Equal(MergeAll([]*Type{canon}, e), canon)
		}
		cfg := func(seed int64) *quick.Config {
			return &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}
		}
		if err := quick.Check(comm, cfg(101+int64(e))); err != nil {
			t.Errorf("equiv %v: commutativity: %v", e, err)
		}
		if err := quick.Check(assoc, cfg(202+int64(e))); err != nil {
			t.Errorf("equiv %v: associativity: %v", e, err)
		}
		if err := quick.Check(idem, cfg(303+int64(e))); err != nil {
			t.Errorf("equiv %v: idempotence: %v", e, err)
		}
	}
}

func TestMergeUpperBound(t *testing.T) {
	// Property: a <: Merge(a, b) and b <: Merge(a, b) under EquivKind...
	// except that K-merging records weakens required fields, which stays
	// an upper bound. Check with the membership test instead: values
	// matching a or b match the merge.
	f := func(s1, s2, s3 int64) bool {
		a, b := randomType(s1, 3), randomType(s2, 3)
		m := Merge(a, b, EquivKind)
		v := randomValueForTest(s3, 3)
		if a.Matches(v) || b.Matches(v) {
			return m.Matches(v)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSubtype(t *testing.T) {
	recAB := NewRecord(Field{Name: "a", Type: Int}, Field{Name: "b", Type: Str})
	recABopt := NewRecord(Field{Name: "a", Type: Int}, Field{Name: "b", Type: Str, Optional: true})
	recABC := NewRecord(Field{Name: "a", Type: Int}, Field{Name: "b", Type: Str}, Field{Name: "c", Type: Bool, Optional: true})
	cases := []struct {
		a, b *Type
		want bool
	}{
		{Bottom, Int, true},
		{Int, Any, true},
		{Any, Int, false},
		{Int, Num, true},
		{Num, Int, false},
		{Int, Union(Int, Str), true},
		{Union(Int, Str), Union(Int, Str, Null), true},
		{Union(Int, Str), Int, false},
		{NewArray(Int), NewArray(Num), true},
		{NewArray(Num), NewArray(Int), false},
		{recAB, recABopt, true},  // required b fits optional b
		{recABopt, recAB, false}, // optional b may be missing
		{recAB, recABC, true},    // width: extra optional field ok
		{recABC, recAB, false},   // c not admitted by recAB (closed)
		{recAB, recAB, true},
		{NewArray(Bottom), NewArray(Int), true},
	}
	for i, c := range cases {
		if got := Subtype(c.a, c.b); got != c.want {
			t.Errorf("case %d: Subtype(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
	if !Subtype(Union(Int, Str), Union(Str, Int)) || !Subtype(Union(Str, Int), Union(Int, Str)) {
		t.Error("union order should not matter for equivalence")
	}
}

func TestSubtypeSoundness(t *testing.T) {
	// Property: Subtype(a, b) implies values of a are values of b.
	f := func(s1, s2, s3 int64) bool {
		a, b := randomType(s1, 3), randomType(s2, 3)
		if !Subtype(a, b) {
			return true
		}
		v := randomValueForTest(s3, 3)
		if a.Matches(v) && !b.Matches(v) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestMatches(t *testing.T) {
	ty := NewRecord(
		Field{Name: "id", Type: Int},
		Field{Name: "name", Type: Str},
		Field{Name: "tags", Type: NewArray(Str), Optional: true},
	)
	ok := jsontext.MustParse(`{"id": 1, "name": "x", "tags": ["a"]}`)
	if !ty.Matches(ok) {
		t.Error("valid doc rejected")
	}
	if !ty.Matches(jsontext.MustParse(`{"id": 1, "name": "x"}`)) {
		t.Error("optional field absence rejected")
	}
	bad := []string{
		`{"id": "1", "name": "x"}`,      // wrong type
		`{"name": "x"}`,                 // missing required
		`{"id": 1, "name": "x", "z":1}`, // closed record
		`{"id": 1, "name": "x", "tags": [1]}`,
		`[1]`,
		`null`,
	}
	for _, s := range bad {
		if ty.Matches(jsontext.MustParse(s)) {
			t.Errorf("invalid doc accepted: %s", s)
		}
	}
	if !Union(Null, Int).Matches(jsontext.MustParse(`null`)) {
		t.Error("union membership failed")
	}
	if Bottom.Matches(jsontext.MustParse(`1`)) {
		t.Error("Bottom matched a value")
	}
	if !Any.Matches(jsontext.MustParse(`{"x": [1]}`)) {
		t.Error("Any rejected a value")
	}
	if !Int.Matches(jsontext.MustParse(`5`)) || Int.Matches(jsontext.MustParse(`5.5`)) {
		t.Error("Int refinement wrong")
	}
	if !Num.Matches(jsontext.MustParse(`5`)) {
		t.Error("Num should cover integers")
	}
}

func TestSize(t *testing.T) {
	ty := NewRecord(
		Field{Name: "a", Type: Int},
		Field{Name: "b", Type: NewArray(Union(Int, Str))},
	)
	// record(1) + field a(1)+Int(1) + field b(1)+array(1)+union(1)+Int(1)+Str(1) = 8
	if got := ty.Size(); got != 8 {
		t.Errorf("Size = %d, want 8", got)
	}
}

func TestStringRendering(t *testing.T) {
	ty := NewRecordCounted(10,
		Field{Name: "a", Type: Atom(KInt, 10), Count: 10},
		Field{Name: "b", Type: Atom(KStr, 4), Optional: true, Count: 4},
	)
	if got := ty.String(); got != "{a: Int, b?: Str}" {
		t.Errorf("String = %s", got)
	}
	if got := ty.StringCounted(); got != "{a:10: Int(10), b?:4: Str(4)}(10)" {
		t.Errorf("StringCounted = %s", got)
	}
}

// TestRenderIsString pins the streamed rendering: Render writes exactly
// String (or StringCounted) and a newline, for every fixture under K and
// L, in writes no larger than its buffer — the sparse fixture's L schema
// outgrows it, so it is written in several — and a writer's error is
// returned, with nothing rendered after it.
func TestRenderIsString(t *testing.T) {
	flushed := false
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		for name, s := range fixtureSchemas(t, e) {
			for _, counted := range []bool{false, true} {
				want := s.String()
				if counted {
					want = s.StringCounted()
				}
				want += "\n"
				var w chunkWriter
				if err := s.Render(&w, counted); err != nil {
					t.Fatalf("%s/%v counted=%v: %v", name, e, counted, err)
				}
				if got := w.buf.String(); got != want {
					t.Errorf("%s/%v counted=%v: Render differs from the string\n want: %s\n got:  %s", name, e, counted, want, got)
				}
				for i, n := range w.writes {
					if n > renderFlush+renderFlush/8 || (i < len(w.writes)-1 && n < renderFlush) {
						t.Errorf("%s/%v counted=%v: write %d of %d is %d bytes", name, e, counted, i, len(w.writes), n)
					}
				}
				flushed = flushed || len(w.writes) > 1

				for _, limit := range []int{0, 7, len(want) / 2, len(want) - 1} {
					f := &failingWriter{limit: limit}
					err := s.Render(f, counted)
					if !errors.Is(err, errWriteFailed) || f.failed != 1 || !strings.HasPrefix(want, f.buf.String()) {
						t.Errorf("%s/%v counted=%v, writer failing after %d bytes: err %v, %d failed writes, wrote %q", name, e, counted, limit, err, f.failed, f.buf.String())
					}
				}
			}
		}
	}
	if !flushed {
		t.Error("no fixture's rendering outgrew the buffer")
	}
}

// chunkWriter records what it is written and the size of each write.
type chunkWriter struct {
	buf    bytes.Buffer
	writes []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.buf.Write(p)
}

var errWriteFailed = errors.New("write failed")

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct {
	buf    bytes.Buffer
	limit  int
	failed int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if room := w.limit - w.buf.Len(); len(p) > room {
		w.buf.Write(p[:room])
		w.failed++
		return room, errWriteFailed
	}
	return w.buf.Write(p)
}

func TestPrecisionOrdering(t *testing.T) {
	// A drifting field: ints in half the docs, strings in the other.
	var docs []*jsonvalue.Value
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			docs = append(docs, jsonvalue.ObjectFromPairs("x", i))
		} else {
			docs = append(docs, jsonvalue.ObjectFromPairs("x", "s"))
		}
	}
	exactT := NewRecord(Field{Name: "x", Type: Union(Int, Str)})
	sparkT := NewRecord(Field{Name: "x", Type: Str}) // the Spark collapse
	anyT := NewRecord(Field{Name: "x", Type: Any})
	pe, ps, pa := Precision(exactT, docs), Precision(sparkT, docs), Precision(anyT, docs)
	if !(pe > ps && ps >= pa) {
		t.Errorf("precision ordering violated: exact=%.2f spark=%.2f any=%.2f", pe, ps, pa)
	}
	if pe != 1 {
		t.Errorf("exact union precision = %.2f, want 1", pe)
	}
}

func TestDistinctRecordAlternatives(t *testing.T) {
	r1 := NewRecord(Field{Name: "a", Type: Int})
	r2 := NewRecord(Field{Name: "b", Type: Int})
	m := Merge(r1, r2, EquivLabel)
	if got := DistinctRecordAlternatives(m); got != 2 {
		t.Errorf("alternatives = %d, want 2", got)
	}
	k := Merge(r1, r2, EquivKind)
	if got := DistinctRecordAlternatives(k); got != 1 {
		t.Errorf("K alternatives = %d, want 1", got)
	}
	if DistinctRecordAlternatives(Int) != 0 {
		t.Error("atom should have 0 record alternatives")
	}
}

// randomType builds a deterministic pseudo-random type.
func randomType(seed int64, depth int) *Type {
	s := uint64(seed)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var gen func(d int) *Type
	gen = func(d int) *Type {
		k := next() % 9
		if d <= 0 && k >= 6 {
			k = next() % 6
		}
		switch k {
		case 0:
			return Null
		case 1:
			return Bool
		case 2:
			return Int
		case 3:
			return Num
		case 4:
			return Str
		case 5:
			if next()%8 == 0 {
				return Any
			}
			return Str
		case 6:
			n := int(next() % 4)
			fields := make([]Field, 0, n)
			for i := 0; i < n; i++ {
				fields = append(fields, Field{
					Name:     string(rune('a' + i)),
					Type:     gen(d - 1),
					Optional: next()%3 == 0,
				})
			}
			return NewRecord(fields...)
		case 7:
			return NewArray(gen(d - 1))
		default:
			return Merge(gen(d-1), gen(d-1), EquivLabel)
		}
	}
	return gen(depth)
}

// randomValueForTest builds a deterministic pseudo-random JSON value.
func randomValueForTest(seed int64, depth int) *jsonvalue.Value {
	s := uint64(seed) ^ 0xabcdef
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var gen func(d int) *jsonvalue.Value
	gen = func(d int) *jsonvalue.Value {
		k := next() % 7
		if d <= 0 && k >= 5 {
			k = next() % 5
		}
		switch k {
		case 0:
			return jsonvalue.NewNull()
		case 1:
			return jsonvalue.NewBool(next()%2 == 0)
		case 2:
			return jsonvalue.NewInt(int64(next() % 100))
		case 3:
			return jsonvalue.NewNumber(float64(next()%100) + 0.5)
		case 4:
			return jsonvalue.NewString("s")
		case 5:
			n := int(next() % 3)
			elems := make([]*jsonvalue.Value, n)
			for i := range elems {
				elems[i] = gen(d - 1)
			}
			return jsonvalue.NewArray(elems...)
		default:
			n := int(next() % 3)
			fields := make([]jsonvalue.Field, n)
			for i := range fields {
				fields[i] = jsonvalue.Field{Name: string(rune('a' + i)), Value: gen(d - 1)}
			}
			return jsonvalue.NewObject(fields...)
		}
	}
	return gen(depth)
}
