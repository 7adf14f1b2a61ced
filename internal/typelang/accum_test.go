package typelang

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

// sealOf folds ts through a fresh accumulator and seals.
func sealOf(e Equiv, ts ...*Type) *Type {
	a := NewAccum(e)
	for _, t := range ts {
		a.Absorb(t)
	}
	return a.Seal()
}

// empty reports whether anything has been absorbed into a since its
// construction or its last Reset.
func empty(a *Accum) bool {
	n := &a.node
	return n.kinds == 0 && (n.arr == nil || n.arr.n == 0) && n.live == 0
}

// identical is the byte-identity relation the accumulator is pinned
// under: same structure, same plain rendering, same counted rendering
// (which covers counts, optionality and alternative order).
func identical(a, b *Type) bool {
	return Equal(a, b) && a.String() == b.String() && a.StringCounted() == b.StringCounted()
}

// TestAccumMatchesMergeAll is the core contract: folding any sequence
// of canonical types through an Accum and sealing must be
// byte-identical — rendering and counts — to MergeAll over the same
// sequence, under both equivalences.
func TestAccumMatchesMergeAll(t *testing.T) {
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		e := e
		f := func(s1, s2, s3, s4 int64) bool {
			ts := []*Type{randomType(s1, 3), randomType(s2, 3), randomType(s3, 3), randomType(s4, 3)}
			want := MergeAll(ts, e)
			got := sealOf(e, ts...)
			return identical(want, got)
		}
		cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(41 + int64(e)))}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("equiv %v: accum vs MergeAll: %v", e, err)
		}
	}
}

// TestAccumLatticeLaws runs the merge lattice laws through the
// accumulator: commutativity and associativity hold exactly (including
// counts, since counts are commutative sums), idempotence up to counts
// on canonical inputs — the same contract TestMergeLatticeLaws pins on
// Merge itself.
func TestAccumLatticeLaws(t *testing.T) {
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		e := e
		comm := func(s1, s2 int64) bool {
			a, b := randomType(s1, 3), randomType(s2, 3)
			return identical(sealOf(e, a, b), sealOf(e, b, a))
		}
		assoc := func(s1, s2, s3 int64) bool {
			a, b, c := randomType(s1, 3), randomType(s2, 3), randomType(s3, 3)
			// Left-grouped: seal {a,b} first, feed the sealed type on.
			l := sealOf(e, sealOf(e, a, b), c)
			// Right-grouped.
			r := sealOf(e, a, sealOf(e, b, c))
			return identical(l, r) && identical(l, sealOf(e, a, b, c))
		}
		idem := func(s int64) bool {
			canon := Merge(randomType(s, 3), randomType(s, 3), e)
			return Equal(sealOf(e, canon, canon), canon) && Equal(sealOf(e, canon), canon)
		}
		cfg := func(seed int64) *quick.Config {
			return &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}
		}
		if err := quick.Check(comm, cfg(811+int64(e))); err != nil {
			t.Errorf("equiv %v: accum commutativity: %v", e, err)
		}
		if err := quick.Check(assoc, cfg(822+int64(e))); err != nil {
			t.Errorf("equiv %v: accum associativity: %v", e, err)
		}
		if err := quick.Check(idem, cfg(833+int64(e))); err != nil {
			t.Errorf("equiv %v: accum idempotence: %v", e, err)
		}
	}
}

// TestAccumIncrementalMatchesPairwiseFold pins the accumulator against
// the pairwise Merge fold document by document: after every absorb the
// seal equals the running Merge accumulator.
func TestAccumIncrementalMatchesPairwiseFold(t *testing.T) {
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		acc := NewAccum(e)
		ref := Bottom
		for i := int64(0); i < 60; i++ {
			doc := randomType(1000+i, 3)
			acc.Absorb(doc)
			ref = Merge(ref, doc, e)
			if got := acc.Seal(); !identical(ref, got) {
				t.Fatalf("equiv %v: after %d absorbs:\n merge: %s\n accum: %s",
					e, i+1, ref.StringCounted(), got.StringCounted())
			}
		}
	}
}

// TestAccumResetReuse pins the Reset contract: a reused accumulator —
// including one that absorbed completely different shapes before the
// reset — behaves exactly like a fresh one, and types sealed before the
// reset stay valid.
func TestAccumResetReuse(t *testing.T) {
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		a := NewAccum(e)
		for round := int64(0); round < 8; round++ {
			a.Reset()
			var ts []*Type
			for i := int64(0); i < 10; i++ {
				ts = append(ts, randomType(7000+100*round+i, 3))
			}
			for _, d := range ts {
				a.Absorb(d)
			}
			got := a.Seal()
			want := MergeAll(ts, e)
			if !identical(want, got) {
				t.Fatalf("equiv %v round %d: reused accum diverges\n want: %s\n got:  %s",
					e, round, want.StringCounted(), got.StringCounted())
			}
			rendered := got.StringCounted()
			a.Reset()
			a.Absorb(randomType(99*round, 3))
			if got.StringCounted() != rendered {
				t.Fatalf("equiv %v round %d: sealed type mutated by reuse", e, round)
			}
		}
	}
}

// TestAccumResetLabelGroups exercises the L-group recycling invariant
// directly: after a reset, a group is only recycled by its exact label
// set, so an empty record and the old label set stay separate
// alternatives.
func TestAccumResetLabelGroups(t *testing.T) {
	rab := NewRecordCounted(1, Field{Name: "a", Type: Atom(KInt, 1), Count: 1}, Field{Name: "b", Type: Atom(KStr, 1), Count: 1})
	empty := &Type{Kind: KRecord, Count: 1}
	ra := NewRecordCounted(1, Field{Name: "a", Type: Atom(KInt, 1), Count: 1})

	a := NewAccum(EquivLabel)
	a.Absorb(rab)
	a.Seal()
	a.Reset()
	for _, seq := range [][]*Type{{empty, rab, ra}, {ra, empty}, {rab, rab}} {
		a.Reset()
		for _, d := range seq {
			a.Absorb(d)
		}
		want := MergeAll(seq, EquivLabel)
		if got := a.Seal(); !identical(want, got) {
			t.Fatalf("recycled groups diverge\n want: %s\n got:  %s",
				want.StringCounted(), got.StringCounted())
		}
	}
}

// TestAccumEdgeCases covers the explicit corner semantics: empty seal,
// Bottom no-ops, Any collapse with counts, Int/Num absorption, empty
// and unknown-bound arrays.
func TestAccumEdgeCases(t *testing.T) {
	a := NewAccum(EquivKind)
	if !empty(a) || a.Seal() != Bottom {
		t.Error("fresh accum should seal to Bottom")
	}
	a.Absorb(nil)
	a.Absorb(Bottom)
	if !empty(a) {
		t.Error("nil/Bottom absorbs should be no-ops")
	}

	cases := []struct {
		name string
		ts   []*Type
	}{
		{"any-collapse", []*Type{Atom(KInt, 3), Atom(KAny, 2), Atom(KStr, 4)}},
		{"int-num", []*Type{Atom(KInt, 3), Atom(KNum, 2), Atom(KInt, 1)}},
		{"int-only", []*Type{Atom(KInt, 3), Atom(KInt, 4)}},
		{"empty-array", []*Type{NewArrayCounted(nil, 1, 0, 0), NewArrayCounted(Atom(KInt, 2), 1, 2, 2)}},
		{"unbounded-array", []*Type{NewArrayCounted(Atom(KInt, 1), 1, 1, -1), NewArrayCounted(Atom(KInt, 2), 1, 2, 2)}},
		{"union-in", []*Type{Union(Int, Str), Union(Bool, Num)}},
		{"atoms-uncounted", []*Type{Null, Bool, Int, Num, Str}},
	}
	for _, c := range cases {
		for _, e := range []Equiv{EquivKind, EquivLabel} {
			want := MergeAll(c.ts, e)
			got := sealOf(e, c.ts...)
			if !identical(want, got) {
				t.Errorf("%s/%v:\n want: %s\n got:  %s", c.name, e,
					want.StringCounted(), got.StringCounted())
			}
		}
	}
}

// TestAccumSealMemoised pins the seal cache: repeated seals without
// absorbs return the identical node, and any absorb invalidates it.
func TestAccumSealMemoised(t *testing.T) {
	a := NewAccum(EquivLabel)
	a.Absorb(NewRecordCounted(1, Field{Name: "x", Type: Atom(KInt, 1), Count: 1}))
	s1 := a.Seal()
	if s2 := a.Seal(); s1 != s2 {
		t.Error("seal without new absorbs should be memoised")
	}
	a.Absorb(NewRecordCounted(1, Field{Name: "x", Type: Atom(KStr, 1), Count: 1}))
	s3 := a.Seal()
	if s3 == s1 {
		t.Error("absorb should invalidate the memoised seal")
	}
	if s1.StringCounted() != "{x:1: Int(1)}(1)" {
		t.Errorf("earlier seal mutated: %s", s1.StringCounted())
	}
}

// TestAccumUnsortedRecordInput exercises the non-canonical-input escape
// hatch: a hand-built record with unsorted fields still folds into a
// sorted, duplicate-free table.
func TestAccumUnsortedRecordInput(t *testing.T) {
	unsorted := &Type{Kind: KRecord, Count: 1, Fields: []Field{
		{Name: "z", Type: Int, Count: 1},
		{Name: "a", Type: Str, Count: 1},
		{Name: "m", Type: Bool, Count: 1},
	}}
	got := sealOf(EquivKind, unsorted, unsorted)
	if got.String() != "{a: Str, m: Bool, z: Int}" {
		t.Errorf("unsorted input not normalised: %s", got.String())
	}
}

func BenchmarkAccumAbsorb(b *testing.B) {
	docs := make([]*Type, 64)
	for i := range docs {
		docs[i] = randomType(int64(9000+i), 3)
	}
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		e := e
		b.Run(fmt.Sprintf("accum-%v", e), func(b *testing.B) {
			b.ReportAllocs()
			a := NewAccum(e)
			for i := 0; i < b.N; i++ {
				a.Reset()
				for _, d := range docs {
					a.Absorb(d)
				}
				a.Seal()
			}
		})
		b.Run(fmt.Sprintf("mergeall-%v", e), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MergeAll(docs, e)
			}
		})
	}
}

// TestAccumManyLabelGroups crosses the smallRecordGroups threshold so
// group lookup switches from the linear scan to the label-key index,
// and pins the result (and a post-reset reuse round) against MergeAll,
// under K and L. Each label set arrives by all three routes to a group,
// interleaved: sealed (Absorb), staged at the root (EndRecord) and
// staged inside a root array (EndArray's absorbNode, where the element
// node and the root-array staging node cross the threshold too).
func TestAccumManyLabelGroups(t *testing.T) {
	var ts []*Type
	for i := 0; i < 3*smallRecordGroups; i++ {
		fields := []Field{{Name: fmt.Sprintf("f%02d", i), Type: Atom(KInt, 1), Count: 1}}
		if i%3 == 0 {
			fields = append(fields, Field{Name: "shared", Type: Atom(KStr, 1), Count: 1})
		}
		ts = append(ts, NewRecordCounted(1, fields...))
	}
	// Empty-label-set records must stay their own group alongside the
	// indexed ones.
	ts = append(ts, &Type{Kind: KRecord, Count: 1}, &Type{Kind: KRecord, Count: 1})
	// Absorb each shape twice so indexed lookups hit existing groups.
	ts = append(ts, ts...)

	stage := func(dst Target, d *Type) {
		r := dst.BeginRecord()
		for _, f := range d.Fields {
			r.Field(f.Name).AbsorbKind(f.Type.Kind)
		}
		dst.EndRecord(r, nil)
	}
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		a := NewAccum(e)
		for round := 0; round < 2; round++ {
			a.Reset()
			var all []*Type
			for i, d := range ts {
				for route := range 3 {
					switch (i + route) % 3 {
					case 0:
						a.Absorb(d)
						all = append(all, d)
					case 1:
						stage(a.Doc(), d)
						all = append(all, d)
					case 2:
						stage(a.Doc().BeginArray(), d)
						a.Doc().EndArray(1)
						all = append(all, NewArrayCounted(d, 1, 1, 1))
					}
				}
			}
			want := MergeAll(all, e)
			if got := a.Seal(); !identical(want, got) {
				t.Fatalf("%v round %d: indexed groups diverge\n want: %s\n got:  %s",
					e, round, want.StringCounted(), got.StringCounted())
			}
			if e == EquivLabel && (a.node.recIndex == nil || a.node.arr.elem.recIndex == nil) {
				t.Fatalf("round %d: the root or the array element node never indexed its groups", round)
			}
			if d := a.stagingDirt(); d != "" {
				t.Fatalf("%v round %d: staging not clean: %s", e, round, d)
			}
		}
	}
}

// TestLabelKeyIsInjectiveAndOrdered pins the label-set key all three
// builders share (appendLabel): over names that hold the terminator and
// the escape byte themselves, two label lists get the same key only if
// they are the same list, and keys order exactly as the lists do — so
// terminating and escaping moved no union's canonical order.
func TestLabelKeyIsInjectiveAndOrdered(t *testing.T) {
	alphabet := []string{"", "\x00", "\x01", "\x01\x01", "\x00\x01", "a", "a\x00", "a\x00b", "a\x01", "b", "\x02", "\xff"}
	r := rand.New(rand.NewSource(23))
	list := func() []string {
		names := make([]string, r.Intn(4))
		for i := range names {
			names[i] = alphabet[r.Intn(len(alphabet))]
		}
		return names
	}
	key := func(names []string) string {
		fields := make([]Field, len(names))
		for i, n := range names {
			fields[i] = Field{Name: n, Type: Atom(KInt, 1), Count: 1}
		}
		// Not through NewRecord: the key renders the list as given.
		return labelKey(&Type{Kind: KRecord, Fields: fields, Count: 1})
	}
	for i := 0; i < 20000; i++ {
		a, b := list(), list()
		if got, want := strings.Compare(key(a), key(b)), slices.CompareFunc(a, b, strings.Compare); got != want {
			t.Fatalf("keys of %q and %q compare %d, the lists %d", a, b, got, want)
		}
	}
	for _, names := range [][]string{{"a", "b"}, {"k0", "k1", "k10"}, {"x"}} {
		if got, want := key(names), strings.Join(names, "\x00")+"\x00"; got != want {
			t.Errorf("key of %q is %q, want the names NUL-terminated %q", names, got, want)
		}
	}
}

// TestShapedRecordsFindTheirLabelSet: records closed with a Shape find
// their group by the shape's address, and that must be the group their
// label set has — for the label sets the key once confused, for two
// layouts of one label set, below and past the label-key index.
func TestShapedRecordsFindTheirLabelSet(t *testing.T) {
	layouts := [][]string{{""}, {}, {"a\x00b"}, {"a", "b"}, {"b", "a"}, {"b"}}
	for _, pad := range []int{0, smallRecordGroups + 4} {
		a := NewAccum(EquivLabel)
		var all []*Type
		for i := 0; i < pad; i++ {
			rec := NewRecordCounted(1, Field{Name: fmt.Sprintf("pad%d", i), Type: Atom(KNull, 1), Count: 1})
			a.Absorb(rec)
			all = append(all, rec)
		}
		shapes := make([]*Shape, len(layouts))
		for round := 0; round < 3; round++ {
			for i, names := range layouts {
				r := a.Doc().BeginRecord()
				fields := make([]Field, len(names))
				for j, name := range names {
					r.Stage(name).AbsorbKind(KInt)
					fields[j] = Field{Name: name, Type: Atom(KInt, 1), Count: 1}
				}
				if round == 1 { // unshaped in between: the group keeps the shape it knows
					a.Doc().EndRecord(r, nil)
				} else {
					if shapes[i] == nil {
						shapes[i] = NewShape(names)
					}
					a.Doc().EndRecord(r, shapes[i])
				}
				all = append(all, NewRecordCounted(1, fields...))
			}
		}
		if want, got := MergeAll(all, EquivLabel), a.Seal(); !identical(want, got) {
			t.Errorf("pad %d: shaped staging diverges from MergeAll\n want: %s\n got:  %s", pad, want.StringCounted(), got.StringCounted())
		}
		if got := DistinctRecordAlternatives(a.Seal()); got != pad+len(layouts)-1 {
			t.Errorf("pad %d: %d record types, want %d", pad, got, pad+len(layouts)-1)
		}
	}
}

// fixtureSchemas seals every testdata fixture under e, each through the
// direct-absorption surface as the streamed engine folds it.
func fixtureSchemas(t *testing.T, e Equiv) map[string]*Type {
	t.Helper()
	out := make(map[string]*Type)
	for name, docs := range fixtureDocs(t) {
		out[name] = sealDocs(e, docs)
	}
	return out
}

// fixtureDocs parses every testdata fixture, by file name.
func fixtureDocs(t *testing.T) map[string][]*jsonvalue.Value {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata fixtures found (err %v)", err)
	}
	out := make(map[string][]*jsonvalue.Value, len(files))
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs, err := jsontext.ParseLines(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[filepath.Base(name)] = docs
	}
	return out
}

// sealDocs stages docs through a fresh accumulator under e and seals.
func sealDocs(e Equiv, docs []*jsonvalue.Value) *Type {
	a := NewAccum(e)
	for _, d := range docs {
		absorbValue(a.Doc(), d)
	}
	return a.Seal()
}

// walkTypes calls fn on t and on every node below it.
func walkTypes(t *Type, fn func(*Type)) {
	fn(t)
	switch t.Kind {
	case KRecord:
		for _, f := range t.Fields {
			walkTypes(f.Type, fn)
		}
	case KArray:
		walkTypes(t.Elem, fn)
	case KUnion:
		for _, a := range t.Alts {
			walkTypes(a, fn)
		}
	}
}

// isAtom reports whether k is an atom kind a seal may share.
func isAtom(k Kind) bool { return int(k) < len(onceAtoms) && onceAtoms[k] != nil }

// TestSealOnceAtomsShare pins what sealing costs on high-cardinality L
// data, where almost every field is an atom seen once: a one-atom node
// seals to its atom with no alternatives slice, and an atom counted
// once is its kind's shared node. Sealing a root record of eight atom
// fields — held as staged, or spread into a table — allocates its
// []Field and its record node, nothing else; every count-1 atom of a
// sealed fixture is the shared node of its kind, and no other atom is.
func TestSealOnceAtomsShare(t *testing.T) {
	kinds := []Kind{KInt, KStr, KBool, KNull, KNum, KInt, KStr, KStr}
	stage := func(dst Target) *OpenRecord {
		r := dst.BeginRecord()
		for i, k := range kinds {
			r.Field(fmt.Sprintf("f%d", i)).AbsorbKind(k)
		}
		return r
	}
	a := NewAccum(EquivLabel)
	r := stage(a.Doc())
	if allocs := testing.AllocsPerRun(100, func() { a.sealStaged(r.fields) }); allocs != 2 {
		t.Errorf("sealing a staged record of %d atoms: %.1f allocs, want 2", len(kinds), allocs)
	}
	a.Doc().EndRecord(r, nil)
	held := a.Seal()
	a.Reset() // the held group becomes a clean table of its label set
	a.Doc().EndRecord(stage(a.Doc()), nil)
	if ra := a.node.recs[0]; ra.held != nil || len(ra.fields) != len(kinds) {
		t.Fatalf("the second round's record is not in a table (held %v, %d slots)", ra.held != nil, len(ra.fields))
	}
	if allocs := testing.AllocsPerRun(100, func() { a.node.seal(a.equiv) }); allocs != 2 {
		t.Errorf("sealing an accumulator of one record of %d atoms: %.1f allocs, want 2", len(kinds), allocs)
	}
	for _, s := range []*Type{held, a.Seal()} {
		for _, f := range s.Fields {
			if f.Type != onceAtoms[f.Type.Kind] {
				t.Errorf("field %s: %s(%d) is not the shared node of its kind", f.Name, f.Type.Kind, f.Type.Count)
			}
		}
	}

	for _, e := range []Equiv{EquivKind, EquivLabel} {
		for name, s := range fixtureSchemas(t, e) {
			shared := 0
			walkTypes(s, func(n *Type) {
				if !isAtom(n.Kind) {
					return
				}
				if (n == onceAtoms[n.Kind]) != (n.Count == 1) {
					t.Errorf("%s/%v: %s(%d) shared=%v", name, e, n.Kind, n.Count, n == onceAtoms[n.Kind])
				}
				if n.Count == 1 {
					shared++
				}
			})
			if name == "sparse.ndjson" && e == EquivLabel && shared == 0 {
				t.Errorf("%s/%v: no count-1 atom to share", name, e)
			}
		}
	}

	twice := sealOf(EquivLabel, NewRecordCounted(1, Field{Name: "a", Type: Atom(KInt, 1), Count: 1}),
		NewRecordCounted(1, Field{Name: "a", Type: Atom(KInt, 1), Count: 1}))
	if f := twice.Fields[0]; f.Type.Count != 2 || f.Type == onceAtoms[KInt] {
		t.Errorf("a count-2 atom: %s(%d) shared=%v", f.Type.Kind, f.Type.Count, f.Type == onceAtoms[KInt])
	}
}

// TestSharedAtomsConcurrentSealAndRender seals and renders every
// fixture under K and L on two goroutines at once, simplifying and
// merging the results as well, so the race detector sees any write to
// the atoms the seals share; afterwards every shared atom still reads
// its kind and count 1. (internal/core's TestSharedAtomsStayImmutable
// drives the converters the same way.)
func TestSharedAtomsConcurrentSealAndRender(t *testing.T) {
	fixtures := fixtureDocs(t)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range []Equiv{EquivKind, EquivLabel} {
				var prev *Type
				for _, docs := range fixtures {
					s := sealDocs(e, docs)
					_ = s.String()
					_ = s.StringCounted()
					if err := s.Render(io.Discard, true); err != nil {
						t.Error(err)
					}
					_ = Simplify(s).StringCounted()
					if prev != nil {
						_ = MergeAll([]*Type{prev, s, s}, e).StringCounted()
					}
					prev = s
				}
			}
		}()
	}
	wg.Wait()
	for k, at := range onceAtoms {
		if at != nil && (at.Kind != Kind(k) || at.Count != 1 || at.Fields != nil || at.Alts != nil || at.Elem != nil) {
			t.Errorf("the shared %s atom changed: %+v", Kind(k), *at)
		}
	}
}

// TestAbsorbSealedIsIdentity pins the held-group shortcut: sealing
// after one Absorb of a sealed type gives that type back, and each of
// its record alternatives is the very node absorbed — no group opened
// with a sealed record builds a field table.
func TestAbsorbSealedIsIdentity(t *testing.T) {
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		for name, s := range fixtureSchemas(t, e) {
			a := NewAccum(e)
			a.Absorb(s)
			got := a.Seal()
			if got.StringCounted() != s.StringCounted() {
				t.Errorf("%s/%v: seal of the absorbed schema differs\n want: %s\n got:  %s", name, e, s.StringCounted(), got.StringCounted())
				continue
			}
			want, have := recordAlts(s), recordAlts(got)
			for i := range want {
				if want[i] != have[i] {
					t.Errorf("%s/%v: record alternative %d was rebuilt", name, e, i)
				}
			}
		}
	}
}

// recordAlts lists t's record alternatives (t itself if a record).
func recordAlts(t *Type) []*Type {
	if t.Kind == KRecord {
		return []*Type{t}
	}
	var out []*Type
	for _, alt := range t.Alts {
		if alt.Kind == KRecord {
			out = append(out, alt)
		}
	}
	return out
}

// TestHeldGroupTakesEveryKindOfSecondRecord drives a held group's second
// record in through each surface — a sealed type, a staged record at the
// root (a window walked in line into the run's accumulator), a staged
// root array committed through absorbNode — and then a third sealed
// type, below and past the label-key index: after every step the seal
// must equal MergeAll over what was absorbed. Each document has a label
// set of its own, so its group is still held when it is staged.
func TestHeldGroupTakesEveryKindOfSecondRecord(t *testing.T) {
	docs := []*jsonvalue.Value{
		jsonvalue.ObjectFromPairs("a", 1, "b", jsonvalue.ObjectFromPairs("c", "x")),
		jsonvalue.NewArray(jsonvalue.ObjectFromPairs("a", 2.5), jsonvalue.ObjectFromPairs("d", nil)),
		jsonvalue.ObjectFromPairs("x", jsonvalue.ObjectFromPairs("c", 1, "e", true)),
	}
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		for _, pad := range []int{0, smallRecordGroups + 4} {
			// The sealed side: the same documents, each sealed alone,
			// plus pad label sets that only ever arrive sealed.
			var sealed []*Type
			for i := 0; i < pad; i++ {
				sealed = append(sealed, sealOf(e, NewRecordCounted(1, Field{Name: fmt.Sprintf("p%02d", i), Type: Atom(KInt, 1), Count: 1})))
			}
			for _, d := range docs {
				s := NewAccum(e)
				absorbValue(s.Doc(), d)
				sealed = append(sealed, s.Seal())
			}
			a := NewAccum(e)
			var all []*Type
			check := func(step string) {
				t.Helper()
				if want, got := MergeAll(all, e), a.Seal(); !identical(want, got) {
					t.Fatalf("%v pad %d, after %s: diverges from MergeAll\n want: %s\n got:  %s", e, pad, step, want.StringCounted(), got.StringCounted())
				}
			}
			for _, s := range sealed {
				a.Absorb(s)
				all = append(all, s)
			}
			check("the sealed types")
			for i, d := range docs {
				absorbValue(a.Doc(), d)
				all = append(all, sealed[pad+i])
				check(fmt.Sprintf("staged document %d", i))
			}
			for i, s := range sealed[pad:] {
				a.Absorb(s)
				all = append(all, s)
				check(fmt.Sprintf("sealed document %d again", i))
			}
		}
	}
}

// TestResetDropsHeldGroups: a held group must not survive a reset as a
// clean group standing in for a label set its table does not hold — a
// staged record of that label set afterwards is the schema's one
// record alternative, below and past the label-key index.
func TestResetDropsHeldGroups(t *testing.T) {
	doc := jsonvalue.ObjectFromPairs("a", 1, "b", "s")
	for _, n := range []int{1, 3 * smallRecordGroups} {
		var alts []*Type
		for i := 0; i < n-1; i++ {
			alts = append(alts, NewRecordCounted(1, Field{Name: fmt.Sprintf("p%02d", i), Type: Atom(KInt, 1), Count: 1}))
		}
		alts = append(alts, NewRecordCounted(1, Field{Name: "a", Type: Atom(KStr, 1), Count: 1}, Field{Name: "b", Type: Atom(KStr, 1), Count: 1}))
		a := NewAccum(EquivLabel)
		a.Absorb(MergeAll(alts, EquivLabel))
		a.Reset()
		for _, ra := range a.node.recs {
			if ra.held != nil {
				t.Fatalf("%d groups: a reset kept the held group %s", n, ra.held)
			}
		}
		absorbValue(a.Doc(), doc)
		got := a.Seal()
		if k := DistinctRecordAlternatives(got); k != 1 {
			t.Errorf("%d groups: %d record alternatives after the reset, want 1: %s", n, k, got.StringCounted())
		}
		if want := "{a:1: Int(1), b:1: Str(1)}(1)"; got.StringCounted() != want {
			t.Errorf("%d groups: got %s, want %s", n, got.StringCounted(), want)
		}
	}
}

// TestIndexedGroupLookupAllocatesNothing: once an L node has outgrown
// the linear scan, finding a record's group by its label key is free —
// only a group being born makes its key string.
func TestIndexedGroupLookupAllocatesNothing(t *testing.T) {
	var alts []*Type
	for i := 0; i < 2*smallRecordGroups; i++ {
		alts = append(alts, NewRecordCounted(1,
			Field{Name: fmt.Sprintf("k%02d", i), Type: Atom(KInt, 1), Count: 1},
			Field{Name: "shared", Type: Atom(KStr, 1), Count: 1}))
	}
	u := MergeAll(alts, EquivLabel)
	a := NewAccum(EquivLabel)
	a.Absorb(u) // every group held
	a.Absorb(u) // every group unheld: tables built
	if allocs := testing.AllocsPerRun(20, func() { a.Absorb(u) }); allocs != 0 {
		t.Errorf("absorbing a seen union of %d label sets: %.1f allocs, want 0", len(alts), allocs)
	}
}
