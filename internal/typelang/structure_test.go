package typelang

import (
	"math/rand"
	"testing"

	"repro/internal/jsonvalue"
)

// checkSameStructure asserts SameStructure's contract on a, whose
// earlier seal is prev: it answers true exactly when a seal now renders
// as prev does without counts (String shows every alternative, label,
// optionality and element type, and no count or bound). It seals a.
func checkSameStructure(t *testing.T, where string, a *Accum, prev *Type) {
	t.Helper()
	got := a.SameStructure(prev)
	now := a.Seal()
	if want := now.String() == prev.String(); got != want {
		t.Fatalf("%s: SameStructure = %v, want %v\n then: %s\n  now: %s", where, got, want, prev, now)
	}
}

// TestSameStructureFollowsSeal folds every fixture under K and L a few
// documents at a time — through the staged surface and as sealed
// per-document types, which hold records below the root too — and after
// each step checks SameStructure against a seal that is sometimes the
// last one and sometimes several seals old.
func TestSameStructureFollowsSeal(t *testing.T) {
	for name, docs := range fixtureDocs(t) {
		for _, e := range []Equiv{EquivKind, EquivLabel} {
			rng := rand.New(rand.NewSource(int64(len(docs))))
			for _, sealed := range []bool{false, true} {
				a := NewAccum(e)
				prev := a.Seal()
				for i := 0; i < len(docs); {
					for k := 1 + rng.Intn(4); k > 0 && i < len(docs); k-- {
						if sealed {
							a.Absorb(sealDocs(e, docs[i:i+1]))
						} else {
							absorbValue(a.Doc(), docs[i])
						}
						i++
					}
					checkSameStructure(t, name+" "+e.String(), a, prev)
					if rng.Intn(3) == 0 {
						prev = a.Seal()
					}
				}
				// The whole fixture again moves counts only, and a held
				// group taking its second record keeps its structure.
				prev = a.Seal()
				for _, d := range docs {
					if sealed {
						a.Absorb(sealDocs(e, []*jsonvalue.Value{d}))
					} else {
						absorbValue(a.Doc(), d)
					}
				}
				if !a.SameStructure(prev) {
					t.Errorf("%s %s sealed=%v: a second pass over the same documents changed the structure", name, e, sealed)
				}
				checkSameStructure(t, name+" "+e.String()+" second pass", a, prev)
			}
		}
	}
}

// TestSameStructureRandomTypes runs the contract over random canonical
// types — unions, Any, nested arrays — absorbed a few at a time.
func TestSameStructureRandomTypes(t *testing.T) {
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		for seed := int64(0); seed < 200; seed++ {
			a := NewAccum(e)
			prev := a.Seal()
			for step := int64(0); step < 12; step++ {
				a.Absorb(randomType(seed*100+step%5, 3))
				checkSameStructure(t, e.String(), a, prev)
				if step%3 == 0 {
					prev = a.Seal()
				}
			}
		}
	}
}

// TestSameStructureSeesEachChange pins each kind of structural change
// against a collection whose counts alone then move: a new field, a new
// atom kind, Int turning Num (and not Num taking an Int), an array
// whose elements were never seen, a new label set, and under K a field
// turning optional.
func TestSameStructureSeesEachChange(t *testing.T) {
	base := trec{{"a", KInt}, {"b", trec{{"c", KStr}}}, {"l", []tdoc{}}, {"n", KNum}}
	cases := []struct {
		name  string
		equiv Equiv
		doc   tdoc
		same  bool
	}{
		{"counts only K", EquivKind, base, true},
		{"counts only L", EquivLabel, base, true},
		{"Int into Num K", EquivKind, trec{{"a", KInt}, {"b", trec{{"c", KStr}}}, {"l", []tdoc{}}, {"n", KInt}}, true},
		{"new field K", EquivKind, trec{{"a", KInt}, {"b", trec{{"c", KStr}}}, {"l", []tdoc{}}, {"n", KNum}, {"z", KNull}}, false},
		{"new nested field K", EquivKind, trec{{"a", KInt}, {"b", trec{{"c", KStr}, {"d", KStr}}}, {"l", []tdoc{}}, {"n", KNum}}, false},
		{"new atom kind K", EquivKind, trec{{"a", KStr}, {"b", trec{{"c", KStr}}}, {"l", []tdoc{}}, {"n", KNum}}, false},
		{"Int turns Num L", EquivLabel, trec{{"a", KNum}, {"b", trec{{"c", KStr}}}, {"l", []tdoc{}}, {"n", KNum}}, false},
		{"first array element K", EquivKind, trec{{"a", KInt}, {"b", trec{{"c", KStr}}}, {"l", []tdoc{KBool}}, {"n", KNum}}, false},
		{"new label set L", EquivLabel, trec{{"a", KInt}}, false},
		{"new nested label set L", EquivLabel, trec{{"a", KInt}, {"b", trec{{"d", KStr}}}, {"l", []tdoc{}}, {"n", KNum}}, false},
		{"field turns optional K", EquivKind, trec{{"a", KInt}, {"b", trec{{"c", KStr}}}, {"l", []tdoc{}}}, false},
		{"nested field turns optional K", EquivKind, trec{{"a", KInt}, {"b", trec{}}, {"l", []tdoc{}}, {"n", KNum}}, false},
		{"top-level atom K", EquivKind, KStr, false},
	}
	for _, c := range cases {
		for _, sealed := range []bool{false, true} {
			a := NewAccum(c.equiv)
			for range 3 {
				stageDoc(a.Doc(), base)
			}
			prev := a.Seal()
			if sealed {
				a.Absorb(docType(c.doc, c.equiv))
			} else {
				stageDoc(a.Doc(), c.doc)
			}
			if got := a.SameStructure(prev); got != c.same {
				t.Errorf("%s (sealed %v): SameStructure = %v, want %v", c.name, sealed, got, c.same)
			}
			checkSameStructure(t, c.name, a, prev)
		}
	}
}

// TestSameStructureAllocatesNothing: the check walks what a seal would
// build and builds none of it.
func TestSameStructureAllocatesNothing(t *testing.T) {
	for name, docs := range fixtureDocs(t) {
		for _, e := range []Equiv{EquivKind, EquivLabel} {
			a := NewAccum(e)
			for _, d := range docs {
				absorbValue(a.Doc(), d)
			}
			prev := a.Seal()
			absorbValue(a.Doc(), docs[0])
			if n := testing.AllocsPerRun(20, func() { a.SameStructure(prev) }); n != 0 {
				t.Errorf("%s %s: SameStructure allocates %.0f times, want 0", name, e, n)
			}
		}
	}
}
