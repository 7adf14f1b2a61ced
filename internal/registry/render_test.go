package registry

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// keptForms are the forms of core.OutputForms the registry keeps
// renderings of: those that read no counts.
var keptForms = func() (out []string) {
	for _, f := range core.OutputForms {
		if !f.Counts {
			out = append(out, f.Name)
		}
	}
	return out
}()

// freshForms renders every kept form of the collection's schema from a
// fresh Get — the reference a kept rendering is held to.
func freshForms(t *testing.T, reg *Registry, name string) []string {
	t.Helper()
	snap, ok := reg.Get(name)
	if !ok {
		t.Fatalf("Get(%q): no such collection", name)
	}
	out := make([]string, len(keptForms))
	for i, form := range keptForms {
		var b strings.Builder
		if err := (&core.Inference{Type: snap.Type}).WriteSchema(&b, form); err != nil {
			t.Fatal(err)
		}
		out[i] = b.String()
	}
	return out
}

// servedForms reads every kept form through WriteSchema.
func servedForms(t *testing.T, reg *Registry, name string) []string {
	t.Helper()
	out := make([]string, len(keptForms))
	for i, form := range keptForms {
		var b strings.Builder
		if found, err := reg.WriteSchema(&b, name, form); !found || err != nil {
			t.Fatalf("WriteSchema(%q, %q) = %v, %v", name, form, found, err)
		}
		out[i] = b.String()
	}
	return out
}

// renders is the collection's rendering count.
func renders(t *testing.T, reg *Registry, name string) int64 {
	t.Helper()
	snap, _ := reg.Get(name)
	return snap.Renders
}

// renderCorpora are the differential's inputs: every checked-in
// fixture and every generator, by name.
func renderCorpora(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil || len(files) != 5 {
		t.Fatalf("fixtures: %v (%d found, want 5)", err, len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = data
	}
	for _, g := range []genjson.Generator{
		genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}, genjson.TypeDrift{Seed: 3},
		genjson.SkewedOptional{Seed: 4}, genjson.NestedArrays{Seed: 5}, genjson.Orders{Seed: 6},
		genjson.OpenData{Seed: 7}, genjson.NYTArticles{Seed: 14}, genjson.Wide{Seed: 15},
		genjson.Sparse{Seed: 16}, genjson.Deep{Seed: 17}, genjson.Fields{Seed: 18},
		genjson.Mixture{Seed: 8, Generators: []genjson.Generator{genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}}, Weights: []float64{1, 1}},
	} {
		out[fmt.Sprintf("%T", g)] = jsontext.MarshalLines(genjson.Collection(g, 120))
	}
	return out
}

// TestKeptRenderingsAreFresh is the read path's differential: every
// fixture and generator under K and L, ingested in bodies of 1, 37 and
// 500 documents over two passes, read in every count-free form after
// the ingests, each read byte for byte what core.Inference.WriteSchema
// makes of a fresh Get. Counted, Get (the daemon's ?meta=1) and Stats
// reads are interleaved, and none of them evicts a kept rendering: a
// read after them renders nothing. A third pass moves counts only, and
// its reads render nothing either.
func TestKeptRenderingsAreFresh(t *testing.T) {
	for name, data := range renderCorpora(t) {
		lines := bytes.SplitAfter(data, []byte("\n"))
		for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
			for _, per := range []int{1, 37, 500} {
				where := fmt.Sprintf("%s %v per=%d", name, e, per)
				reg := New(Options{Equiv: e})
				cycle := 0
				read := func(pass, at int) {
					cycle++
					served := servedForms(t, reg, "c")
					if fresh := freshForms(t, reg, "c"); !slices.Equal(served, fresh) {
						for i := range served {
							if served[i] != fresh[i] {
								t.Fatalf("%s pass %d after line %d: %s serves\n%s\nfresh seal renders\n%s", where, pass, at, keptForms[i], served[i], fresh[i])
							}
						}
					}
					if cycle%2 == 0 {
						before := renders(t, reg, "c")
						var counted bytes.Buffer
						reg.WriteSchema(&counted, "c", "counted")
						reg.Stats()
						reg.List()
						if again := servedForms(t, reg, "c"); !slices.Equal(again, served) {
							t.Fatalf("%s: a second read after counted, Get and Stats reads serves other bytes", where)
						}
						if after := renders(t, reg, "c"); after != before {
							t.Fatalf("%s: counted, Get and Stats reads evicted %d kept renderings", where, after-before)
						}
					}
				}
				for pass := 1; pass <= 2; pass++ {
					for at := 0; at < len(lines); at += per {
						body := bytes.Join(lines[at:min(at+per, len(lines))], nil)
						if _, err := reg.Ingest("c", bytes.NewReader(body)); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						// One-document bodies are read on a schedule: a
						// read after each of them would spend the test
						// on reference renderings.
						if per > 1 || at < 16 || at%9 == 0 {
							read(pass, at)
						}
					}
				}
				read(2, len(lines))
				settled := renders(t, reg, "c")
				if _, err := reg.Ingest("c", bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
				read(3, len(lines))
				if n := renders(t, reg, "c") - settled; n != 0 {
					t.Errorf("%s: a count-only ingest made %d renderings, want 0", where, n)
				}
				reg.Close()
			}
		}
	}
}

// TestKeptRenderingSeesEachChange: after each kind of structural
// change — a new field, a new atom kind, a first array element or a new
// array, a new label set and, under K, a field turning optional — the
// next read of every count-free form serves new bytes, those of a fresh
// seal, and counts one rendering per form. Each change runs twice: read
// at once, and after sealing reads (Get, Stats and a counted read),
// whose snapshot, not the kept read, finds the move.
func TestKeptRenderingSeesEachChange(t *testing.T) {
	const base = `{"a": 1, "b": {"c": "x"}, "l": [], "n": 2.5}` + "\n"
	cases := []struct {
		name   string
		equivs []typelang.Equiv
		doc    string
	}{
		{"new field", nil, `{"a": 1, "b": {"c": "x"}, "l": [], "n": 2.5, "z": null}`},
		{"new nested field", nil, `{"a": 1, "b": {"c": "x", "d": true}, "l": [], "n": 2.5}`},
		{"new atom kind", nil, `{"a": "one", "b": {"c": "x"}, "l": [], "n": 2.5}`},
		{"Int turns Num", nil, `{"a": 1.5, "b": {"c": "x"}, "l": [], "n": 2.5}`},
		{"first array element", nil, `{"a": 1, "b": {"c": "x"}, "l": [true], "n": 2.5}`},
		{"new array", nil, `{"a": [1], "b": {"c": "x"}, "l": [], "n": 2.5}`},
		{"new label set", []typelang.Equiv{typelang.EquivLabel}, `{"a": 1}`},
		{"field turns optional", []typelang.Equiv{typelang.EquivKind}, `{"a": 1, "b": {"c": "x"}, "l": []}`},
		{"nested field turns optional", []typelang.Equiv{typelang.EquivKind}, `{"a": 1, "b": {}, "l": [], "n": 2.5}`},
	}
	for _, c := range cases {
		equivs := c.equivs
		if equivs == nil {
			equivs = []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel}
		}
		for _, e := range equivs {
			for _, sealFirst := range []bool{false, true} {
				where := fmt.Sprintf("%s %v sealing reads first %v", c.name, e, sealFirst)
				reg := New(Options{Equiv: e})
				if _, err := reg.Ingest("c", strings.NewReader(strings.Repeat(base, 3))); err != nil {
					t.Fatal(err)
				}
				before := servedForms(t, reg, "c")
				n := renders(t, reg, "c")
				if _, err := reg.Ingest("c", strings.NewReader(c.doc+"\n")); err != nil {
					t.Fatal(err)
				}
				if sealFirst {
					reg.Get("c")
					reg.Stats()
					reg.WriteSchema(io.Discard, "c", "counted")
				}
				after := servedForms(t, reg, "c")
				if after[0] == before[0] {
					t.Errorf("%s: the type form still reads %q", where, after[0])
				}
				if fresh := freshForms(t, reg, "c"); !slices.Equal(after, fresh) {
					t.Errorf("%s: served %q, a fresh seal renders %q", where, after, fresh)
				}
				if got := renders(t, reg, "c") - n; got != int64(len(keptForms)) {
					t.Errorf("%s: %d renderings after the change, want one per form (%d)", where, got, len(keptForms))
				}
				reg.Close()
			}
		}
	}
}

// TestKeptRenderingPinsNoSeal: a kept rendering holds its bytes and a
// structure epoch, nothing of the schema it was rendered from. After a
// count-only ingest and a sealing read, the seal the rendering was made
// of is garbage, and a kept read still renders nothing.
func TestKeptRenderingPinsNoSeal(t *testing.T) {
	body := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 1}, 50))
	for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
		reg := New(Options{Equiv: e})
		if _, err := reg.Ingest("c", bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
		if found, err := reg.WriteSchema(io.Discard, "c", "type"); !found || err != nil {
			t.Fatalf("WriteSchema: %v %v", found, err)
		}
		first := func() weak.Pointer[typelang.Type] {
			snap, _ := reg.Get("c") // the cached seal the rendering was made of
			return weak.Make(snap.Type)
		}()
		if _, err := reg.Ingest("c", bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
		reg.Get("c")
		reg.Stats()
		runtime.GC()
		if first.Value() != nil {
			t.Errorf("%v: after a count-only ingest and a sealing read the first seal is still live", e)
		}
		n := renders(t, reg, "c")
		if found, err := reg.WriteSchema(io.Discard, "c", "type"); !found || err != nil {
			t.Fatalf("WriteSchema: %v %v", found, err)
		}
		if got := renders(t, reg, "c") - n; got != 0 {
			t.Errorf("%v: a type read after a count-only ingest made %d renderings, want 0", e, got)
		}
		reg.Close()
	}
}

// TestSettledReadAllocatesNothing is the cheap read: once a collection
// has settled, a second read of a count-free form — and a read after an
// ingest that only moved counts — allocates nothing, however large the
// schema; it walks the accumulators and writes the kept bytes.
func TestSettledReadAllocatesNothing(t *testing.T) {
	body := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 1}, 200))
	for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
		reg := New(Options{Equiv: e})
		for range 2 {
			if _, err := reg.Ingest("c", bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		}
		for _, form := range keptForms {
			read := func() {
				if found, err := reg.WriteSchema(io.Discard, "c", form); !found || err != nil {
					t.Fatalf("WriteSchema: %v %v", found, err)
				}
			}
			read()
			if n := testing.AllocsPerRun(20, read); n != 0 {
				t.Errorf("%v %s: a second read allocates %.0f times, want 0", e, form, n)
			}
			// AllocsPerRun would count the ingest too: count the read's
			// mallocs alone, after a count-only ingest each time.
			var before, after runtime.MemStats
			var worst uint64
			for range 5 {
				if _, err := reg.Ingest("c", bytes.NewReader(body)); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&before)
				read()
				runtime.ReadMemStats(&after)
				worst = max(worst, after.Mallocs-before.Mallocs)
			}
			if worst != 0 {
				t.Errorf("%v %s: a read after a count-only ingest allocates %d times, want 0", e, form, worst)
			}
		}
		reg.Close()
	}
}

// TestKeptRenderingUnderConcurrentIngest runs reads of every form
// against concurrent ingests — which spread over several shards, so the
// structure check walks several accumulators — for the race detector,
// then holds the quiesced collection's reads to a fresh seal.
func TestKeptRenderingUnderConcurrentIngest(t *testing.T) {
	data := jsontext.MarshalLines(genjson.Collection(genjson.Mixture{Seed: 8,
		Generators: []genjson.Generator{genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}, genjson.TypeDrift{Seed: 3}},
		Weights:    []float64{1, 1, 1}}, 400))
	lines := bytes.SplitAfter(data, []byte("\n"))
	for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
		reg := New(Options{Equiv: e})
		var wg sync.WaitGroup
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for at := w * 10; at < len(lines); at += 40 {
					body := bytes.Join(lines[at:min(at+10, len(lines))], nil)
					if _, err := reg.Ingest("c", bytes.NewReader(body)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := range 2 {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for i := r; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if i%5 == 0 {
						reg.Get("c")
					}
					reg.WriteSchema(io.Discard, "c", keptForms[i%len(keptForms)])
				}
			}()
		}
		wg.Wait()
		close(stop)
		readers.Wait()
		if served, fresh := servedForms(t, reg, "c"), freshForms(t, reg, "c"); !slices.Equal(served, fresh) {
			t.Errorf("%v: after concurrent ingests and reads the kept renderings differ from a fresh seal", e)
		}
		reg.Close()
	}
}

// FuzzKeptRenderingIsFresh cuts arbitrary bytes into ingests — at the
// line breaks, as many lines a body as the cut bytes say — and after
// each ingest reads a count-free form, and now and then a counted one:
// a kept rendering must always be what a fresh seal renders.
func FuzzKeptRenderingIsFresh(f *testing.F) {
	for _, seed := range []string{
		`{"a": 1}` + "\n" + `{"a": 2}` + "\n" + `{"a": 1, "b": "x"}` + "\n" + `{"a": 1.5}`,
		`{"a": {"b": [{"c": 1}, {"d": 2}]}}` + "\n" + `{"a": {"b": []}}` + "\n" + `{"a": {"b": [{"c": 3}]}}`,
		`[1, "s", {"a": null}, [true]]` + "\n" + `{}` + "\n" + `[]` + "\n" + `[[]]` + "\n" + `[[1]]`,
		`{"x": {"y": 1}}` + "\n" + `{"x": {"y": 1}}` + "\n" + `{"x": {"z": 1}}` + "\n" + `{"x": 2}`,
		`{"a": 1}` + "\n" + `{"a": tru}` + "\n" + `{"b": 1}`,
	} {
		f.Add([]byte(seed), []byte{1, 2, 1}, false)
		f.Add([]byte(seed), []byte{3}, true)
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte, label bool) {
		e := typelang.EquivKind
		if label {
			e = typelang.EquivLabel
		}
		reg := New(Options{Equiv: e})
		defer reg.Close()
		lines := bytes.SplitAfter(data, []byte("\n"))
		for i, at := 0, 0; at < len(lines); i++ {
			per := 1
			if len(cuts) > 0 {
				per = 1 + int(cuts[i%len(cuts)]%8)
			}
			body := bytes.Join(lines[at:min(at+per, len(lines))], nil)
			at += per
			reg.Ingest("c", bytes.NewReader(body)) // a malformed body keeps its prefix
			if i%3 == 2 {
				reg.WriteSchema(io.Discard, "c", "counted")
			}
			form := keptForms[i%len(keptForms)]
			var served strings.Builder
			reg.WriteSchema(&served, "c", form)
			snap, _ := reg.Get("c")
			var fresh strings.Builder
			(&core.Inference{Type: snap.Type}).WriteSchema(&fresh, form)
			if served.String() != fresh.String() {
				t.Fatalf("ingest %d, %s: served\n%s\nfresh seal renders\n%s", i, form, served.String(), fresh.String())
			}
		}
	})
}

// TestDeleteDropsKeptRenderings: the kept renderings go with their
// collection, and a collection of the same name starts with none.
func TestDeleteDropsKeptRenderings(t *testing.T) {
	reg := New(Options{Equiv: typelang.EquivKind})
	defer reg.Close()
	reg.Ingest("c", strings.NewReader(`{"a": 1, "b": "x"}`+"\n"))
	servedForms(t, reg, "c")
	if !reg.Delete("c") {
		t.Fatal("Delete(c) = false")
	}
	if found, _ := reg.WriteSchema(io.Discard, "c", "type"); found {
		t.Fatal("a deleted collection still serves its schema")
	}
	reg.Ingest("c", strings.NewReader(`{"z": null}`+"\n"))
	if got := servedForms(t, reg, "c"); !slices.Equal(got, freshForms(t, reg, "c")) || got[0] != "{z: Null}\n" {
		t.Errorf("the recreated collection serves %q", got[0])
	}
	if n := renders(t, reg, "c"); n != int64(len(keptForms)) {
		t.Errorf("the recreated collection made %d renderings, want %d", n, len(keptForms))
	}
}
