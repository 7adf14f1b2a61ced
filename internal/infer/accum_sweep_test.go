package infer

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// This file is the Accum-vs-MergeAll identity sweep: every streamed
// engine folds through typelang.Accum (worker chunk folds, the
// committer's in-line fold), and this sweep pins each of those seals
// byte-identical to the reference reduce — one MergeAll over the
// per-document map-phase types — on every checked-in fixture, under
// both equivalences, across map modes (the fused direct-absorption
// default and the per-document reference map, the A/B baseline), worker
// counts, both tokenizers, and reader and byte-slice input.

// mergeAllReference is the reference reduce: DOM-decode every document,
// type it with the map phase, and fold the whole collection through one
// MergeAll call.
func mergeAllReference(t *testing.T, data []byte, e typelang.Equiv) *typelang.Type {
	t.Helper()
	docs, err := jsontext.NewDecoder(bytes.NewReader(data)).DecodeAll()
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	ts := make([]*typelang.Type, len(docs))
	for i, d := range docs {
		ts[i] = TypeOf(d, e)
	}
	return typelang.MergeAll(ts, e)
}

// inputKinds names the parallel engine's two sources, and
// inferStreamParallelOver runs it over data as the named one.
var inputKinds = []string{"reader", "bytes"}

func inferStreamParallelOver(input string, data []byte, opts Options) (*typelang.Type, int, error) {
	if input == "bytes" {
		return InferStreamParallelBytes(data, opts)
	}
	return InferStreamParallel(bytes.NewReader(data), opts)
}

func assertAccumMatchesMergeAll(t *testing.T, label string, data []byte) {
	t.Helper()
	for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
		want := mergeAllReference(t, data, e)
		check := func(engine string, got *typelang.Type, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s/%v/%s: %v", label, e, engine, err)
			}
			if !typelang.Equal(want, got) || want.String() != got.String() ||
				want.StringCounted() != got.StringCounted() {
				t.Errorf("%s/%v/%s: accum fold diverges from MergeAll\n mergeall: %s\n accum:    %s",
					label, e, engine, want.StringCounted(), got.StringCounted())
			}
		}
		for _, mm := range []MapMode{MapFused, MapReference, MapIndexed} {
			got, _, err := InferStream(bytes.NewReader(data), Options{Equiv: e, Map: mm})
			check(fmt.Sprintf("sequential-%v", mm), got, err)
			for _, tz := range []Tokenizer{TokenizerScan, TokenizerMison} {
				for _, workers := range []int{2, 4} {
					for _, input := range inputKinds {
						got, _, err := inferStreamParallelOver(input, data,
							Options{Equiv: e, Workers: workers, Tokenizer: tz, Map: mm})
						check(fmt.Sprintf("parallel-%v-%v-w%d-%s", mm, tz, workers, input), got, err)
					}
				}
			}
		}
	}
}

// TestAccumFoldMatchesMergeAllFixtures runs the sweep over every
// checked-in NDJSON fixture.
func TestAccumFoldMatchesMergeAllFixtures(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no testdata fixtures found")
	}
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		assertAccumMatchesMergeAll(t, filepath.Base(name), data)
	}
}

// TestMapModeErrorEquivalence pins the error behaviour of the fused
// map to the reference map: on malformed input both modes must report
// the same error message, the same syntax offset, and the same count
// of documents typed before the failure, under every tokenizer and
// worker shape. The fused path absorbs straight into the chunk
// accumulator, so this is what guarantees aborting a half-absorbed
// document never changes what the engine reports.
func TestMapModeErrorEquivalence(t *testing.T) {
	bad := []string{
		"{\"a\": 1}\n{]\n",
		"[1, 2\n",
		"{\"a\": tru}\n",
		"\"unterminated\n{\"a\": 1}\n",
		"{\"a\": 1}\n12..5\n{\"b\": 2}\n",
		"{\"a\": 1}\n{\"s\": \"ctrl\x01\"}\n{\"b\": 2}\n",
		"{\"a\": [1, {\"b\": 2}, \n",
		"{\"a\": {\"b\": 1, }}\n",
	}
	type outcome struct {
		msg  string
		off  int
		docs int
	}
	for _, in := range bad {
		runs := map[string]outcome{}
		for _, mm := range []MapMode{MapFused, MapReference, MapIndexed} {
			_, n, err := InferStream(strings.NewReader(in), Options{Map: mm})
			if err == nil {
				t.Fatalf("%q: sequential %v accepted malformed input", in, mm)
			}
			runs[fmt.Sprintf("seq/%v", mm)] = outcome{err.Error(), syntaxOffset(err), n}
			for _, tz := range []Tokenizer{TokenizerScan, TokenizerMison} {
				for _, workers := range []int{2, 4} {
					_, n, err := InferStreamParallel(strings.NewReader(in),
						Options{Map: mm, Workers: workers, Batch: 1, Tokenizer: tz})
					if err == nil {
						t.Fatalf("%q: parallel %v/%v accepted malformed input", in, mm, tz)
					}
					runs[fmt.Sprintf("par-%v-w%d/%v", tz, workers, mm)] = outcome{err.Error(), syntaxOffset(err), n}
				}
			}
		}
		// Every run of the same engine shape must agree across map modes,
		// and every shape must agree on message and offset overall (the
		// doc count can legitimately differ between sequential and
		// parallel only if chunking changed what was committed first —
		// it must not, since errors are reported in stream order).
		ref := runs[fmt.Sprintf("seq/%v", MapFused)]
		for name, o := range runs {
			if o.msg != ref.msg || o.off != ref.off || o.docs != ref.docs {
				t.Errorf("%q: %s reports (%q, off %d, %d docs), seq/fused reports (%q, off %d, %d docs)",
					in, name, o.msg, o.off, o.docs, ref.msg, ref.off, ref.docs)
			}
		}
	}
}

// TestAbsorbSurfaceMatchesMergeAll drives typelang's direct-absorption
// surface one generated document at a time (the exact calls the fused
// walker makes) and pins the seal to the MergeAll reference — the unit
// cut of the fused-map equivalence, with no tokenizer in the loop.
func TestAbsorbSurfaceMatchesMergeAll(t *testing.T) {
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 31},
		genjson.GitHub{Seed: 32},
		genjson.SkewedOptional{Seed: 33},
		genjson.NestedArrays{Seed: 34},
		genjson.Sparse{Seed: 35},
		genjson.Deep{Seed: 36, Depth: 12},
	}
	for _, g := range gens {
		docs := genjson.Collection(g, 120)
		data := jsontext.MarshalLines(docs)
		for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
			want := mergeAllReference(t, data, e)
			acc := typelang.NewAccum(e)
			if err := func() error {
				tr := jsontext.NewTokenReaderBytes(data)
				for {
					if err := AbsorbFromTokens(tr, acc); err != nil {
						return err
					}
				}
			}(); err != io.EOF {
				t.Fatalf("%s/%v: %v", g.Name(), e, err)
			}
			got := acc.Seal()
			if !typelang.Equal(want, got) || want.StringCounted() != got.StringCounted() {
				t.Errorf("%s/%v: direct absorption diverges from MergeAll\n mergeall: %s\n absorbed: %s",
					g.Name(), e, want.StringCounted(), got.StringCounted())
			}
		}
	}
}

// TestAbsorbFromTokensWarmTweetsZeroAllocs pins the steady state the
// staging pools exist for, on the heterogeneous nested fixture: once one
// accumulator has seen the tweets, absorbing them again — every staged
// node, open record and retained label-set group recycled through the
// pools, across an Accum.Reset as a chunk worker does — allocates
// nothing, under both equivalences.
func TestAbsorbFromTokensWarmTweetsZeroAllocs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "tweets.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
		want := mergeAllReference(t, data, e)
		tr := jsontext.NewTokenReaderBytes(nil)
		tr.SetInternStrings(true)
		acc := typelang.NewAccum(e)
		pass := func() {
			acc.Reset()
			tr.ResetBytes(data, 0)
			for {
				if err := AbsorbFromTokens(tr, acc); err != nil {
					if err != io.EOF {
						t.Fatal(err)
					}
					return
				}
			}
		}
		// Warm the intern cache, the accumulator tree and the pools. The
		// pool is a stack refilled in field-name order, so which node
		// serves which field rotates from pass to pass and every pooled
		// node has to meet every shape once before the state is steady.
		for warm := 0; testing.AllocsPerRun(1, pass) > 0; warm++ {
			if warm == 64 {
				t.Fatalf("%v: absorption of the tweets fixture still allocates after %d warm-up passes", e, warm)
			}
		}
		if n := testing.AllocsPerRun(20, pass); n > 0 {
			t.Errorf("%v: warm absorption of the tweets fixture allocates %.1f times per pass; want 0", e, n)
		}
		if got := acc.Seal(); want.StringCounted() != got.StringCounted() {
			t.Errorf("%v: warm passes diverge from MergeAll\n mergeall: %s\n accum:    %s", e, want.StringCounted(), got.StringCounted())
		}
	}
}
