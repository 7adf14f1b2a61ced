package infer

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// This file pins the typelang.Accum folds of the streamed engine: every
// run folds through accumulators (worker chunk folds, the committer's
// in-line fold, the one-worker shape's single accumulator), and each of
// those seals must be byte-identical to the oracle's one MergeAll.

// TestAccumFoldMatchesMergeAllFixtures sweeps every checked-in fixture
// at the default chunking — the shapes a production run takes: one
// 4 MiB-target accumulator at one worker, 256-document chunks above.
func TestAccumFoldMatchesMergeAllFixtures(t *testing.T) {
	forEachFixture(t, func(name string, data []byte) {
		assertMatchesOracle(t, name, data)
	})
}

// TestMalformedInputKeepsExactPrefix is the error sweep at the default
// chunking, where the failing document shares its chunk (and, at one
// worker, its accumulator) with the documents before it: aborting a
// half-absorbed document — off the index first, then from tokens —
// must leave exactly the prefix behind.
func TestMalformedInputKeepsExactPrefix(t *testing.T) {
	for _, in := range malformedInputs {
		assertMatchesOracle(t, fmt.Sprintf("%q", in), []byte(in))
	}
}

// collidingLabelSets are pairs of records whose label sets typelang's
// key rendered alike while it joined names with NUL: the empty name
// against no name, and a NUL in a name against two names. MergeAll, the
// oracle, fused each pair under L and an accumulator below its label-key
// index did not.
var collidingLabelSets = []string{
	"{\"\": 0}\n{}\n",
	"{\"a\\u0000b\": 1}\n{\"a\": 1, \"b\": 1}\n",
}

// TestLabelSetsNeverCollide sweeps them, each twice over — the second
// record of a layout closes on the pattern tree and finds its group by
// the shape's address — alone and after enough label sets that the
// root looks its groups up by key, and holds the oracle itself to
// keeping every label set apart.
func TestLabelSetsNeverCollide(t *testing.T) {
	var pad strings.Builder
	for i := 0; i < 20; i++ { // past typelang's linear group scan
		fmt.Fprintf(&pad, "{\"pad%d\": null}\n", i)
	}
	for _, pair := range collidingLabelSets {
		for label, in := range map[string]string{"scan": pair + pair, "index": pad.String() + pair + pair} {
			want, _, err := oracle([]byte(in), typelang.EquivLabel)
			if err != nil {
				t.Fatal(err)
			}
			if got, sets := typelang.DistinctRecordAlternatives(want), strings.Count(in, "\n")-2; got != sets {
				t.Errorf("%s %q: the oracle keeps %d record types apart under L, want %d: %s", label, pair, got, sets, want)
			}
			assertMatchesOracle(t, fmt.Sprintf("%s/%q", label, pair), []byte(in))
		}
	}
}

// TestAbsorbSurfaceMatchesMergeAll drives typelang's direct-absorption
// surface one generated document at a time (the exact calls the token
// walker makes) and pins the seal to the MergeAll reference — the unit
// cut of the absorb-vs-merge equivalence, with no tokenizer in the loop.
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
			want, _, err := oracle(data, e)
			if err != nil {
				t.Fatal(err)
			}
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
		want, _, err := oracle(data, e)
		if err != nil {
			t.Fatal(err)
		}
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

// TestHighCardinalityRootBuildsNoTable pins what a root record of a
// label set seen once costs under L: 2000 sparse documents (8 of 500
// keys, about one label set each) are held as their staged fields seal,
// so no field table is built for them, at one worker and in the
// parallel shape. The input is a mapped file, so no read buffer is
// counted. Bytes allocated per document, best of three runs:
// 4168 at one worker and 4360 at two when every root record built its
// table, 1648 and about 2090 with the hold. The bound sits between.
func TestHighCardinalityRootBuildsNoTable(t *testing.T) {
	const docs = 2000
	data := jsontext.MarshalLines(genjson.Collection(genjson.Sparse{Seed: 1}, docs))
	for _, c := range []struct {
		workers int
		bound   uint64
	}{{1, 2900}, {2, 3200}} {
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, n, err := inferStreamOver(t, "mapped", data, Options{Equiv: typelang.EquivLabel, Workers: c.workers}); err != nil || n != docs {
				t.Fatalf("workers %d: %d docs, err %v", c.workers, n, err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if perDoc := best / docs; perDoc > c.bound {
			t.Errorf("workers %d: %d B allocated per sparse document, want at most %d: root records build field tables", c.workers, perDoc, c.bound)
		}
	}
}
