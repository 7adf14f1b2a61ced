package infer

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// This file pins the pattern tree (index_absorb.go) as what it claims
// to be — a cache: whatever an absorber's tree learned before, from
// whatever bytes, the next input's schema, document count, error text
// and error offset are the token walker's over the reference lexer.

// assertWarmMatchesTokens absorbs data through ia, passes times over,
// and demands the token walker's outcome under e each time.
func assertWarmMatchesTokens(t *testing.T, label string, ia *IndexAbsorber, data []byte, e typelang.Equiv, passes int) {
	t.Helper()
	want, wantN, wantErr := absorbAllTokens(data, e)
	for pass := 0; pass < passes; pass++ {
		got, gotN, gotErr, ok := absorbAllIndexed(ia, data, e)
		if !ok {
			if wantErr == nil {
				t.Fatalf("%s: index rejected a chunk the token walker accepts: %q", label, data)
			}
			return
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || syntaxOffset(gotErr) != syntaxOffset(wantErr) {
			t.Fatalf("%s/%v pass %d: error %v (offset %d), token walker %v (offset %d) on %q",
				label, e, pass, gotErr, syntaxOffset(gotErr), wantErr, syntaxOffset(wantErr), data)
		}
		if gotN != wantN || want.StringCounted() != got.StringCounted() {
			t.Fatalf("%s/%v pass %d: %d documents, token walker %d, on %q\n tokens:  %s\n indexed: %s",
				label, e, pass, gotN, wantN, data, want.StringCounted(), got.StringCounted())
		}
	}
}

// train absorbs data through ia for what its tree learns, errors and
// all; the result is thrown away.
func train(ia *IndexAbsorber, data []byte) {
	absorbAllIndexed(ia, data, typelang.EquivLabel)
}

// patternSeeds are (data, train) pairs for the ways a warm tree's
// expectation can be wrong about the next record.
var patternSeeds = [][2]string{
	// Reordered keys; a record ending before its layout does, and one
	// running past it.
	{"{\"b\":1,\"a\":2}\n{\"a\":1,\"b\":2}\n{\"b\":\"x\",\"a\":null}\n", `{"a":1,"b":2}`},
	{"{\"a\":1,\"b\":2}\n{\"a\":1,\"b\":2,\"c\":3,\"d\":4}\n{\"a\":1}\n{}\n", `{"a":1,"b":2,"c":3}`},
	// A name that is a prefix of a learned one, and the other way round.
	{"{\"f10\":1}\n{\"f1\":2}\n{\"f1\":1,\"f10\":\"x\"}\n{\"f\":0}\n", `{"f1":1}`},
	// A duplicate key on a learned path, before it, and off any path.
	{"{\"a\":1,\"b\":2,\"a\":\"x\"}\n{\"a\":1,\"a\":2,\"b\":3}\n{\"z\":1,\"z\":\"s\"}\n{\"a\":1,\"b\":2}\n", `{"a":1,"b":2}`},
	// The escaped spelling of a learned name, alone and as a duplicate.
	{"{\"\\u0061\":\"s\"}\n{\"a\":1,\"\\u0061\":\"s\"}\n{\"a\":1}\n", `{"a":1}`},
	// The empty name, a NUL in a name, and the record with no name.
	{"{\"\":0}\n{}\n{\"a\\u0000b\":1}\n{\"a\":1,\"b\":1}\n{\"\":1,\"\":\"s\"}\n", "{\"\":1}\n{}"},
	// Whitespace around every separator of a learned layout.
	{"{ \"a\" : 1 , \"b\"\t:\n2 }\n{\"a\":1,\"b\":2}\n{\"a\"\r\n:1}\n", `{"a":1,"b":2}`},
	// An error and a truncation mid-record on a learned path: the
	// accumulator must hold exactly the documents before it.
	{"{\"a\":1,\"b\":{\"c\":2}}\n{\"a\":1,\"b\":{\"c\":tru}}\n{\"a\":1}\n", `{"a":1,"b":{"c":2}}`},
	{"{\"a\":1,\"b\":{\"c\":2}}\n{\"a\":1,\"b\":{\"c\":", `{"a":1,"b":{"c":2}}`},
	{"{\"a\":1,\"b\":2}\n{\"a\":1,\"b\" 2}\n", `{"a":1,"b":2}`},
	{"{\"a\":1,\"b\":2}\n{\"a\":1 \"b\":2}\n", `{"a":1,"b":2}`},
	{"{\"a\":1,\"b\":2}\n{\"a\":1,\"b\":2,}\n", `{"a":1,"b":2}`},
	{"{\"a\":1,\"b\":2}\n{\"a\":1,\"b", `{"a":1,"b":2}`},
	{"{\"a\":1\\,\"b\":2}\n", `{"a":1,"b":2}`},
	// Nested objects in arrays, and the same name at two depths.
	{"{\"a\":[{\"x\":1},{\"x\":2,\"y\":[{\"z\":null},{}]}],\"x\":{\"x\":{\"x\":1}}}\n[{\"a\":[]},[{\"a\":[{\"x\":\"s\"}]}]]\n", `{"a":[{"x":1}]}`},
	// A key that is not clean ASCII, learned never, met after a learned one.
	{"{\"a\":1,\"é\":2}\n{\"a\":1,\"é\":\"s\"}\n{\"a\":1,\"k\\\"q\":2}\n", `{"a":1,"b":2}`},
}

// FuzzPatternTree: one absorber absorbs train, then data three times —
// the first pass on a tree learned from foreign bytes, the later ones
// on a tree that has seen this very input, its malformed records
// included — and every pass must equal the token walker over the
// reference lexer under K and under L.
func FuzzPatternTree(f *testing.F) {
	for _, s := range patternSeeds {
		f.Add([]byte(s[0]), []byte(s[1]))
	}
	for _, in := range windowInputs {
		f.Add([]byte(in), []byte(in))
	}
	f.Fuzz(func(t *testing.T, data, training []byte) {
		for _, e := range sweepEquivs {
			ia := coldAbsorber()
			train(ia, training)
			assertWarmMatchesTokens(t, "fuzz", ia, data, e, 3)
		}
	})
}

// sweepCorpora returns every checked-in fixture and a collection of
// every generator family, by name.
func sweepCorpora(t *testing.T) map[string][]byte {
	corpora := map[string][]byte{}
	forEachFixture(t, func(name string, data []byte) { corpora[name] = data })
	for _, g := range sweepGenerators {
		corpora["gen-"+g.Name()] = jsontext.MarshalLines(genjson.Collection(g, 40))
	}
	return corpora
}

// TestPatternTreeTrainedOnOtherCorpora: every fixture and generator,
// absorbed by an absorber whose tree was trained on all the others,
// comes out as from a cold absorber — the token walker's outcome. The
// engine's own sweeps (assertMatchesOracle, every worker count) run
// with trees that learn as they go; this is the tree at its most wrong.
func TestPatternTreeTrainedOnOtherCorpora(t *testing.T) {
	corpora := sweepCorpora(t)
	for name, data := range corpora {
		ia := coldAbsorber()
		for other, foreign := range corpora {
			if other != name {
				train(ia, foreign)
			}
		}
		for _, e := range sweepEquivs {
			assertWarmMatchesTokens(t, name, ia, data, e, 2)
		}
	}
}

// nearMiss renders a corpus whose layouts are almost data's: every
// second line's keys carry one more letter, and every third line is cut
// in half — a malformed record that teaches a path and never ends it.
func nearMiss(data []byte) []byte {
	var out bytes.Buffer
	for i, line := range bytes.SplitAfter(data, []byte("\n")) {
		switch {
		case i%2 == 1:
			line = bytes.ReplaceAll(line, []byte(`":`), []byte(`x":`))
		case i%3 == 2:
			line = append(line[:len(line)/2:len(line)/2], '\n')
		}
		out.Write(line)
	}
	return out.Bytes()
}

// TestPatternTreeNearMissTraining corrupts a warm tree's expectations
// on purpose: trained on the near-miss rendering of an input, the
// absorber still yields the token walker's schema and — on the
// malformed inputs — its error and offset. No speculation is trusted.
func TestPatternTreeNearMissTraining(t *testing.T) {
	check := func(label string, data []byte) {
		for _, e := range sweepEquivs {
			ia := coldAbsorber()
			train(ia, nearMiss(data))
			train(ia, data) // and the learned path up to the defect itself
			train(ia, nearMiss(data))
			assertWarmMatchesTokens(t, label, ia, data, e, 2)
		}
	}
	for name, data := range sweepCorpora(t) {
		check(name, data)
	}
	for _, in := range windowInputs {
		check(fmt.Sprintf("%.40q", in), []byte(in))
	}
	for _, s := range patternSeeds {
		check(fmt.Sprintf("%.40q", s[0]), []byte(s[0]))
	}
}

// TestKeptMapperTreeIsWarmOnTheNextIngest: a collector keeps its mapper,
// and with it the pattern tree, between ingests. The same corpus
// ingested twice into one collector folds to the oracle of the corpus
// twice over, and the second ingest closes at least as many objects on
// the tree as the first, which was still learning it.
func TestKeptMapperTreeIsWarmOnTheNextIngest(t *testing.T) {
	for name, data := range sweepCorpora(t) {
		for _, e := range sweepEquivs {
			want, wantN, err := oracle(append(data[:len(data):len(data)], data...), e)
			if err != nil {
				t.Fatal(err)
			}
			col := NewShardedCollector(2, e)
			var closed [2]int64
			for i := range closed {
				var st PipelineStats
				opts := Options{Equiv: e, Stats: &st}
				if _, err := InferStreamInto(bytes.NewReader(data), opts, col); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				closed[i] = st.Snapshot().PatternRecords
			}
			got, gotN := col.Close()
			if gotN != int64(wantN) || got.StringCounted() != want.StringCounted() {
				t.Errorf("%s/%v: two ingests diverge from the oracle\n oracle: %s\n engine: %s",
					name, e, want.StringCounted(), got.StringCounted())
			}
			if closed[1] < closed[0] {
				t.Errorf("%s/%v: the second ingest closed %d objects on the tree, the first %d",
					name, e, closed[1], closed[0])
			}
		}
	}
}

// treeCensus walks a tree: its nodes and the widest follower list.
func treeCensus(n *patternNode) (nodes, fanout int) {
	if n == nil {
		return 0, 0
	}
	nodes, fanout = 1, len(n.next)
	for _, c := range append(n.next[:len(n.next):len(n.next)], n.sub) {
		cn, cf := treeCensus(c)
		nodes, fanout = nodes+cn, max(fanout, cf)
	}
	return nodes, fanout
}

// TestPatternTreeIsBounded: ten thousand layouts leave the tree at or
// under patternNodes and every follower list at or under patternFanout,
// and the absorber's answer is still the token walker's.
func TestPatternTreeIsBounded(t *testing.T) {
	sparse := jsontext.MarshalLines(genjson.Collection(genjson.Sparse{Seed: 3}, 10000))
	// Layouts that share no prefix spend the budget on nodes; layouts
	// that are each other's prefixes spend it on shapes.
	var chain strings.Builder
	for width := 1; width <= 600; width++ {
		chain.WriteByte('{')
		for i := 0; i < width; i++ {
			fmt.Fprintf(&chain, `"k%d":%d,`, i, i)
		}
		chain.WriteString("\"end\":null}\n")
	}
	for name, data := range map[string][]byte{"sparse": sparse, "chain": []byte(chain.String())} {
		ia := coldAbsorber()
		assertWarmMatchesTokens(t, name, ia, data, typelang.EquivLabel, 2)
		nodes, fanout := treeCensus(ia.tree.top.sub)
		if ia.tree.size > patternNodes || nodes > ia.tree.size {
			t.Errorf("%s: the tree holds %d nodes and counts %d, bound %d", name, nodes, ia.tree.size, patternNodes)
		}
		if fanout > patternFanout {
			t.Errorf("%s: a node remembers %d followers, bound %d", name, fanout, patternFanout)
		}
		// Premise: each corpus meets a bound — sparse's first keys outnumber
		// a root's followers, the chain's shapes outweigh the budget.
		if fanout < patternFanout && ia.tree.size < patternNodes-600/16-1 {
			t.Errorf("%s: premise: no bound was met: %d of %d nodes, %d of %d followers", name, ia.tree.size, patternNodes, fanout, patternFanout)
		}
	}
}

// TestFullPatternTreeIsRelearned: a tree filled by one collection and
// then fed another, whose layouts it has no room for, is dropped after
// patternStale objects and learns the layouts that are arriving now.
func TestFullPatternTreeIsRelearned(t *testing.T) {
	ia := coldAbsorber()
	train(ia, jsontext.MarshalLines(genjson.Collection(genjson.Sparse{Seed: 3}, 10000)))
	ia.TakePatternRecords()
	drifted := bytes.Repeat([]byte(`{"zz": 1, "yy": {"xx": [true]}}`+"\n"), patternStale/8)
	var closed []int64
	for round := 0; round < 8; round++ {
		assertWarmMatchesTokens(t, "drifted", ia, drifted, typelang.EquivLabel, 1)
		closed = append(closed, ia.TakePatternRecords())
	}
	if closed[0] != 0 {
		t.Errorf("premise: the full tree closed %d objects of a collection it never met", closed[0])
	}
	if last := closed[len(closed)-1]; last != 2*int64(patternStale/8) {
		t.Errorf("after %d objects turned away the tree closes %d of %d objects a round; by round: %v",
			patternStale, last, 2*(patternStale/8), closed)
	}
}
