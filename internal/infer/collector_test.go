package infer

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// TestShardedCollectorMatchesSequentialFold: whatever the shard count,
// the collector's final fold must be byte-identical (rendering and
// counts) to the plain sequential MergeAll over the same inputs.
func TestShardedCollectorMatchesSequentialFold(t *testing.T) {
	docs := genjson.Collection(genjson.GitHub{Seed: 91}, 300)
	for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
		ts := make([]*typelang.Type, len(docs))
		for i, d := range docs {
			ts[i] = TypeOf(d, e)
		}
		want := typelang.MergeAll(ts, e)
		for _, shards := range []int{1, 2, 3, 8, 0} {
			col := NewShardedCollector(shards, e)
			for i := range ts {
				col.AddBatch(ts[i:i+1], 1)
			}
			got, n := col.Close()
			if n != int64(len(docs)) {
				t.Errorf("equiv=%v shards=%d: %d docs, want %d", e, shards, n, len(docs))
			}
			if got.StringCounted() != want.StringCounted() {
				t.Errorf("equiv=%v shards=%d: sharded fold diverges\n want: %s\n got:  %s",
					e, shards, want.StringCounted(), got.StringCounted())
			}
		}
	}
}

// TestShardedCollectorSnapshotSemantics: snapshots grow monotonically,
// an AddBatch that returned is in the next snapshot with no flush in
// between, and AddBatch after Close panics.
func TestShardedCollectorSnapshotSemantics(t *testing.T) {
	col := NewShardedCollector(2, typelang.EquivKind)
	if ty, n := col.Snapshot(); n != 0 || ty.Kind != typelang.KBottom {
		t.Fatalf("empty snapshot = %s/%d, want ⊥/0", ty, n)
	}
	col.AddBatch([]*typelang.Type{atomInt}, 1)
	col.AddBatch([]*typelang.Type{atomStr}, 1)
	if ty, n := col.Snapshot(); n != 2 || ty.String() != "(Int + Str)" {
		t.Errorf("snapshot = %s/%d, want (Int + Str)/2", ty, n)
	}
	col.AddBatch([]*typelang.Type{atomBool}, 1)
	if ty, n := col.Snapshot(); n != 3 || ty.String() != "(Bool + Int + Str)" {
		t.Errorf("snapshot = %s/%d, want (Bool + Int + Str)/3", ty, n)
	}
	if ty, n := col.Close(); n != 3 || ty.String() != "(Bool + Int + Str)" {
		t.Errorf("close = %s/%d, want (Bool + Int + Str)/3", ty, n)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddBatch after Close did not panic")
		}
	}()
	col.AddBatch([]*typelang.Type{atomInt}, 1)
}

// TestShardedCollectorConcurrent is the race-detector workout: parallel
// adders against continuous snapshot readers. Snapshots are serialised
// under the root lock, so the ones a reader observes, in the order it
// observes them, only grow — in documents and in schema (each subsumes
// the one before) — and the final fold is exact.
func TestShardedCollectorConcurrent(t *testing.T) {
	const adders, perAdder, nReaders = 8, 200, 2
	col := NewShardedCollector(4, typelang.EquivLabel)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			lastTy, lastN := typelang.Bottom, int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				ty, n := col.Snapshot()
				if n < lastN {
					t.Errorf("snapshot docs regressed: %d after %d", n, lastN)
					return
				}
				if !typelang.Subtype(lastTy, ty) {
					t.Errorf("snapshot schema shrank:\n before: %s\n after:  %s", lastTy, ty)
					return
				}
				lastTy, lastN = ty, n
			}
		}()
	}
	var wg sync.WaitGroup
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAdder; i++ {
				ty := typelang.RecordOwned(1, []typelang.Field{
					{Name: fmt.Sprintf("f%d", (a+i)%5), Type: atomInt, Count: 1},
				})
				col.AddBatch([]*typelang.Type{ty}, 1)
			}
		}(a)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	_, n := col.Close()
	if n != adders*perAdder {
		t.Errorf("final docs = %d, want %d", n, adders*perAdder)
	}
}

// TestInferStreamWorkerSweep pins the one-shot engine to the oracle on
// a corpus that spans several default-sized chunks: however the chunks
// interleave on their way to the committer's accumulator, schema and
// count are the oracle's.
func TestInferStreamWorkerSweep(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 92}, 400)
	assertMatchesOracle(t, "tweets-400", jsontext.MarshalLines(docs))
}

// TestInferStreamSharedSymbols: a shared symbol table changes nothing
// about the result and ends up holding the stream's field-name
// vocabulary exactly once.
func TestInferStreamSharedSymbols(t *testing.T) {
	docs := genjson.Collection(genjson.Orders{Seed: 93}, 200)
	data := jsontext.MarshalLines(docs)
	want, wantN, err := oracle(data, typelang.EquivKind)
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range sweepMaps {
		st := jsontext.NewSymbolTable()
		got, n, err := InferStream(bytes.NewReader(data), Options{Workers: 4, Map: mm, Symbols: st})
		if err != nil {
			t.Fatal(err)
		}
		if n != wantN || got.StringCounted() != want.StringCounted() {
			t.Errorf("%v: shared-symbol run diverges (%d docs)\n want: %s\n got:  %s",
				mm, n, want.StringCounted(), got.StringCounted())
		}
		if st.Len() == 0 {
			t.Errorf("%v: symbol table empty after a field-bearing stream", mm)
		}
		// Every field name in the schema must be the canonical interned
		// string — pointer-equal to the table's copy.
		var walk func(ty *typelang.Type)
		walk = func(ty *typelang.Type) {
			switch ty.Kind {
			case typelang.KRecord:
				for _, f := range ty.Fields {
					if canon := st.Intern([]byte(f.Name)); canon != f.Name {
						t.Errorf("%v: field %q not canonical", mm, f.Name)
					}
					walk(f.Type)
				}
			case typelang.KArray:
				walk(ty.Elem)
			case typelang.KUnion:
				for _, a := range ty.Alts {
					walk(a)
				}
			}
		}
		walk(got)
	}
}

// TestSymbolTableInternCanonical: equal byte sequences intern to the
// same string value from any goroutine.
func TestSymbolTableInternCanonical(t *testing.T) {
	st := jsontext.NewSymbolTable()
	const names = 64
	var wg sync.WaitGroup
	results := make([][]string, 8)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]string, names)
			for i := 0; i < names; i++ {
				out[i] = st.Intern([]byte(fmt.Sprintf("field-%d", i)))
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	if st.Len() != names {
		t.Errorf("table holds %d symbols, want %d", st.Len(), names)
	}
	for g := 1; g < len(results); g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Errorf("goroutine %d interned %q, goroutine 0 %q", g, results[g][i], results[0][i])
			}
		}
	}
}
