package infer

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
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
// adders — some handing over sealed types, more of them than there are
// shards streaming bodies in through InferStreamInto, of one window and
// of many, sharing the collector's mapper and chunk-array pools —
// against continuous snapshot readers. Snapshots are serialised under
// the root lock, so the ones a reader observes, in the order it
// observes them, only grow — in documents and in schema (each subsumes
// the one before) — and the final fold is the oracle's over everything
// that was added.
func TestShardedCollectorConcurrent(t *testing.T) {
	const adders, perAdder, feeders, perFeeder, nReaders = 4, 200, 6, 8, 2
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
	var (
		wg  sync.WaitGroup
		all [adders + feeders][]*typelang.Type // what each goroutine added, for the oracle
	)
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAdder; i++ {
				ty := typelang.RecordOwned(1, []typelang.Field{
					{Name: fmt.Sprintf("f%d", (a+i)%5), Type: atomInt, Count: 1},
				})
				col.AddBatch([]*typelang.Type{ty}, 1)
				all[a] = append(all[a], ty)
			}
		}(a)
	}
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < perFeeder; i++ {
				docs := genjson.Collection(genjson.Twitter{Seed: int64(10*f + i)}, 30)
				for _, d := range docs {
					all[adders+f] = append(all[adders+f], TypeOf(d, typelang.EquivLabel))
				}
				// Every other body spans many windows, each a shard lock of its own.
				opts := Options{Equiv: typelang.EquivLabel, ChunkBytes: (i % 2) << 10}
				if n, err := InferStreamInto(bytes.NewReader(jsontext.MarshalLines(docs)), opts, col); err != nil || n != len(docs) {
					t.Errorf("feeder %d body %d: %d docs, err %v", f, i, n, err)
				}
			}
		}(f)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	var added []*typelang.Type
	for _, ts := range all {
		added = append(added, ts...)
	}
	got, n := col.Close()
	if n != int64(len(added)) {
		t.Errorf("final docs = %d, want %d", n, len(added))
	}
	if want := typelang.MergeAll(added, typelang.EquivLabel); got.StringCounted() != want.StringCounted() {
		t.Errorf("concurrent fold diverges from the oracle\n want: %s\n got:  %s", want.StringCounted(), got.StringCounted())
	}
}

// ingestInto feeds body into col under opts with a private recorder and
// returns the call's counters.
func ingestInto(t *testing.T, col *ShardedCollector, body []byte, opts Options) StatsSnapshot {
	t.Helper()
	var st PipelineStats
	opts.Stats = &st
	if _, err := InferStreamInto(bytes.NewReader(body), opts, col); err != nil {
		t.Fatal(err)
	}
	return st.Snapshot()
}

// TestCollectorKeepsBoundedState pins what a collector carries from one
// ingest to the next: the chunk array of an ordinary body and each
// shard's mapper, which the next body reuses — and neither the array an
// unsplittable 4 MiB document grew, nor the mapper whose bitmaps grew
// with it. A vocabulary never costs a mapper: its intern cache bounds
// itself.
func TestCollectorKeepsBoundedState(t *testing.T) {
	small := []byte(`{"a": 1}` + "\n" + `{"b": [true]}` + "\n")
	giant := []byte(`{"blob": "` + strings.Repeat("x", 4<<20) + `"}` + "\n")
	opts := Options{Equiv: typelang.EquivLabel}
	col := NewShardedCollector(2, typelang.EquivLabel)
	kept := func() (arrays, widest, mappers int) {
		for _, b := range col.chunks.free {
			widest = max(widest, cap(b.data))
		}
		for i := range col.shards {
			if col.shards[i].m != nil {
				mappers++
			}
		}
		return len(col.chunks.free), widest, mappers
	}

	if s := ingestInto(t, col, giant, opts); s.ChunksSplit != 1 || s.Seals != 0 || s.BytesCopied == 0 {
		t.Fatalf("giant body: chunks_split=%d seals=%d bytes_copied=%d, want one chunk absorbed in line, grown by copying", s.ChunksSplit, s.Seals, s.BytesCopied)
	}
	if arrays, widest, mappers := kept(); widest > maxPooledChunkBuf || mappers != 0 {
		t.Errorf("after a 4 MiB document the collector keeps %d arrays (widest %d B) and %d mappers; want nothing that grew with it",
			arrays, widest, mappers)
	}
	if s := ingestInto(t, col, small, opts); s.BuffersRecycled > 1 {
		t.Errorf("small body after the giant one recycled %d arrays", s.BuffersRecycled)
	}
	if arrays, widest, mappers := kept(); arrays == 0 || widest > maxPooledChunkBuf || mappers != 1 || col.shards[0].m == nil {
		t.Errorf("after a small body the collector keeps %d arrays (widest %d B) and %d mappers, want its array and shard 0's mapper",
			arrays, widest, mappers)
	}
	warm := col.shards[0].m
	if s := ingestInto(t, col, small, opts); s.BuffersRecycled != 1 {
		t.Errorf("second small body recycled %d arrays, want 1 (the kept one)", s.BuffersRecycled)
	}
	if col.shards[0].m != warm {
		t.Error("second small body did not reuse the kept mapper")
	}
	if warm.ia.data != nil {
		t.Error("the kept mapper still holds the last window's bytes")
	}
	ingestInto(t, col, giant, opts)
	if _, _, mappers := kept(); mappers != 0 {
		t.Errorf("after a second 4 MiB document the collector keeps %d mappers, want the grown one dropped", mappers)
	}

	// Concurrent feeders spread over the shards, each of which keeps at
	// most the one mapper it typed with.
	var wg sync.WaitGroup
	for range 3 * len(col.shards) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := InferStreamInto(bytes.NewReader(small), opts, col); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 3*len(col.shards); i++ {
		col.chunks.put(&chunkBuf{data: make([]byte, 8)})
	}
	if arrays, _, mappers := kept(); arrays > len(col.shards) || mappers == 0 || mappers > len(col.shards) {
		t.Errorf("the collector keeps %d arrays and %d mappers, want at most one of each per shard (%d)", arrays, mappers, len(col.shards))
	}

	// The lexer starts a fresh intern cache when one holds 1 << 16
	// names, so a mapper is kept whatever vocabulary it met: after a
	// small body, and after a body of more distinct names than that.
	wide := NewShardedCollector(2, typelang.EquivKind)
	ingestInto(t, wide, small, Options{})
	warm = wide.shards[0].m
	if warm == nil {
		t.Fatal("after a small body shard 0 keeps no mapper")
	}
	// 70 documents of 1000 names, zero-padded so the names sort in
	// arrival order and the K record's field table only appends.
	var body []byte
	for d := range 70 {
		body = append(body, '{')
		for k := range 1000 {
			if k > 0 {
				body = append(body, ',')
			}
			body = fmt.Appendf(body, `"k%08d":0`, d*1000+k)
		}
		body = append(body, "}\n"...)
	}
	ingestInto(t, wide, body, Options{})
	if wide.shards[0].m != warm {
		t.Errorf("after 70000 distinct names shard 0 keeps mapper %p, want the warm one %p", wide.shards[0].m, warm)
	}
}

// TestCollectorSameStructureAcrossShards: StructureHolds(epoch) holds
// exactly while every shard's fresh seal renders as its part did at
// epoch without counts — and then the fused type does too (the converse
// need not hold: a shard learning a field another shard has leaves the
// fuse's structure as it was) — across several shards holding data,
// shards that fill for the first time, and a fuse that makes a field
// optional although no single shard does. A snapshot moves the epoch
// exactly when it moves a part's structure, so a move a sealing read
// found first fails the query too. Documents go to chosen shards by
// hand, each as one ingest would absorb it.
func TestCollectorSameStructureAcrossShards(t *testing.T) {
	structures := func(c *ShardedCollector) []string {
		out := make([]string, len(c.root.parts))
		for i, p := range c.root.parts {
			out[i] = p.String()
		}
		return out
	}
	docs := genjson.Collection(genjson.Mixture{Seed: 8,
		Generators: []genjson.Generator{genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}, genjson.TypeDrift{Seed: 3}},
		Weights:    []float64{1, 1, 1}}, 600)
	for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
		col := NewShardedCollector(3, e)
		kept, epoch := col.SnapshotEpoch()
		parts := structures(col)
		for i, d := range docs {
			s := &col.shards[(i/7)%3]
			s.acc.Absorb(TypeOf(d, e))
			s.docs++
			if i%5 != 4 {
				continue
			}
			holds := col.StructureHolds(epoch)
			now, nowEpoch := col.SnapshotEpoch()
			want := slices.Equal(structures(col), parts)
			if holds != want {
				t.Fatalf("%v after %d docs: StructureHolds = %v, want %v", e, i+1, holds, want)
			}
			if moved := nowEpoch != epoch; moved == holds {
				t.Fatalf("%v after %d docs: the snapshot moved the epoch %d → %d, and the structure held: %v", e, i+1, epoch, nowEpoch, holds)
			}
			if holds && now.String() != kept.String() {
				t.Fatalf("%v after %d docs: every part kept its structure, the fuse did not\n then: %s\n  now: %s", e, i+1, kept, now)
			}
			if i%3 == 0 || !holds {
				kept, epoch, parts = now, nowEpoch, structures(col)
			}
		}
	}

	// K fuses {a, b} from one shard and {a} from another into {a, b?}:
	// the fuse's structure follows the parts', and a shard filling for
	// the first time is a change.
	col := NewShardedCollector(2, typelang.EquivKind)
	ab := TypeOf(jsontext.MustParse(`{"a": 1, "b": 2}`), typelang.EquivKind)
	a := TypeOf(jsontext.MustParse(`{"a": 3}`), typelang.EquivKind)
	col.shards[0].acc.Absorb(ab)
	kept, epoch := col.SnapshotEpoch()
	col.shards[1].acc.Absorb(a)
	if col.StructureHolds(epoch) {
		t.Error("a shard's first record left the structure as it was")
	}
	if now, _ := col.Snapshot(); now.String() == kept.String() {
		t.Fatalf("fused %s, as before", now)
	}
	kept, epoch = col.SnapshotEpoch()
	col.shards[0].acc.Absorb(ab)
	col.shards[1].acc.Absorb(a)
	if !col.StructureHolds(epoch) {
		t.Errorf("count-only additions to both shards changed the structure of %s", kept)
	}
	if n := testing.AllocsPerRun(10, func() { col.StructureHolds(epoch) }); n != 0 {
		t.Errorf("StructureHolds allocates %.0f times, want 0", n)
	}
	if _, now := col.SnapshotEpoch(); now != epoch || !col.StructureHolds(epoch) {
		t.Errorf("a snapshot of count-only additions moved the epoch %d → %d", epoch, now)
	}

	// A new field that a snapshot seals before anyone asks: every shard
	// now seals to its part's structure, and the epoch alone tells.
	col.shards[0].acc.Absorb(TypeOf(jsontext.MustParse(`{"a": 1, "b": 2, "c": 3}`), typelang.EquivKind))
	col.Snapshot()
	if col.StructureHolds(epoch) {
		t.Error("a structural change a snapshot sealed first leaves the epoch holding")
	}
}
