package infer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/typelang"
)

// This file is the sharded collector — the reduce of a schema that is
// read while it grows, i.e. the live-merge engine of internal/registry:
// long-lived collections fold ingest traffic into it (InferStreamInto)
// and serve snapshot reads from it. It is the one-shot engine's reduce
// (run in tokens.go) made shareable: committed chunk types are absorbed
// in line, on the committer's goroutine, into one of N mutex-guarded
// typelang.Accums, and nothing is canonicalised until somebody reads —
// a Snapshot seals the shards added to since the last one and fuses
// the sealed partials. By associativity and commutativity of the merge
// (Accum seals are pinned byte-identical to the MergeAll reference
// fold) the result is byte-identical (same rendering, same counts) to a
// single ordered fold's, whichever shard each batch landed on; the
// collector tests pin that.

// maxAutoShards caps the automatically-sized collector: shard partials
// multiply the fuse cost, and past a handful of shards concurrent
// committers never meet on one lock.
const maxAutoShards = 8

// shard is one stripe of the collector: an open accumulator and the
// number of documents its absorbed types summarise, guarded together so
// a reader sees a type and a count of the same set of batches.
type shard struct {
	mu   sync.Mutex
	acc  *typelang.Accum
	docs int64
}

// ShardedCollector is the striped reduce. AddBatch absorbs a batch of
// chunk types into one shard on the caller's goroutine — complete, and
// visible to the next Snapshot, when it returns. Snapshot returns the
// merged type and document count of everything added, and Close the
// final fold.
//
// AddBatch and Snapshot may be called concurrently from any number of
// goroutines. AddBatch after Close panics.
type ShardedCollector struct {
	equiv  typelang.Equiv
	shards []shard
	rr     atomic.Uint64
	closed atomic.Bool

	// root serialises Snapshot, so the views it returns are totally
	// ordered and, each shard only ever growing, monotone. parts holds
	// each shard's seal as of the snapshot that computed t: seals are
	// memoised in the accumulator and rebuilt after any Absorb, so a
	// pointer that has not moved is a shard nothing was added to.
	root struct {
		mu    sync.Mutex
		parts []*typelang.Type
		t     *typelang.Type
	}

	// stats, when non-nil, receives the reduce-side counters: the
	// absorb clock, and the seals, fuses and fuse clock of snapshots
	// that found something new. A long-lived collection points this at
	// its cumulative PipelineStats.
	stats *PipelineStats
}

// NewShardedCollector builds a collector of `shards` accumulators
// folding under equivalence e; shards <= 0 sizes it automatically
// (GOMAXPROCS capped at maxAutoShards).
func NewShardedCollector(shards int, e typelang.Equiv) *ShardedCollector {
	return NewShardedCollectorStats(shards, e, nil)
}

// NewShardedCollectorStats is NewShardedCollector with the collector's
// reduce-side counters reporting into st (nil: recording off) — the
// collector half of the pipeline's flight recorder.
func NewShardedCollectorStats(shards int, e typelang.Equiv, st *PipelineStats) *ShardedCollector {
	if shards <= 0 {
		shards = min(runtime.GOMAXPROCS(0), maxAutoShards)
	}
	c := &ShardedCollector{equiv: e, shards: make([]shard, shards), stats: st}
	c.root.parts = make([]*typelang.Type, shards)
	for i := range c.shards {
		c.shards[i].acc = typelang.NewAccum(e)
		c.root.parts[i] = typelang.Bottom // what an empty accumulator seals to
	}
	c.root.t = typelang.Bottom
	return c
}

// AddBatch folds a batch of chunk results — their types and total
// document count — into the collector. Shards are picked round-robin
// and the whole batch lands on one, under that shard's lock, so the
// caller waits only for adders (or a snapshot's seal) that drew the
// same shard; the final fold is the same wherever batches land (the
// merge is associative and commutative). ts is not retained.
func (c *ShardedCollector) AddBatch(ts []*typelang.Type, docs int64) {
	if c.closed.Load() {
		panic("infer: AddBatch on a closed ShardedCollector")
	}
	s := &c.shards[(c.rr.Add(1)-1)%uint64(len(c.shards))]
	s.mu.Lock()
	start := statsClock(c.stats)
	for _, t := range ts {
		s.acc.Absorb(t)
	}
	s.docs += docs
	s.mu.Unlock()
	if c.stats != nil {
		c.stats.AddSnapshot(StatsSnapshot{ReduceNanos: time.Since(start).Nanoseconds()})
	}
}

// Snapshot returns the merged type and document count of every AddBatch
// that returned before the call (concurrent ones may or may not be
// included); successive snapshots only ever grow. A quiet collector
// answers from the cache — the same *Type as last time. Otherwise the
// shards added to are sealed, each under its own lock (adds to that
// shard wait for the seal, adds to the others do not), and the sealed
// partials are fused; with one shard its seal is the answer.
func (c *ShardedCollector) Snapshot() (*typelang.Type, int64) {
	c.root.mu.Lock()
	defer c.root.mu.Unlock()
	start := statsClock(c.stats)
	var docs, seals int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		t := s.acc.Seal()
		docs += s.docs
		s.mu.Unlock()
		if t != c.root.parts[i] {
			c.root.parts[i] = t
			seals++
		}
	}
	if seals == 0 {
		return c.root.t, docs
	}
	if len(c.shards) == 1 {
		c.root.t = c.root.parts[0]
	} else {
		fuse := typelang.NewAccum(c.equiv)
		for _, part := range c.root.parts {
			fuse.Absorb(part)
		}
		c.root.t = fuse.Seal()
		seals++
	}
	if c.stats != nil {
		c.stats.AddSnapshot(StatsSnapshot{RootFuses: 1, Seals: seals, FuseNanos: time.Since(start).Nanoseconds()})
	}
	return c.root.t, docs
}

// Close returns the final merged type and document count. The collector
// must not be added to afterwards.
func (c *ShardedCollector) Close() (*typelang.Type, int64) {
	c.closed.Store(true)
	return c.Snapshot()
}
