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
// (run in tokens.go) made shareable: each window's documents are
// absorbed in line, on the ingest's own goroutine, into one of N
// mutex-guarded typelang.Accums, and nothing is canonicalised until
// somebody reads — a Snapshot seals the shards added to since the last
// one and, when several hold data, fuses the sealed partials. By
// associativity and commutativity of the merge (Accum seals are pinned
// byte-identical to the MergeAll reference fold) the result is
// byte-identical (same rendering, same counts) to a single ordered
// fold's, whichever shard each window landed on; the collector tests
// pin that.

// maxAutoShards caps the automatically-sized collector: shard partials
// multiply the fuse cost, and past a handful of shards concurrent
// committers never meet on one lock.
const maxAutoShards = 8

// shard is one stripe of the collector: an open accumulator and the
// number of documents it holds, guarded together so a reader sees a
// type and a count of the same set of documents, and the chunk mapper
// that types the windows it takes — made on first use and kept warm
// between ingests, pattern tree and intern cache included, unless a
// window wider than maxPooledChunkBuf grew its bitmaps.
type shard struct {
	mu   sync.Mutex
	acc  *typelang.Accum
	docs int64
	m    *chunkMapper
}

// ShardedCollector is the striped reduce. InferStreamInto absorbs a
// body's windows into it, each into one shard on the caller's goroutine
// — complete, and visible to the next Snapshot, when it returns.
// Snapshot returns the merged type and document count of everything
// added.
//
// InferStreamInto and Snapshot may be called concurrently from any
// number of goroutines.
type ShardedCollector struct {
	equiv  typelang.Equiv
	shards []shard
	rr     atomic.Uint64
	closed atomic.Bool

	// The chunk arrays InferStreamInto would otherwise allocate per
	// call, kept warm between ingests and bounded: at most one per
	// shard, none that a giant document grew (chunkPool.put). A body is
	// read into them before any shard is locked, never while one is
	// held, so they cannot be a shard's own.
	chunks chunkPool

	// root serialises Snapshot, so the views it returns are totally
	// ordered and, each shard only ever growing, monotone. parts holds
	// each shard's seal as of the snapshot that computed t: seals are
	// memoised in the accumulator and rebuilt after any Absorb, so a
	// pointer that has not moved is a shard nothing was added to.
	// epoch counts the snapshots that moved a part's structure: a
	// replaced part the shard is not Accum.SameStructure as.
	root struct {
		mu    sync.Mutex
		parts []*typelang.Type
		t     *typelang.Type
		epoch uint64
	}

	// stats, when non-nil, receives the read-side counters: the seals,
	// fuses and fuse clock of snapshots that found something new. A
	// long-lived collection points this at its cumulative PipelineStats.
	stats *PipelineStats
}

// NewShardedCollector builds a collector of `shards` accumulators
// folding under equivalence e; shards <= 0 sizes it automatically
// (GOMAXPROCS capped at maxAutoShards).
func NewShardedCollector(shards int, e typelang.Equiv) *ShardedCollector {
	return NewShardedCollectorStats(shards, e, nil)
}

// NewShardedCollectorStats is NewShardedCollector with the collector's
// read-side counters reporting into st (nil: recording off) — the
// collector half of the pipeline's flight recorder.
func NewShardedCollectorStats(shards int, e typelang.Equiv, st *PipelineStats) *ShardedCollector {
	if shards <= 0 {
		shards = min(runtime.GOMAXPROCS(0), maxAutoShards)
	}
	c := &ShardedCollector{equiv: e, shards: make([]shard, shards), stats: st}
	c.chunks.limit = shards
	c.root.parts = make([]*typelang.Type, shards)
	for i := range c.shards {
		c.shards[i].acc = typelang.NewAccum(e)
		c.root.parts[i] = typelang.Bottom // what an empty accumulator seals to
	}
	c.root.t = typelang.Bottom
	return c
}

// lock returns a shard, locked: the first free one in index order — a
// lone feeder therefore keeps filling (and keeps warm) one accumulator,
// concurrent feeders spread out, and nobody waits behind a busy shard
// while another is idle — or, when every shard is busy, the next one
// round-robin. The final fold is the same wherever additions land (the
// merge is associative and commutative).
func (c *ShardedCollector) lock() *shard {
	if c.closed.Load() {
		panic("infer: add to a closed ShardedCollector")
	}
	for i := range c.shards {
		if c.shards[i].mu.TryLock() {
			return &c.shards[i]
		}
	}
	s := &c.shards[(c.rr.Add(1)-1)%uint64(len(c.shards))]
	s.mu.Lock()
	return s
}

// absorbChunk is InferStreamInto's fold: it types ch's documents
// through a shard's mapper, recording into st, straight into the
// shard's accumulator and books them, all under that shard's lock —
// held for this window only, never across a read of the input. The
// mapper is then unbound from ch's bytes, and dropped when ch was wider
// than any array the chunk pool keeps: its bitmaps grew with it. It
// returns what chunkMapper.direct does; the shard holds exactly the
// documents before the error.
func (c *ShardedCollector) absorbChunk(st *PipelineStats, ch byteChunk) (int, error) {
	s := c.lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = newChunkMapper(st)
	}
	s.m.st = st
	n, err := s.m.direct(ch, s.acc)
	s.docs += int64(n)
	_ = s.m.ia.Reset(nil, 0) // always nil
	if len(ch.data) > maxPooledChunkBuf {
		s.m = nil
	}
	return n, err
}

// AddBatch folds a batch of sealed types — summarising docs documents
// in all — into the collector. The whole batch lands on one shard (see
// lock), under that shard's lock. ts is not retained. It has no
// production caller: bench/jsperf measures the collector through it,
// and the tests use it to fill shards by hand. AddBatch after Close
// panics.
func (c *ShardedCollector) AddBatch(ts []*typelang.Type, docs int64) {
	s := c.lock()
	for _, t := range ts {
		s.acc.Absorb(t)
	}
	s.docs += docs
	s.mu.Unlock()
}

// Snapshot returns the merged type and document count of every addition
// that returned before the call (concurrent ones may or may not be
// included); successive snapshots only ever grow. A quiet collector
// answers from the cache — the same *Type as last time. Otherwise the
// shards added to are sealed, each under its own lock (adds to that
// shard wait for the seal, adds to the others do not), and the sealed
// partials are fused; when only one shard holds data — a lone feeder's
// collector — its seal is the answer.
func (c *ShardedCollector) Snapshot() (*typelang.Type, int64) {
	c.root.mu.Lock()
	defer c.root.mu.Unlock()
	return c.snapshot()
}

// SnapshotEpoch is Snapshot's type together with its structure epoch,
// what StructureHolds takes.
func (c *ShardedCollector) SnapshotEpoch() (*typelang.Type, uint64) {
	c.root.mu.Lock()
	defer c.root.mu.Unlock()
	t, _ := c.snapshot()
	return t, c.root.epoch
}

// StructureHolds reports whether a Snapshot now would have the
// structure (typelang.Accum.SameStructure) of the one SnapshotEpoch
// returned epoch with: no snapshot since moved a part's structure, and
// every shard would still seal to its part's. The fused type's
// structure is a function of its parts' alone. It seals and allocates
// nothing, and is serialised with Snapshot.
func (c *ShardedCollector) StructureHolds(epoch uint64) bool {
	c.root.mu.Lock()
	defer c.root.mu.Unlock()
	if epoch != c.root.epoch {
		return false
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		same := s.acc.SameStructure(c.root.parts[i])
		s.mu.Unlock()
		if !same {
			return false
		}
	}
	return true
}

// snapshot is Snapshot under the root lock.
func (c *ShardedCollector) snapshot() (*typelang.Type, int64) {
	start := statsClock(c.stats)
	var docs, seals int64
	moved := false
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		t := s.acc.Seal()
		docs += s.docs
		if t != c.root.parts[i] {
			moved = moved || !s.acc.SameStructure(c.root.parts[i])
			c.root.parts[i] = t
			seals++
		}
		s.mu.Unlock()
	}
	if seals == 0 {
		return c.root.t, docs
	}
	if moved {
		c.root.epoch++
	}
	var filled []*typelang.Type
	for _, part := range c.root.parts {
		if part.Kind != typelang.KBottom {
			filled = append(filled, part)
		}
	}
	if len(filled) == 1 {
		c.root.t = filled[0]
	} else {
		fuse := typelang.NewAccum(c.equiv)
		for _, part := range filled {
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
// must not be added to afterwards. Like AddBatch it has no production
// caller (a registry drops a deleted collection's collector unread).
func (c *ShardedCollector) Close() (*typelang.Type, int64) {
	c.closed.Store(true)
	return c.Snapshot()
}
