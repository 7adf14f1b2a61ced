package infer

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/typelang"
)

// This file is the sharded collector tree — the reduce of a schema that
// is read while it grows, i.e. the live-merge engine of
// internal/registry: long-lived collections fold ingest traffic through
// it (InferStreamInto) and serve snapshot reads that never block the
// ingest path. N leaf collectors each own a shard of the chunk results
// and absorb their share into a typelang.Accum on their own goroutine,
// sealing to an immutable partial only on publish, and a root fuses the
// shard partials through an accumulator of its own — on demand for
// snapshots, and in the background whenever a leaf publishes, so reads
// mostly hit a cache. One-shot runs do not use it: they have no reader
// before the end, so every publish and fuse would be discarded (see
// run in tokens.go).
//
// By associativity and commutativity of the merge (Accum seals are
// pinned byte-identical to the MergeAll reference fold) the tree's
// result is byte-identical (same rendering, same counts) to a single
// ordered fold's, which is pinned by the collector tests.

// maxAutoShards caps the automatically-sized collector tree: shard
// partials multiply the final fuse cost, and past a handful of leaves
// the fold is never the bottleneck again.
const maxAutoShards = 8

// collectorBatch is how many chunk types a leaf absorbs per publish.
// Chunk types are already batch-merged summaries (not single documents),
// so a small cadence amortises the seal without delaying snapshot
// visibility much.
const collectorBatch = 8

// leafState is a leaf's published partial: the merged type and document
// count of everything folded so far, plus a generation that bumps on
// every publish (the root's cache key).
type leafState struct {
	acc  *typelang.Type
	docs int64
	gen  uint64
}

// leafMsg is one unit of leaf work: a chunk type (or a batch of them)
// to fold, or (when wg is non-nil) a flush marker to acknowledge once
// everything enqueued before it is folded and published.
type leafMsg struct {
	t    *typelang.Type
	ts   []*typelang.Type
	docs int64
	wg   *sync.WaitGroup
}

// leafCollector is one shard of the tree: a goroutine draining in,
// absorbing chunk types into its live accumulator, and publishing the
// sealed partial through an atomic pointer that snapshot readers load
// without any lock. The seal is memoised inside the accumulator, so a
// publish with nothing newly absorbed (a flush on a quiet shard) reuses
// the previous sealed partial.
type leafCollector struct {
	in    chan leafMsg
	state atomic.Pointer[leafState]
	done  chan struct{}
}

func (l *leafCollector) run(e typelang.Equiv, poke chan<- struct{}, st *PipelineStats) {
	defer close(l.done)
	var (
		acc     = typelang.NewAccum(e)
		docs    int64
		gen     uint64
		pending int // chunk types absorbed since the last publish
		frame   statsFrame
	)
	publish := func() {
		if pending == 0 {
			// Nothing absorbed since the last publish (a flush on a
			// quiet shard): the stored state is already current, and
			// skipping the generation bump keeps the root's
			// vector-keyed fuse cache hot.
			return
		}
		pending = 0
		gen++
		sealStart := statsClock(st)
		l.state.Store(&leafState{acc: acc.Seal(), docs: docs, gen: gen})
		statsSince(st, &frame.ReduceNanos, sealStart)
		if st != nil {
			frame.BatchPublishes++
			frame.Seals++
			frame.flush(st)
		}
		select {
		case poke <- struct{}{}: // wake the root fuser
		default: // a fuse is already pending; it will see this publish
		}
	}
	for msg := range l.in {
		if msg.wg != nil {
			publish()
			msg.wg.Done()
			continue
		}
		absorbStart := statsClock(st)
		if msg.t != nil {
			acc.Absorb(msg.t)
			pending++
		}
		for _, t := range msg.ts {
			acc.Absorb(t)
			pending++
		}
		statsSince(st, &frame.ReduceNanos, absorbStart)
		docs += msg.docs
		if pending >= collectorBatch {
			publish()
		}
	}
	publish()
}

// ShardedCollector is the collector tree. Add distributes chunk results
// round-robin across the leaves (each Add is one channel send — the
// caller never does merge work), Snapshot reads a consistent-per-leaf
// view without blocking any leaf, Flush makes everything already added
// visible to subsequent snapshots, and Close drains the tree and returns
// the final fold.
//
// Add and Snapshot may be called concurrently from any number of
// goroutines. Add after Close panics.
type ShardedCollector struct {
	equiv  typelang.Equiv
	leaves []*leafCollector
	rr     atomic.Uint64
	poke   chan struct{}
	fused  chan struct{} // closed when the root fuser exits

	// root caches the fused type keyed by the per-leaf generation
	// vector — the exact set of publishes the fuse saw. (A sum would
	// collide: with concurrent publishes two different vectors can sum
	// equal, and a collision would pair the cached schema with a doc
	// count gathered from a different view.) The doc count is not
	// cached — an equal vector implies the gathered view is exactly the
	// cached fuse's input, so Snapshot always returns the gathered one.
	root struct {
		mu    sync.Mutex
		t     *typelang.Type
		gens  []uint64 // leaf generation vector when t was fused
		valid bool
	}

	// stats, when non-nil, receives the reduce-side counters — leaf
	// publishes and seals, reduce/fuse clocks, root fuses. A long-lived
	// collection points this at its cumulative PipelineStats.
	stats *PipelineStats
}

// NewShardedCollector builds a tree of `shards` leaf collectors folding
// under equivalence e; shards <= 0 sizes the tree automatically
// (GOMAXPROCS capped at maxAutoShards). A single-leaf tree is valid and
// degenerates to one background folder.
func NewShardedCollector(shards int, e typelang.Equiv) *ShardedCollector {
	return NewShardedCollectorStats(shards, e, nil)
}

// NewShardedCollectorStats is NewShardedCollector with the tree's
// reduce-side counters reporting into st (nil: recording off) — the
// collector half of the pipeline's flight recorder.
func NewShardedCollectorStats(shards int, e typelang.Equiv, st *PipelineStats) *ShardedCollector {
	if shards <= 0 {
		shards = min(runtime.GOMAXPROCS(0), maxAutoShards)
	}
	c := &ShardedCollector{
		equiv:  e,
		leaves: make([]*leafCollector, shards),
		poke:   make(chan struct{}, 1),
		fused:  make(chan struct{}),
		stats:  st,
	}
	for i := range c.leaves {
		l := &leafCollector{
			in:   make(chan leafMsg, 2*collectorBatch),
			done: make(chan struct{}),
		}
		l.state.Store(&leafState{acc: typelang.Bottom})
		c.leaves[i] = l
		go l.run(e, c.poke, st)
	}
	go c.rootLoop()
	return c
}

// rootLoop is the periodic root fuse: every leaf publish pokes it (the
// buffered channel coalesces bursts), and it refreshes the cached fused
// type so snapshot reads are mostly cache hits.
func (c *ShardedCollector) rootLoop() {
	defer close(c.fused)
	for range c.poke {
		c.Snapshot()
	}
}

// gather loads every leaf's published state: a consistent view per leaf,
// and the generation vector that identifies the exact set of publishes
// seen.
func (c *ShardedCollector) gather() (alts []*typelang.Type, docs int64, gens []uint64) {
	alts = make([]*typelang.Type, len(c.leaves))
	gens = make([]uint64, len(c.leaves))
	for i, l := range c.leaves {
		s := l.state.Load()
		alts[i] = s.acc
		docs += s.docs
		gens[i] = s.gen
	}
	return alts, docs, gens
}

// gensNewer reports whether generation vector a is strictly newer than
// b: at least as new on every leaf, newer on one. Concurrent gathers
// can also be incomparable (each saw a publish the other missed);
// neither then replaces the other in the cache.
func gensNewer(a, b []uint64) bool {
	newer := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			newer = true
		}
	}
	return newer
}

// Add folds one chunk result (its merged type and document count) into
// the tree. It distributes round-robin and costs the caller one channel
// send; the merge work happens on the leaf goroutines.
func (c *ShardedCollector) Add(t *typelang.Type, docs int64) {
	i := c.rr.Add(1) - 1
	c.leaves[i%uint64(len(c.leaves))].in <- leafMsg{t: t, docs: docs}
}

// AddBatch folds a batch of chunk results — their types and total
// document count — into the tree with a single channel send; the whole
// batch lands on one leaf, so snapshot monotonicity and the final fold
// are exactly as if each type had been Added individually (the merge is
// associative and commutative). The collector takes ownership of ts.
// The batched ingest path commits through this: one hand-off per
// committer batch instead of one per chunk.
func (c *ShardedCollector) AddBatch(ts []*typelang.Type, docs int64) {
	if len(ts) == 0 && docs == 0 {
		return
	}
	i := c.rr.Add(1) - 1
	c.leaves[i%uint64(len(c.leaves))].in <- leafMsg{ts: ts, docs: docs}
}

// Flush blocks until every Add that happened before the call is folded
// and visible to Snapshot. Concurrent Adds by other goroutines may or
// may not be included. Ingest paths flush before reporting completion,
// which is what gives a client read-your-writes on the next snapshot.
func (c *ShardedCollector) Flush() {
	var wg sync.WaitGroup
	wg.Add(len(c.leaves))
	for _, l := range c.leaves {
		l.in <- leafMsg{wg: &wg}
	}
	wg.Wait()
}

// Snapshot returns the merged type and document count of everything the
// leaves have published. It never blocks Add or the leaves: it loads the
// published partials, serves the root's cached fuse when it is current,
// and otherwise fuses inline. Chunk results buffered inside a leaf but
// not yet merged are not visible until that leaf's next publish (or a
// Flush); successive snapshots only ever grow.
func (c *ShardedCollector) Snapshot() (*typelang.Type, int64) {
	alts, docs, gens := c.gather()
	c.root.mu.Lock()
	if c.root.valid && slices.Equal(c.root.gens, gens) {
		t := c.root.t
		c.root.mu.Unlock()
		return t, docs
	}
	c.root.mu.Unlock()
	// The fuse runs outside the cache lock so concurrent snapshot
	// readers are never stuck behind it; each fuse folds the (at most
	// `shards`) sealed leaf partials through a fresh accumulator, so
	// concurrent fuses share nothing mutable.
	fuseStart := statsClock(c.stats)
	ra := typelang.NewAccum(c.equiv)
	for _, alt := range alts {
		ra.Absorb(alt)
	}
	t := ra.Seal()
	if st := c.stats; st != nil {
		// Direct atomic adds: snapshots race, so there is no per-site
		// frame to batch into.
		st.rootFuses.Add(1)
		st.seals.Add(1)
		st.fuseNanos.Add(time.Since(fuseStart).Nanoseconds())
	}
	c.root.mu.Lock()
	// Per-leaf generations are monotone, so an elementwise-newer vector
	// is a strictly newer view: a concurrent fuse that saw more
	// publishes wins, and incomparable concurrent views leave the cache
	// alone.
	if !c.root.valid || gensNewer(gens, c.root.gens) {
		c.root.t, c.root.gens, c.root.valid = t, gens, true
	}
	c.root.mu.Unlock()
	return t, docs
}

// Close drains the tree — every pending Add is folded — stops the leaf
// and root goroutines, and returns the final merged type and document
// count. The collector must not be used after Close.
func (c *ShardedCollector) Close() (*typelang.Type, int64) {
	for _, l := range c.leaves {
		close(l.in)
	}
	for _, l := range c.leaves {
		<-l.done
	}
	close(c.poke)
	<-c.fused
	return c.Snapshot()
}
