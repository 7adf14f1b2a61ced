package infer

import (
	"sync/atomic"
	"time"
)

// This file is the pipeline's flight recorder: PipelineStats is a set of
// monotone counters and per-stage clocks every stage of the streamed
// engines reports into when Options.Stats is set. The recording
// discipline is lock-free and per-worker: each worker (and the reader
// goroutine, and the one-shot committer) accumulates into a private,
// plain statsFrame while it works and publishes the frame with a handful
// of atomic adds at chunk granularity — never per document, never per
// token — so the counters cost nothing measurable on the hot path and
// nothing at all when Stats is nil (every site is nil-guarded).
//
// Snapshot reads are atomic loads: consistent per counter, monotone
// across successive reads, and safe to take while the pipeline runs.
// The registry keeps one cumulative PipelineStats per collection (its
// collector reports the reduce-side counters straight into it) and
// hands each ingest call a private one, whose snapshot becomes the
// per-request delta that rides in IngestResult and on trace spans — so
// `jsinfer -stats`, /v1/stats, /metrics and /debug/traces all account
// from the same counters and reconcile exactly once ingest quiesces.

// StatsSnapshot is a point-in-time copy of the pipeline counters — a
// plain value, safe to aggregate, diff and serialise.
type StatsSnapshot struct {
	// ChunksSplit counts document-aligned byte chunks the chunking
	// stage emitted to the map phase.
	ChunksSplit int64
	// BytesLexed counts payload bytes handed to the map phase (the sum
	// of emitted chunk lengths).
	BytesLexed int64
	// DocsAbsorbed counts documents the map phase absorbed into chunk
	// accumulators — work done, including chunks a later error discards
	// before commit (IngestResult.Docs counts the committed prefix).
	DocsAbsorbed int64
	// IndexRecords counts records absorbed entirely off the structural
	// index (MapIndexed fast path, no token ever materialised).
	IndexRecords int64
	// FallbackRecords counts records the index walk could not certify
	// and delegated to the token walker (MapIndexed per-record
	// fallback), whether or not the token walker then accepted them.
	FallbackRecords int64
	// ParityRejects counts chunks the structural index rejected outright
	// (odd unescaped-quote parity), each falling back whole to the token
	// path. Counted once per chunk even when both the index absorber and
	// the mison tokenizer reject it.
	ParityRejects int64
	// ScanDelegations counts tokens the mison fast paths handed to the
	// reference scanner (escaped strings, fancy numbers) instead of
	// resolving positionally.
	ScanDelegations int64
	// RootFuses counts collector snapshots that found a shard changed
	// and rebuilt the served schema (cache-miss reads). Collector only:
	// 0 on a one-shot run.
	RootFuses int64
	// Seals counts accumulator seals the pipeline performed: one per
	// chunk on a multi-worker run (none at one worker), plus the
	// one-shot run's single final seal or, in a collector, the seals a
	// cache-miss read did: one per shard that changed since the last
	// read, plus the fuse's when there are several shards. A memoised
	// seal that rebuilt nothing is not counted.
	Seals int64
	// BytesAliased counts chunk bytes emitted zero-copy — chunks that
	// alias the caller's buffer (byte-slice engines, mmap'd files)
	// instead of a reader-owned array.
	BytesAliased int64
	// BytesCopied counts bytes the reader path moved during buffer
	// compaction (the unsplit tail carried between refills) — the copy
	// tax the zero-copy path avoids.
	BytesCopied int64
	// BuffersRecycled counts chunk arrays the reader path reacquired
	// from the run's pool instead of allocating fresh.
	BuffersRecycled int64
	// MmapInputs counts inputs served through a memory mapping.
	MmapInputs int64
	// ReaderInputs counts inputs served through the copying io.Reader
	// path.
	ReaderInputs int64

	// Per-stage wall time, monotonic nanoseconds. The stages overlap in
	// real time (the reader splits while workers absorb while the
	// committer folds), so the sum across stages exceeds the request
	// wall time on a multi-core host — each figure answers "where did
	// this stage's goroutines spend their time", not "what fraction of
	// the wall".
	ReadNanos   int64 // reader goroutine blocked in io.Reader.Read
	SplitNanos  int64 // boundary finding (docSplitter.Splits)
	MapNanos    int64 // workers indexing, lexing, absorbing and sealing chunks
	ReduceNanos int64 // committer absorbing committed chunk types (into the run's accumulator, or a collector shard); the one-shot run's final seal at any worker count
	FuseNanos   int64 // collector cache-miss reads: sealing the changed shards and fusing the partials (0 on a one-shot run)
}

// Add accumulates other into s field by field.
func (s *StatsSnapshot) Add(other StatsSnapshot) {
	s.ChunksSplit += other.ChunksSplit
	s.BytesLexed += other.BytesLexed
	s.DocsAbsorbed += other.DocsAbsorbed
	s.IndexRecords += other.IndexRecords
	s.FallbackRecords += other.FallbackRecords
	s.ParityRejects += other.ParityRejects
	s.ScanDelegations += other.ScanDelegations
	s.RootFuses += other.RootFuses
	s.Seals += other.Seals
	s.BytesAliased += other.BytesAliased
	s.BytesCopied += other.BytesCopied
	s.BuffersRecycled += other.BuffersRecycled
	s.MmapInputs += other.MmapInputs
	s.ReaderInputs += other.ReaderInputs
	s.ReadNanos += other.ReadNanos
	s.SplitNanos += other.SplitNanos
	s.MapNanos += other.MapNanos
	s.ReduceNanos += other.ReduceNanos
	s.FuseNanos += other.FuseNanos
}

// PipelineStats is the shared, concurrent-safe counter set the pipeline
// reports into. All methods are safe for concurrent use; the zero value
// is ready to record. A nil *PipelineStats is the "off" state — every
// recording site treats it as a no-op — so the streamed engines carry
// no stats cost unless a caller opts in through Options.Stats.
type PipelineStats struct {
	chunksSplit     atomic.Int64
	bytesLexed      atomic.Int64
	docsAbsorbed    atomic.Int64
	indexRecords    atomic.Int64
	fallbackRecords atomic.Int64
	parityRejects   atomic.Int64
	scanDelegations atomic.Int64
	rootFuses       atomic.Int64
	seals           atomic.Int64
	bytesAliased    atomic.Int64
	bytesCopied     atomic.Int64
	buffersRecycled atomic.Int64
	mmapInputs      atomic.Int64
	readerInputs    atomic.Int64
	readNanos       atomic.Int64
	splitNanos      atomic.Int64
	mapNanos        atomic.Int64
	reduceNanos     atomic.Int64
	fuseNanos       atomic.Int64
}

// Snapshot returns a point-in-time copy of the counters. Each field is
// an atomic load; successive snapshots of a live pipeline are monotone
// per field.
func (p *PipelineStats) Snapshot() StatsSnapshot {
	if p == nil {
		return StatsSnapshot{}
	}
	return StatsSnapshot{
		ChunksSplit:     p.chunksSplit.Load(),
		BytesLexed:      p.bytesLexed.Load(),
		DocsAbsorbed:    p.docsAbsorbed.Load(),
		IndexRecords:    p.indexRecords.Load(),
		FallbackRecords: p.fallbackRecords.Load(),
		ParityRejects:   p.parityRejects.Load(),
		ScanDelegations: p.scanDelegations.Load(),
		RootFuses:       p.rootFuses.Load(),
		Seals:           p.seals.Load(),
		BytesAliased:    p.bytesAliased.Load(),
		BytesCopied:     p.bytesCopied.Load(),
		BuffersRecycled: p.buffersRecycled.Load(),
		MmapInputs:      p.mmapInputs.Load(),
		ReaderInputs:    p.readerInputs.Load(),
		ReadNanos:       p.readNanos.Load(),
		SplitNanos:      p.splitNanos.Load(),
		MapNanos:        p.mapNanos.Load(),
		ReduceNanos:     p.reduceNanos.Load(),
		FuseNanos:       p.fuseNanos.Load(),
	}
}

// AddSnapshot folds a snapshot (typically a per-request delta) into the
// counters — how the registry rolls each ingest call's private stats
// into the collection's cumulative ones.
func (p *PipelineStats) AddSnapshot(d StatsSnapshot) {
	if p == nil {
		return
	}
	addNonZero(&p.chunksSplit, d.ChunksSplit)
	addNonZero(&p.bytesLexed, d.BytesLexed)
	addNonZero(&p.docsAbsorbed, d.DocsAbsorbed)
	addNonZero(&p.indexRecords, d.IndexRecords)
	addNonZero(&p.fallbackRecords, d.FallbackRecords)
	addNonZero(&p.parityRejects, d.ParityRejects)
	addNonZero(&p.scanDelegations, d.ScanDelegations)
	addNonZero(&p.rootFuses, d.RootFuses)
	addNonZero(&p.seals, d.Seals)
	addNonZero(&p.bytesAliased, d.BytesAliased)
	addNonZero(&p.bytesCopied, d.BytesCopied)
	addNonZero(&p.buffersRecycled, d.BuffersRecycled)
	addNonZero(&p.mmapInputs, d.MmapInputs)
	addNonZero(&p.readerInputs, d.ReaderInputs)
	addNonZero(&p.readNanos, d.ReadNanos)
	addNonZero(&p.splitNanos, d.SplitNanos)
	addNonZero(&p.mapNanos, d.MapNanos)
	addNonZero(&p.reduceNanos, d.ReduceNanos)
	addNonZero(&p.fuseNanos, d.FuseNanos)
}

func addNonZero(a *atomic.Int64, v int64) {
	if v != 0 {
		a.Add(v)
	}
}

// statsFrame is the private, unsynchronised accumulator a recording
// site (worker, reader, committer) fills while it works. flush
// publishes it with atomic adds and resets it; sites flush at chunk
// granularity, so the shared cache lines are touched a handful of times
// per chunk rather than per document.
type statsFrame struct {
	StatsSnapshot
}

// flush publishes the frame's non-zero fields into p (nil p: drop) and
// zeroes the frame.
func (f *statsFrame) flush(p *PipelineStats) {
	if p != nil {
		addNonZero(&p.chunksSplit, f.ChunksSplit)
		addNonZero(&p.bytesLexed, f.BytesLexed)
		addNonZero(&p.docsAbsorbed, f.DocsAbsorbed)
		addNonZero(&p.indexRecords, f.IndexRecords)
		addNonZero(&p.fallbackRecords, f.FallbackRecords)
		addNonZero(&p.parityRejects, f.ParityRejects)
		addNonZero(&p.scanDelegations, f.ScanDelegations)
		addNonZero(&p.rootFuses, f.RootFuses)
		addNonZero(&p.seals, f.Seals)
		addNonZero(&p.bytesAliased, f.BytesAliased)
		addNonZero(&p.bytesCopied, f.BytesCopied)
		addNonZero(&p.buffersRecycled, f.BuffersRecycled)
		addNonZero(&p.mmapInputs, f.MmapInputs)
		addNonZero(&p.readerInputs, f.ReaderInputs)
		addNonZero(&p.readNanos, f.ReadNanos)
		addNonZero(&p.splitNanos, f.SplitNanos)
		addNonZero(&p.mapNanos, f.MapNanos)
		addNonZero(&p.reduceNanos, f.ReduceNanos)
		addNonZero(&p.fuseNanos, f.FuseNanos)
	}
	f.StatsSnapshot = StatsSnapshot{}
}

// statsClock returns the current monotonic time when stats are being
// recorded, and the zero time otherwise — so the disabled pipeline
// never calls time.Now at all.
func statsClock(p *PipelineStats) time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// statsSince accumulates the nanoseconds since start (as returned by
// statsClock) into *dst when stats are enabled.
func statsSince(p *PipelineStats, dst *int64, start time.Time) {
	if p != nil {
		*dst += time.Since(start).Nanoseconds()
	}
}
