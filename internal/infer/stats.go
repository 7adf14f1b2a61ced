package infer

import (
	"strings"
	"sync"
	"time"
)

// This file is the pipeline's flight recorder: PipelineStats is a set of
// monotone counters and per-stage clocks every stage of the streamed
// engines reports into when Options.Stats is set. Each recording site
// (a mapper, the chunking stage, the one-shot run) accumulates into a
// private, plain statsFrame while it works and publishes the frame under
// the recorder's one lock at chunk granularity — never per document,
// never per token — so the counters cost nothing measurable on the hot
// path and nothing at all when Stats is nil (every site is nil-guarded).
// A parallel worker's frame rides its window's result to the committer,
// which books it into the run's frame — of a window after the run's
// first error, only the clock and the seal.
//
// The registry keeps one cumulative PipelineStats per collection (its
// collector reports the read-side counters straight into it) and
// hands each ingest call a private one, whose snapshot becomes the
// per-request delta that rides in IngestResult and on trace spans — so
// `jsinfer -stats`, /v1/stats, /metrics and /debug/traces all account
// from the same counters and reconcile exactly once ingest quiesces.

// StatsSnapshot is a point-in-time copy of the pipeline counters — a
// plain value, safe to aggregate, diff and serialise.
type StatsSnapshot struct {
	// ChunksSplit counts the windows the input stage cut at raw newlines
	// and handed to the map phase, in either shape.
	ChunksSplit int64
	// PatternRecords counts objects, at any depth of a record the index
	// walk absorbed, closed on the walk's pattern tree: every key was a
	// learned layout's, matched byte for byte, so the object was staged
	// and grouped without a name being interned, sorted or compared. The
	// first object of each layout, which teaches it, does not count.
	PatternRecords int64
	// FallbackRecords counts records the index walk could not certify
	// and delegated to the token walk over the same index, whether or
	// not the token walker then accepted them. 0 on well-formed input.
	FallbackRecords int64
	// ScanDelegations counts tokens the index and token walks handed to
	// the reference scanner (escaped strings, fancy numbers) instead of
	// resolving positionally.
	ScanDelegations int64
	// RootFuses counts collector snapshots that found a shard changed
	// and rebuilt the served schema (cache-miss reads). Collector only:
	// 0 on a one-shot run.
	RootFuses int64
	// Seals counts accumulator seals the pipeline performed: one per
	// window in the parallel shape (none in the sequential one, the only
	// shape a collector is fed in), plus the one-shot run's single final
	// seal or, in a collector, the seals a cache-miss read did: one per
	// shard that changed since the last read, plus the fuse's when
	// several shards hold data. A memoised seal that rebuilt nothing is
	// not counted.
	Seals int64
	// BytesReindexed counts bytes indexed again: the part of a window
	// from its straddler — the malformed record its end cut — on, which
	// is indexed once more with the line after the window. Once per run,
	// the same in either shape, and 0 on valid input, where every window
	// ends between documents.
	BytesReindexed int64
	// BytesCopied counts bytes the reader path moved during buffer
	// compaction (the unsplit tail carried between refills) — the copy
	// tax the zero-copy path avoids.
	BytesCopied int64
	// BuffersRecycled counts chunk arrays the reader path reacquired
	// from the run's pool instead of allocating fresh.
	BuffersRecycled int64
	// MmapInputs counts inputs served through a memory mapping; every
	// other input was read through the run's pool.
	MmapInputs int64

	// Per-stage wall time, monotonic nanoseconds. In the parallel shape
	// the stages overlap in real time (the caller cuts while workers
	// absorb while the committer folds), so the sum across stages can
	// exceed the request wall time — each figure answers "where did this
	// stage's goroutines spend their time", not "what fraction of the
	// wall". In the sequential shape they are one goroutine's and add up.
	ReadNanos   int64 // the run's caller blocked in io.Reader.Read
	SplitNanos  int64 // cutting windows (cutWindow), in either shape
	MapNanos    int64 // indexing, lexing and absorbing windows, plus the parallel shape's per-window seals
	ReduceNanos int64 // one-shot runs only: the parallel shape's committer absorbing chunk types, plus the final seal at every worker count (0 in a collector)
	FuseNanos   int64 // collector cache-miss reads: sealing the changed shards and fusing the partials (0 on a one-shot run)
}

// StatsField is one row of the flight recorder's table: a StatsSnapshot
// field under the name it has on every surface. Adding a counter is a
// struct field plus a row of StatsFields — Add, PipelineStats,
// `jsinfer -stats`, /v1/stats, /v1/collections and the
// jsinferd_pipeline_* families all range over the table.
type StatsField struct {
	// Name is the wire name: the JSON key, the -stats label and the stem
	// of the /metrics count family. A _nanos suffix marks a stage's clock.
	Name string
	// Stage is the field's -stats row — read, split, map, reduce or fuse
	// — and, for a clock, the name of its /metrics seconds family. Every
	// stage has exactly one clock row; their order is the stages' order.
	Stage string
	Help  string                      // the family's /metrics HELP text
	At    func(*StatsSnapshot) *int64 // the field itself, in the given snapshot
}

// Clock reports whether the field is a stage clock (nanoseconds) rather
// than a count.
func (f StatsField) Clock() bool { return strings.HasSuffix(f.Name, "_nanos") }

// StatsFields lists every StatsSnapshot field exactly once, in wire
// order (TestStatsFieldsCoverSnapshot holds it to the struct).
var StatsFields = []StatsField{
	{"chunks_split", "read", "Windows cut at raw newlines and handed to the map phase.", func(s *StatsSnapshot) *int64 { return &s.ChunksSplit }},
	{"pattern_records", "map", "Objects (at any depth) closed on the index walk's pattern tree of learned record layouts. Each worker learns the layouts anew, so at several workers the count differs between identical runs with the windows each worker took.", func(s *StatsSnapshot) *int64 { return &s.PatternRecords }},
	{"fallback_records", "map", "Records the index walk delegated to the token walker (0 on well-formed input).", func(s *StatsSnapshot) *int64 { return &s.FallbackRecords }},
	{"scan_delegations", "map", "Tokens the index and token walks handed to the reference scanner.", func(s *StatsSnapshot) *int64 { return &s.ScanDelegations }},
	{"root_fuses", "fuse", "Collector reads that found new documents and rebuilt the served schema.", func(s *StatsSnapshot) *int64 { return &s.RootFuses }},
	{"seals", "fuse", "Accumulator seals: per window in the parallel shape, once per one-shot run, per changed shard (and fuse) in collector reads.", func(s *StatsSnapshot) *int64 { return &s.Seals }},
	{"bytes_reindexed", "split", "Bytes indexed again because their malformed record straddled a window end: the straddler's part of its window, walked once more with the line after the window.", func(s *StatsSnapshot) *int64 { return &s.BytesReindexed }},
	{"bytes_copied", "read", "Bytes moved during reader-path buffer compaction.", func(s *StatsSnapshot) *int64 { return &s.BytesCopied }},
	{"buffers_recycled", "read", "Chunk arrays reacquired from the pool instead of allocated. At several workers it depends on when workers release their windows, so it differs between identical runs.", func(s *StatsSnapshot) *int64 { return &s.BuffersRecycled }},
	{"mmap_inputs", "read", "Inputs served through a memory mapping; every other input was read through the run's pool.", func(s *StatsSnapshot) *int64 { return &s.MmapInputs }},
	{"read_nanos", "read", "Time blocked reading request bodies.", func(s *StatsSnapshot) *int64 { return &s.ReadNanos }},
	{"split_nanos", "split", "Time cutting windows at raw newlines.", func(s *StatsSnapshot) *int64 { return &s.SplitNanos }},
	{"map_nanos", "map", "Time indexing, lexing and absorbing windows, plus the parallel shape's per-window seals.", func(s *StatsSnapshot) *int64 { return &s.MapNanos }},
	{"reduce_nanos", "reduce", "One-shot runs: committer time absorbing chunk types (parallel shape) plus the final seal; always 0 in a collector.", func(s *StatsSnapshot) *int64 { return &s.ReduceNanos }},
	{"fuse_nanos", "fuse", "Collector read time sealing changed shards and fusing them.", func(s *StatsSnapshot) *int64 { return &s.FuseNanos }},
}

// Add accumulates other into s field by field.
func (s *StatsSnapshot) Add(other StatsSnapshot) {
	for _, f := range StatsFields {
		*f.At(s) += *f.At(&other)
	}
}

// PipelineStats is the shared, concurrent-safe counter set the pipeline
// reports into: a StatsSnapshot behind a mutex. All methods are safe for
// concurrent use; the zero value is ready to record. A nil
// *PipelineStats is the "off" state — every recording site treats it as
// a no-op — so the streamed engines carry no stats cost unless a caller
// opts in through Options.Stats.
type PipelineStats struct {
	mu sync.Mutex
	s  StatsSnapshot
}

// Snapshot returns a point-in-time copy of the counters, consistent
// across fields (no recording site's publish is ever seen half-applied);
// successive snapshots of a live pipeline are monotone per field.
func (p *PipelineStats) Snapshot() StatsSnapshot {
	if p == nil {
		return StatsSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.s
}

// AddSnapshot folds a snapshot into the counters: how every recording
// site publishes (a stats frame, the collector's read) and how the
// registry rolls each ingest call's private stats into the collection's
// cumulative ones.
func (p *PipelineStats) AddSnapshot(d StatsSnapshot) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.s.Add(d)
	p.mu.Unlock()
}

// statsFrame is the private, unsynchronised accumulator a recording
// site (worker, reader, committer) fills while it works. flush
// publishes it under the recorder's lock and resets it; sites flush at
// chunk granularity, so the lock is taken a handful of times per chunk
// rather than per document.
type statsFrame struct {
	StatsSnapshot
}

// flush publishes the frame into p (nil p: drop) and zeroes the frame.
func (f *statsFrame) flush(p *PipelineStats) {
	p.AddSnapshot(f.StatsSnapshot)
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
