// Package registry is the live-merge schema registry: named collections
// that each hold a monotonically-growing typelang.Type plus document,
// ingest and error counters, fed incrementally by the streamed engine
// as documents arrive. It is the stateful layer that turns the
// paper's batch map/reduce into a long-running service — the engine
// behind the jsinferd daemon.
//
// Each collection owns a sharded collector (infer.ShardedCollector)
// of N = min(GOMAXPROCS, 8) mutex-guarded typelang.Accums, and ingest
// requests run infer.InferStreamInto over their body on their own
// goroutine. However long the body, no goroutine starts: it is read a
// 256 KiB block at a time into a chunk array, and each window is typed
// off a structural index the collection keeps warm, straight into the
// first shard that is free, so a lone shipper keeps filling one
// accumulator and concurrent shippers spread over the shards — at most
// N bodies absorb into one collection at a time, and nobody waits
// behind a busy shard while another is idle. A shard is locked per
// window, never across a read of the body, so a stalled client holds
// nothing. Nothing is sealed until somebody reads: a snapshot read
// (Get, List, Stats) seals the shards that changed since the last read
// — each under its own lock, so only adds to that shard wait, and for
// no longer than one window's absorb — and fuses the sealed partials
// when several shards hold data; Get/List on a quiet collection reuse
// the previous sealed snapshot. WriteSchema, the daemon's schema read,
// keeps the bytes of each collection's last rendering of every form of
// core.OutputForms that reads no counts (type, jsonschema, typescript,
// swift) with the collector's structure epoch — no schema, so it pins
// no seal — and writes them again while that epoch holds: once a
// collection has settled, ingests move only its counts, and such a
// read seals nothing. Delete removes a collection, waiting
// out in-flight ingests, and drops its collector unread; the name is
// immediately reusable.
//
// Consistency model: within one collection the schema only ever grows
// (every snapshot subsumes every earlier one — reads are serialised,
// so they are totally ordered), an Ingest call has absorbed everything
// it commits by the time it returns (a client that completes a POST
// sees its documents in the next read — read-your-writes), and a snapshot
// taken while an ingest is in flight reflects some prefix of that
// ingest's documents. After all ingests complete, the snapshot is exactly
// the schema batch inference (infer.InferStream) computes over the
// concatenated inputs — byte-identical rendering and counts — which the
// registry tests pin on the checked-in fixtures.
//
// Field names are interned by the mapper that reads them: each shard
// of a collection's collector keeps one mapper, with its own intern
// cache bounded by the lexer, so no vocabulary is shared between
// collections or outlives a Delete.
package registry
