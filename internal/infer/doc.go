// Package infer implements the parametric schema inference of Baazizi,
// Ben Lahmar, Colazzo, Ghelli and Sartiani ("Schema Inference for
// Massive JSON Datasets", EDBT 2017; "Counting types for massive JSON
// datasets", DBPL 2017; "Parametric schema inference for massive JSON
// datasets", VLDB Journal 2019) — the inference approach the tutorial
// presents in §4.1 as precise and concise at tunable abstraction levels.
//
// The algorithm is a map/reduce:
//
//   - the map phase types each value exactly (TypeOf), producing a type
//     with counting annotations (every node counts the values it
//     summarises, every record field counts its occurrences);
//   - the reduce phase merges types pairwise with the least upper bound
//     of internal/typelang, parameterised by an equivalence relation: K
//     (kind equivalence, records always fuse) or L (label equivalence,
//     records fuse only when they have the same field names).
//
// Because the merge is associative and commutative, the reduce can be
// parallelised and distributed arbitrarily. The execution layer here
// exploits that two ways:
//
//   - Infer and InferParallel run over a materialised collection (the
//     Spark/Skinfer/precision paths need the values anyway):
//     InferParallel feeds batches through a bounded work queue to a
//     worker pool, each worker folds its own partial type with the
//     batched MergeAll, and the partials meet in a parallel binary tree
//     reduction;
//   - InferStream and InferStreamBytes never materialise anything: the
//     input is handed over in runs of bytes (chunking.go), and
//     each document's structure is absorbed straight into a
//     typelang.Accum through the direct-absorption surface (Accum.Doc),
//     so no per-document canonical type — and no value tree — is ever
//     built, and collections larger than memory are inferred while only
//     ever holding a bounded window of bytes. The map phase is one
//     walk over one structural index: mison raises the run's bitmaps
//     in one pass, AbsorbFromIndex (index_absorb.go) walks object fields
//     span-at-a-time off them via mison.FieldWalker, so separator
//     tokens are never materialised at all, and a record the index
//     cannot certify — a malformed one, or one nested past MaxDepth —
//     is re-absorbed by the token walker (AbsorbFromTokens, tokens.go)
//     over the same bitmaps. Each absorber also keeps a pattern tree of
//     the record layouts it has met — Mison's speculation, applied to
//     field names: a record whose keys are, byte for byte, a sequence
//     seen before is staged and grouped without a name being interned,
//     sorted or compared, and any other record drops to the
//     name-by-name path from the first unknown key on. The tree is a
//     bounded cache, verified at every key and trusted nowhere
//     (FuzzPatternTree). The result is pinned byte-identical to an
//     independent oracle (DOM decoder, TypeOf, one MergeAll) — schemas,
//     counts, document totals, and error messages and offsets — by the
//     sweeps in oracle_test.go, and the two walks to each other by the
//     index-vs-tokens fuzz differential.
//
// The streamed engine is one ladder in two shapes. The ladder is the
// map phase of a run of bytes (chunkMapper.absorb): the structural
// index absorbs it, and the reference lexer (jsontext.TokenReader)
// takes over any run the index rejects — results are identical
// whichever rung ran. The shape is decided in one place (stream,
// tokens.go), without scanning the input. The sequential shape — one
// worker, or an input that ends inside its first chunk — absorbs on the
// caller's goroutine straight into the destination accumulator: no
// goroutine, no chunk seal, no reduce, no splitter. With one worker the
// runs are windows, cut at raw newlines by byte count alone: the index
// walk visits every record, so it is the splitter, and the record a
// window's end cut — the straddler, which failed with an error more
// input could cure and committed nothing — opens the next window.
// Otherwise mison.Chunker cuts chunks of whole documents, workers
// absorb them in parallel, each sealing its chunk's type, and a
// committer absorbs the chunk types in stream order, so schemas, counts
// and error offsets are exact. Who consumes the result decides the
// destination, which either way is sealed only when it is read. A
// one-shot run (InferStream, InferStreamBytes) is read once, at the
// end: its own accumulator, sealed once. A registry collection
// (InferStreamInto) is read while it grows, by other goroutines, so it
// lends — per chunk or commit batch — one of the N mutex-guarded
// accumulators of a caller-owned ShardedCollector (collector.go), the
// first that is free; a Snapshot seals those that changed since the
// last read and fuses the sealed partials when several hold data — an
// ingest nobody reads after seals nothing, and a one-chunk body costs
// one index pass and one absorb, through lexers and a chunk array the
// collector keeps warm.
// Options.Symbols shares one field-name symbol table across all
// workers. Options.Stats, when set, is the run's flight recorder
// (stats.go): every stage publishes its counters and clock into one
// PipelineStats, and StatsFields — the one table naming each
// StatsSnapshot field, its stage and its help text — is what
// `jsinfer -stats`, /v1/stats and /metrics range over.
package infer
