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
// has two entry points:
//
//   - Infer runs over a materialised collection (the library API for
//     values already in memory, and the oracle): it folds TypeOf of
//     each document in batches with MergeAll, sequentially;
//   - InferStream, InferStreamFiles (named files, one collection
//     through one run) and InferStreamInto (the
//     registry's feed) never materialise anything: each document's
//     structure is absorbed straight from the input bytes into a
//     typelang.Accum, so no per-document type and no value tree is
//     ever built, and collections larger than memory are inferred while
//     holding only a bounded window of bytes. It is the one parallel
//     engine: several workers walk windows of the input and their
//     partial types are merged. The result is pinned byte-identical to
//     an independent oracle (DOM decoder, TypeOf, one MergeAll) —
//     schemas, counts, error messages and offsets — by oracle_test.go.
//
// How the streamed engine works — the input stage (chunking.go), the
// map phase and its one fallback (index_absorb.go, tokens.go), the two
// run shapes (run), the collector (collector.go) and the flight
// recorder (stats.go) — is described once, in docs/ARCHITECTURE.md
// ("End-to-end data flow", "Index-driven absorption: the map phase",
// "The zero-copy input layer"); the files' own comments cover only
// what is local to them.
package infer
