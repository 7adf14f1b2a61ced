// Package core is the public facade of the library: one coherent API
// over everything the tutorial surveys — parsing (§1), the three schema
// languages (§2), programming-language type mapping (§3), the schema
// tools (§4), and schema-driven translation (§5). Downstream users
// program against this package; the internal/* packages behind it stay
// independently usable.
//
// For schema inference the facade offers three shapes:
//
//   - InferSchema / InferSchemaWorkers run any engine (parametric K/L,
//     Spark, Skinfer) over a materialised collection and grade the
//     result (precision, size);
//   - InferSchemaStreamWith, InferSchemaStreamBytesWith and
//     InferSchemaStreamFilesWith run the parametric engines over a
//     reader, a byte slice or named files of any size in bounded
//     memory, typing documents straight off the structural index;
//     StreamOptions selects the worker count and the chunk size (large
//     regular files are memory-mapped, everything else read);
//   - StreamPrecisionFiles grades a schema against re-readable files
//     in a bounded-memory second pass, filling the precision column a
//     single streamed pass cannot compute.
//
// The cmd/jsinfer command is a thin CLI over exactly this surface, and
// internal/registry + cmd/jsinferd serve the same inference as a
// long-running ingest daemon with live, versioned schemas.
package core
