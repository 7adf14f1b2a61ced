// Package core is the public facade of the library: one coherent API
// over everything the tutorial surveys — parsing (§1), the three schema
// languages (§2), programming-language type mapping (§3), the schema
// tools (§4), and schema-driven translation (§5). Downstream users
// program against this package; the internal/* packages behind it stay
// independently usable.
//
// Schema inference has two entries. InferSchemaStreamWith (a reader),
// InferSchemaStreamBytesWith (a byte slice) and
// InferSchemaStreamFilesWith (named files, large regular ones
// memory-mapped) run the parametric engines in bounded memory — the one
// pipeline docs/ARCHITECTURE.md describes, and what cmd/jsinfer runs for
// every parametric invocation; StreamPrecisionFiles grades the result in
// a second bounded-memory pass. InferSchema runs any engine over a
// materialised collection and grades it in place: the library API, and
// the CLI's path for Spark and Skinfer, which need the whole collection.
// internal/registry + cmd/jsinferd serve the same inference as a
// long-running ingest daemon with live, versioned schemas.
package core
