// Package core is the public facade of the library: one coherent API
// over everything the tutorial surveys — parsing (§1), the three schema
// languages (§2), programming-language type mapping (§3), the schema
// tools (§4), and schema-driven translation (§5). Downstream users
// program against this package; the internal/* packages behind it stay
// independently usable.
//
// Schema inference has two entries. InferSchemaStreamWith (a reader)
// and InferSchemaStreamFilesWith (named files) run every engine but
// Skinfer in bounded memory — the one pipeline docs/ARCHITECTURE.md
// describes, Spark as a projection of the K type — and
// StreamPrecisionFiles grades the result in a second pass. Named files
// are one collection: infer reads them in turn as the inputs of one
// run (one accumulator, one seal) and decides which are memory-mapped.
// A run builds one Inference, and Inference.JSONSchema renders the JSON
// Schema document only when called, since on a large schema a render
// costs as much as a pass over the data.
// InferSchema runs any engine over a materialised collection and grades
// it in place: the library API, and cmd/jsinfer's path for Skinfer alone,
// over the collection ReadCollection materialises from files or stdin
// (the reader jsvalidate and jstranslate use too; it and
// StreamPrecisionFiles share one per-document loop).
// Inference.WriteSchema writes a schema in each output form, the one
// place those bytes are decided: cmd/jsinfer prints with it, and
// cmd/jsinferd, which serves the same inference over internal/registry
// as a long-running ingest daemon with live, versioned schemas, serves
// with it.
package core
