// Package typelang implements the type algebra at the centre of the
// tutorial: the record, sequence (array) and union types that §3 names
// as the three constructors a language needs "to directly and naturally
// manage JSON data", plus the Null/Bool/Int/Num/Str atoms, Any (top)
// and Bottom (bottom). Types carry counting annotations (how many
// values each node summarises, how often each record field occurs), the
// basis of the precision metrics and of witness generation.
//
// Every other formalism in the repository converts through this
// algebra: the schema languages of §2 (JSON Schema, Joi, JSound)
// translate to and from it, the inference tools of §4.1 produce it, the
// code generators of §3 (TypeScript, Swift) consume it, and the
// translators of §5 are driven by it.
//
// In the streamed inference pipeline this package is the reduce: Merge
// is the associative, commutative least upper bound — parameterised by
// kind or label equivalence — that lets document types fold in batches,
// across workers, and finally across chunks in stream order. The hot
// path folds through Accum (accum.go), the mutable accumulator that
// absorbs types in place and seals to the canonical type on demand,
// byte-identical to the Merge/MergeAll reference fold — which remains
// the reference implementation and the A/B baseline. On top of the
// accumulator sits the direct-absorption surface (absorb.go): Accum.Doc
// hands out a Target through which a token walker lands one document's
// atoms, arrays and records in the union buckets — a kind set and a
// count per atom kind, one array bucket, and the record groups with
// their field tables — directly, staged per document so a malformed
// document aborts without a trace, eliminating the per-document
// canonical type entirely. Each bucket is folded one way whichever
// form the value arrives in (a sealed *Type, a staged record, a staged
// node), and every record finds its group by one label-key lookup.
// Sealing after N absorbed documents is pinned byte-identical to
// merging N per-document types. A walker that has certified a record
// layout closes its records with the layout's Shape: EndRecord then
// orders the fields by the shape's ranks instead of sorting them and
// finds the record group by the shape's address instead of by its label
// set — sound under L because a Shape and a group each stand for one
// label set for good.
//
// Staging storage is pooled on the accumulator and recycled at the cost
// of what a document dirtied, not of what the pool retains: clean
// subtrees (a record group outside the live prefix, a field slot no
// record touched, an array bucket neither counted nor opened) are deeply
// zero by invariant and reset skips them (accumNode.reset). What the
// pools, and a reset accumulator, may keep is capped (keptGroups,
// keptSlots, maxPooledNodes) so a drifting or hostile corpus cannot
// grow them with the schema. The tests' census of an accumulator
// (Accum.retained, in retained_test.go) counts what they hold: pooled
// nodes and open records, nested nodes, clean groups and slots.
//
// Types are immutable once built; all operations on them return new
// values. Seals lean on that: a node with one alternative seals to it
// with no alternatives slice, and every atom counted once is its kind's
// one package-level node, shared by all seals, so a record of atoms
// seen once costs its field list and its record node. Code that wants a
// changed node copies it first, as Simplify and Merge do. Accum is the
// one deliberately mutable value: it is owned by a single goroutine,
// and only its sealed (immutable) outputs are shared.
//
// A type renders in the compact notation of the papers through one
// renderer: String and StringCounted return the rendering, and Render
// writes it to an io.Writer through a bounded buffer, so printing a
// schema as large as its data builds no string of that size.
package typelang
