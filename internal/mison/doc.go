// Package mison implements the structural-index JSON parsing of Li,
// Katsipoulakis, Chandramouli, Goldstein and Kossmann, "Mison: A Fast
// JSON Parser for Data Analytics" (VLDB 2017) — the §4.2 tool that
// "exploits AVX instructions to speed up data parsing and discarding
// unused objects ... infers structural information of data on the fly
// in order to detect and prune parts of the data that are not needed by
// a given analytics task".
//
// The package has two faces. The original experiment is the projecting
// Parser: BuildBitmaps/BuildIndex raise the four-phase structural index
// over one record and ParseRecord extracts a fixed set of field paths,
// speculating on learned field positions and building values only for
// the projected fields.
//
// The production face is the streamed-inference fast path: one
// structural index per run of bytes, raised in one pass, serves the map
// phase. TokenSource owns it: one word loop (index) loads each eight
// bytes once and reads every class off them — quote,
// backslash-or-control, non-ASCII and, for the FieldWalker, structural
// characters outside strings — strikes escaped quotes and checks quote
// parity; the delegated reference lexer (jsontext.Scanner), the
// field-name intern cache and the delegation counter live there too.
// Chunker, which finds document-aligned chunk boundaries through
// string/depth bitmaps of its own, runs only where infer.InferStream
// cuts work units for other goroutines; a sequential run cuts windows
// at raw newlines and the index walk finds the documents. Two walks
// read the index. FieldWalker — a view over a TokenSource it owns,
// holding the structural bitmap — drives infer.AbsorbFromIndex, the
// production walk: instead of lexing a token per structural character
// it answers positional questions off the bitmaps directly —
// NextStructural makes separator
// checks O(1), CloseQuote/SkippableSpan/VerbatimSpan certify string
// spans, PlainInt resolves plain integers — so object absorption walks
// field-span-at-a-time and separator tokens are never materialised at
// all. TokenSource's own ReadToken, behind the jsontext.TokenSource
// pull interface, is the token walk over the same bitmaps — string
// payloads skipped positionally via the quote bitmap, plain integers
// and literals decided by direct comparison — which re-reads the
// records the index walk cannot certify (FieldWalker.TokensAt).
// Everything the bitmaps cannot prove clean is delegated per token to
// the reference lexer, keeping both walks byte-identical to
// jsontext.TokenReader on every input. Chunks whose quote parity the
// index rejects fall back wholesale to the plain lexer; all rejection
// and defect errors are *IndexError values with absolute byte offsets.
//
// Substitution note (recorded in DESIGN.md): the original uses AVX2
// SIMD to build per-character bitmaps. Go with stdlib only has no
// vector intrinsics, so the bitmap pipeline here is word-at-a-time over
// packed uint64 bitmaps (SWAR, swar.go): the same four-phase structure
// — (1) character bitmaps, (2) escaped-character removal, (3)
// string-mask construction by bit-parallel prefix XOR, (4) leveled
// structural positions — with the SIMD byte-compare replaced by
// eight-byte word arithmetic feeding the packed words. Every later
// phase is genuinely bit-parallel, and the algorithmic speedups (no
// tokenisation of skipped content, speculative field lookup) are
// preserved. The speculation has a production counterpart too: where
// the Parser learns at which position a projected field sits, the
// production walk learns which field names follow which
// (infer.IndexAbsorber's pattern tree) and verifies the next record's
// keys against them by byte comparison instead of decoding, interning
// and sorting them again.
package mison
