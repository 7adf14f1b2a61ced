// Package mison implements the structural-index JSON parsing of Li,
// Katsipoulakis, Chandramouli, Goldstein and Kossmann, "Mison: A Fast
// JSON Parser for Data Analytics" (VLDB 2017) — the §4.2 tool that
// "exploits AVX instructions to speed up data parsing and discarding
// unused objects ... infers structural information of data on the fly
// in order to detect and prune parts of the data that are not needed by
// a given analytics task".
//
// The package has two faces. The original experiment is the projecting
// Parser: ParseRecord raises the four-phase structural index over one
// record and extracts a fixed set of field paths, speculating on
// learned field positions and building values only for the projected
// fields.
//
// The production face is the streamed-inference fast path: TokenSource
// raises one structural index per run of bytes, in one pass, and two
// walks read it — FieldWalker, the positional view infer.AbsorbFromIndex
// drives, and TokenSource's own ReadToken, the token walk that re-reads
// the records the first cannot certify. Everything the bitmaps cannot
// prove clean is delegated per token to jsontext.Scanner, keeping both
// walks byte-identical to jsontext.TokenReader on every input. Chunker
// is bench-only until ROADMAP item 1(e): no production path cuts by it. The
// pipeline around them is described in docs/ARCHITECTURE.md
// ("Index-driven absorption: the map phase", "The mison fast path in
// one paragraph"). The projecting face reports defects as *IndexError
// values with absolute byte offsets.
//
// Substitution note (recorded in docs/EXPERIMENTS.md): the original
// uses AVX2 SIMD to build per-character bitmaps. Go with stdlib only has no
// vector intrinsics, so the bitmap pipeline here is word-at-a-time over
// packed uint64 bitmaps (SWAR, swar.go): the same four-phase structure
// — (1) character bitmaps, (2) escaped-character removal, (3)
// string-mask construction by bit-parallel prefix XOR, (4) leveled
// structural positions — with the SIMD byte-compare replaced by
// eight-byte word arithmetic feeding the packed words. The streamed
// path's TokenSource runs it as a kernel over 64-byte blocks read in
// place: every class of the eight lanes at once, each gathered into
// its bitmap word by one 8×8 bit transpose where AVX has a movemask.
// Every later phase is genuinely bit-parallel, and the algorithmic
// speedups (no tokenisation of skipped content, speculative field
// lookup) are preserved. The speculation has a production counterpart too: where
// the Parser learns at which position a projected field sits, the
// production walk learns which field names follow which
// (infer.IndexAbsorber's pattern tree) and verifies the next record's
// keys against them by byte comparison instead of decoding, interning
// and sorting them again.
package mison
