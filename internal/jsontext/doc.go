// Package jsontext implements JSON text processing from scratch: a
// streaming token lexer (TokenReader), a recursive-descent parser
// producing jsonvalue.Value trees, a serializer, and a streaming value
// decoder. The grammar is RFC 8259 JSON.
//
// TokenReader is the single front end — Parse and Decoder are thin
// wrappers that build values from its tokens. It is in no production
// map phase of the streamed inference pipeline: there it is the
// independent reference the tests compare against, and the pipeline
// (docs/ARCHITECTURE.md) uses three other pieces of this package.
// TokenSource is the pull interface infer.AbsorbFromTokens programs
// against, implemented by TokenReader and by the Mison structural-index
// tokenizer (internal/mison.TokenSource). Scanner lexes single tokens at
// caller-chosen positions, so that tokenizer can delegate exactly the
// tokens its index cannot prove clean and still be byte-identical to
// the reference lexer on payload decoding, accept/reject decisions and
// error offsets. Field names are interned by each lexer's own bounded
// cache (SetInternStrings), never across lexers: a name is a label
// compared by content, so the cache is a saving, not a meaning.
//
// It is the "conventional parser" of the tutorial's §4.2 — the baseline
// that Mison-style structural-index parsing (internal/mison) and
// Fad.js-style speculative parsing (internal/fadjs) are measured
// against — and the front end for every schema tool in the repository.
package jsontext
