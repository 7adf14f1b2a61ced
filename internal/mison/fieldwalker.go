package mison

import "repro/internal/jsontext"

// FieldWalker is the driving surface of index-driven absorption: a view
// over the TokenSource it owns. The token source keeps the chunk, the
// one block-at-a-time pass that classifies it (TokenSource.index), the
// delegated reference scanner and the field-name intern cache; the
// walker holds the one bitmap only it
// reads — every structural character outside a string, raised by that
// same pass — and answers the positional questions a chunk absorber
// asks while walking records field-span-at-a-time: where the next
// structural character sits, where a string span closes, whether a
// span is clean enough to skip or intern verbatim, where a plain
// integer ends.
// Everything the bitmaps cannot prove clean delegates to the reference
// scanner at the same position, exactly as the token walk does, so
// accept/reject decisions stay byte-identical to the reference lexer's.
//
// Deliberately absent is phase 4, the materialised leveled colon
// lists: the absorber's recursive walk IS the leveling — its call
// stack tracks depth and its cursor visits each structural character
// exactly once through NextStructural, so extracting positions into
// per-depth lists first would pay the full structural walk twice. The
// projecting Parser keeps the materialised Index (it jumps straight to
// queried fields and needs random access by depth and ordinal); the
// absorber visits everything once, in order, and needs neither.
//
// The walker holds no byte cursor of its own: the absorber
// (infer.AbsorbFromIndex) drives the walk and keeps position and
// next-structural cursors, and hands a record to the token walk
// (TokensAt) whenever a question here answers "not provable". Reset
// rebinds the walker to a new chunk, reusing all bitmap storage, so one
// warm walker per worker absorbs an arbitrary number of chunks without
// per-chunk allocation.
//
// A FieldWalker is not safe for concurrent use.
type FieldWalker struct {
	ts TokenSource
	// structural marks the six structural characters { } [ ] : , that
	// lie outside string literals — the bitmap NextStructural scans.
	// Which of the six sits at a marked position is the byte itself.
	structural []uint64
}

// NewFieldWalker returns an empty walker; bind it to a chunk with
// Reset.
func NewFieldWalker() *FieldWalker { return &FieldWalker{} }

// SetInternStrings toggles the field-name intern cache
// (TokenSource.SetInternStrings).
func (w *FieldWalker) SetInternStrings(on bool) { w.ts.SetInternStrings(on) }

// Reset rebinds the walker to a chunk whose first byte sits at absolute
// stream offset base: the token source's one pass rebuilds all four
// bitmaps in place. Nothing is checked up front. An unterminated string
// raises no structural bit after its quote, and unbalanced nesting is
// caught by the absorber's grammar walk; either way the record falls to
// the token walk. Nor are escaped positions outside strings struck from
// the bitmap, as the projecting Parser's builder (bitmaps.go) strikes
// them: the backslash before one is a syntax error no certified span
// covers, so the walk bails before it could consume the character.
func (w *FieldWalker) Reset(data []byte, base int) {
	w.structural = sizeWords(w.structural, words(len(data)))
	w.ts.index(data, base, w.structural)
}

// TokensAt returns the walker's token source positioned at pos of the
// chunk — the token walk over the bitmaps Reset already built, for a
// record the index walk cannot certify.
func (w *FieldWalker) TokensAt(pos int) *TokenSource {
	w.ts.pos = pos
	return &w.ts
}

// NextStructural returns the position of the first structural
// character (of any of the six classes, outside strings) at or after
// from, or -1. The absorber keeps this as its second cursor: a
// separator is legitimate exactly when it sits at the byte cursor AND
// is the next unconsumed structural character — which simultaneously
// proves every byte before it was consumed by certified spans and
// whitespace.
func (w *FieldWalker) NextStructural(from int) int { return nextSetBit(w.structural, from) }

// StructuralQuote reports whether the byte at p is a structural
// (unescaped, string-opening-or-closing) quote.
func (w *FieldWalker) StructuralQuote(p int) bool { return hasBit(w.ts.quote, p) }

// CloseQuote returns the position of the next structural quote at or
// after from, or -1 — the closing quote of a string whose opening
// quote sits just before from, found without touching the payload
// bytes.
func (w *FieldWalker) CloseQuote(from int) int { return nextSetBit(w.ts.quote, from) }

// SkippableSpan reports whether the string payload [lo, hi) can be
// accepted without scanning it: no backslash (no escapes to validate)
// and no control byte (which the lexer rejects). Non-ASCII bytes are
// fine — skip-mode validation accepts them unexamined, exactly as the
// reference lexer does.
func (w *FieldWalker) SkippableSpan(lo, hi int) bool { return !anyInRange(w.ts.dirty, lo, hi) }

// VerbatimSpan reports whether the string payload [lo, hi) decodes to
// exactly its own bytes: skippable and pure ASCII (non-ASCII payloads
// go through the lexer's UTF-8-sanitising decode path instead).
func (w *FieldWalker) VerbatimSpan(lo, hi int) bool {
	return w.SkippableSpan(lo, hi) && !anyInRange(w.ts.nonascii, lo, hi)
}

// InternSpan interns the bytes [lo, hi) as a field name — the same
// dedup the token walk applies to positionally-decoded names.
func (w *FieldWalker) InternSpan(lo, hi int) string { return w.ts.scan.Intern(w.ts.data[lo:hi]) }

// TakeDelegations returns (and resets) the number of tokens either walk
// delegated to the reference scanner (TokenSource.TakeDelegations).
func (w *FieldWalker) TakeDelegations() int64 { return w.ts.TakeDelegations() }

// PlainInt resolves a plain integer literal at pos — no fraction, no
// exponent, at most 18 digits — returning its end position and float64
// value (plainInt, the token walk's own grammar). ok is false for every
// other spelling; the caller delegates those to ScanValueAt.
func (w *FieldWalker) PlainInt(pos int) (end int, f float64, ok bool) {
	return plainInt(w.ts.data, pos)
}

// ScanValueAt hands the token at pos to the reference scanner —
// payload decoding, accept/reject decisions and error wording exactly
// as TokenReader's — returning the token (offsets rebased onto the
// stream), the chunk-relative position of the first byte after it, and
// any error (also rebased).
func (w *FieldWalker) ScanValueAt(pos int, skip bool) (jsontext.Token, int, error) {
	return w.ts.scanAt(pos, skip)
}
