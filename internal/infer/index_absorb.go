package infer

import (
	"errors"
	"io"

	"repro/internal/jsontext"
	"repro/internal/mison"
	"repro/internal/typelang"
)

// This file is the map phase's fast walk: documents absorb into the
// chunk accumulator straight off mison's structural index instead of a
// token stream. The token walker (AbsorbFromTokens) materialises a
// jsontext.Token for every colon, comma and brace only to throw it
// away; here the structural bitmap already locates every structural
// character of every record, so object absorption is driven
// field-span-at-a-time — BeginRecord, field name, AbsorbKind, EndRecord
// — with separators checked positionally and never tokenised. Atoms
// classify by first byte and span: the quote bitmap gives string spans
// for free, plain integers and literals resolve by direct comparison,
// and everything the bitmaps cannot prove clean delegates to the
// reference scanner at the same position.
//
// On top of the index sits Mison's second idea, the pattern tree (at
// the end of this file): a collection repeats a handful of record
// layouts, so a record whose next key is, byte for byte, a name seen to
// follow the ones before it is staged without interning, duplicate
// check, sort or label-set lookup, and closed with the layout's
// typelang.Shape. Every speculation is verified — the key's bytes are
// compared, every separator is still consumed positionally — and a key
// off the tree drops that record to the name-by-name path from there on.
//
// Identity with the token walker is absolute, not best-effort: the
// walk verifies every structural assumption (separator positions, clean
// gaps between spans, depth bounds) and bails out per record to the
// token walker on the first thing it cannot certify — so schemas, doc
// counts, error messages and error offsets are byte-identical to the
// token walk's on every input, pinned by the oracle sweeps and the
// index-vs-tokens fuzz differential.

// errIndexBail is the internal signal that the index walk cannot
// certify the current record and the token walker must absorb it
// instead. It never escapes AbsorbFromIndex.
var errIndexBail = errors.New("infer: index walk bailed")

// IndexAbsorber is the per-worker state of index-driven absorption:
// one reusable mison.FieldWalker, which owns the chunk's bitmaps, the
// delegated scanner and — over the same bitmaps — the token source the
// per-record fallback walks. Reset rebinds it to a chunk; a warm
// absorber absorbs an arbitrary number of chunks without per-chunk
// allocation. It is not safe for concurrent use — one per worker.
type IndexAbsorber struct {
	w *mison.FieldWalker

	data []byte
	base int
	pos  int // byte cursor into data
	// next is the position of the first unconsumed structural
	// character, or -1 — the second cursor that makes separator checks
	// O(1) and simultaneously proves no structural character was
	// skipped over unexamined.
	next int

	// idxRecords/fbRecords count documents absorbed entirely off the
	// index versus ones delegated to the token walker (fallback attempts
	// count whether or not the walker then accepts), harvested per chunk
	// by the pipeline's stage stats (TakeRecordCounts).
	idxRecords int64
	fbRecords  int64

	// tree is the pattern tree: a cache of the layouts met so far that
	// outlives Reset — chunks, windows and, in a kept mapper, ingests.
	tree patternTree
}

// NewIndexAbsorber returns an empty absorber; bind it to a chunk with
// Reset.
func NewIndexAbsorber() *IndexAbsorber { return &IndexAbsorber{w: mison.NewFieldWalker()} }

// SetInternStrings toggles field-name interning, for both walks.
func (a *IndexAbsorber) SetInternStrings(on bool) { a.w.SetInternStrings(on) }

// Reset rebinds the absorber to a chunk whose first byte sits at
// absolute stream offset base. Every chunk is indexed: the error is
// always nil, and is kept only because bench/ checks it.
func (a *IndexAbsorber) Reset(data []byte, base int) error {
	a.w.Reset(data, base)
	a.data, a.base = data, base
	a.pos, a.next = 0, a.w.NextStructural(0)
	return nil
}

// AbsorbFromIndex absorbs exactly one document from the absorber's
// chunk straight into acc — the index-driven twin of AbsorbFromTokens.
// It returns io.EOF when the chunk holds no further document, and a
// *jsontext.SyntaxError (with absolute offset) on malformed input; on
// an error the accumulator is left exactly as it was. Records the
// index walk cannot certify — escaped or suspect field names, odd
// constructs, overflow depth, malformed anything — are absorbed by the
// token walker from the record's first byte, so the outcome is
// byte-identical to the token path on every input.
func AbsorbFromIndex(a *IndexAbsorber, acc *typelang.Accum) error {
	a.skipSpace()
	if a.pos >= len(a.data) {
		return io.EOF
	}
	start, closed := a.pos, a.tree.closed
	a.tree.renew()
	if err := a.absorbValue(acc.Doc(), 0, &a.tree.top); err != nil {
		// The walk aborted its staged frames on the way out; the token
		// walker re-absorbs the record from its first byte and is
		// authoritative for both acceptance and errors.
		a.pos = start
		a.tree.closed = closed
		a.fbRecords++
		return a.fallbackRecord(acc)
	}
	a.idxRecords++
	return nil
}

// TakeRecordCounts returns the number of documents absorbed off the
// index and the number delegated to the token walker since the last
// call, and resets both — the harvest point of the per-chunk stage
// stats.
func (a *IndexAbsorber) TakeRecordCounts() (idx, fallback int64) {
	idx, fallback = a.idxRecords, a.fbRecords
	a.idxRecords, a.fbRecords = 0, 0
	return idx, fallback
}

// TakePatternRecords returns (and resets) the number of objects, at any
// depth of a document absorbed off the index, closed on the pattern
// tree with a Shape it already had.
func (a *IndexAbsorber) TakePatternRecords() int64 {
	n := a.tree.closed
	a.tree.closed = 0
	return n
}

// TakeScanDelegations returns (and resets) the count of tokens either
// walk delegated to the reference scanner since the last call.
func (a *IndexAbsorber) TakeScanDelegations() int64 { return a.w.TakeDelegations() }

// fallbackRecord absorbs one document starting at the current position
// through the token walker — over the walker's own token source, whose
// bitmaps Reset already built — then re-syncs the index cursors past it.
func (a *IndexAbsorber) fallbackRecord(acc *typelang.Accum) error {
	ts := a.w.TokensAt(a.pos)
	if err := AbsorbFromTokens(ts, acc); err != nil {
		return err
	}
	a.pos = ts.InputOffset() - a.base
	a.next = a.w.NextStructural(a.pos)
	return nil
}

// skipSpace advances over JSON whitespace, the lexer's exact set.
func (a *IndexAbsorber) skipSpace() {
	for a.pos < len(a.data) {
		switch a.data[a.pos] {
		case ' ', '\t', '\n', '\r':
			a.pos++
		default:
			return
		}
	}
}

// consume checks that the next unconsumed structural character is ch
// at exactly the current byte position — which simultaneously proves
// the bytes before it were all consumed by certified spans and
// whitespace — and advances past it. No side effects on failure.
func (a *IndexAbsorber) consume(ch byte) bool {
	if a.pos != a.next || a.data[a.pos] != ch {
		return false
	}
	a.pos++
	a.next = a.w.NextStructural(a.pos)
	return true
}

// absorbValue absorbs the value beginning at the current position into
// dst. The caller guarantees a.pos points at a non-space byte. Any
// construct the index cannot certify returns errIndexBail, with every
// staged frame already aborted on the way out. under is the pattern
// tree's node for this position — the field the value belongs to, or
// the array holding it does — and nil off the tree.
func (a *IndexAbsorber) absorbValue(dst typelang.Target, depth int, under *patternNode) error {
	if depth > jsontext.MaxDepth {
		return errIndexBail
	}
	switch c := a.data[a.pos]; c {
	case '{':
		return a.absorbObject(dst, depth, under)
	case '[':
		return a.absorbArray(dst, depth, under)
	case '"':
		end := a.stringEnd(a.pos)
		if end < 0 {
			return errIndexBail
		}
		dst.AbsorbKind(typelang.KStr)
		a.pos = end
		return nil
	case 't':
		return a.literal("true", typelang.KBool, dst)
	case 'f':
		return a.literal("false", typelang.KBool, dst)
	case 'n':
		return a.literal("null", typelang.KNull, dst)
	default:
		if c == '-' || (c >= '0' && c <= '9') {
			return a.number(dst)
		}
		return errIndexBail
	}
}

// literal absorbs an exact true/false/null literal.
func (a *IndexAbsorber) literal(lit string, k typelang.Kind, dst typelang.Target) error {
	if a.pos+len(lit) > len(a.data) || string(a.data[a.pos:a.pos+len(lit)]) != lit {
		return errIndexBail
	}
	dst.AbsorbKind(k)
	a.pos += len(lit)
	return nil
}

// number classifies a numeric value: plain integers by the walker's
// direct scan, every other spelling by the delegated scanner — the
// same split as the token path, so KInt/KNum classification (including
// integral floats and the 2^53 exactness bound) is identical.
func (a *IndexAbsorber) number(dst typelang.Target) error {
	if end, f, ok := a.w.PlainInt(a.pos); ok {
		if numIsInt(f) {
			dst.AbsorbKind(typelang.KInt)
		} else {
			dst.AbsorbKind(typelang.KNum)
		}
		a.pos = end
		return nil
	}
	tok, end, err := a.w.ScanValueAt(a.pos, true)
	if err != nil || tok.Kind != jsontext.TokNumber {
		return errIndexBail
	}
	if numIsInt(tok.Num) {
		dst.AbsorbKind(typelang.KInt)
	} else {
		dst.AbsorbKind(typelang.KNum)
	}
	a.pos = end
	return nil
}

// stringEnd resolves the end (one past the closing quote) of the
// string value opening at open: positionally when the quote bitmap
// certifies the span, through the skip-mode scanner when the payload
// holds escapes, and -1 when the value is not a lexer-acceptable
// string at all.
func (a *IndexAbsorber) stringEnd(open int) int {
	w := a.w
	if !w.StructuralQuote(open) {
		return -1
	}
	close := w.CloseQuote(open + 1)
	if close < 0 {
		return -1
	}
	if w.SkippableSpan(open+1, close) {
		return close + 1
	}
	tok, end, err := w.ScanValueAt(open, true)
	if err != nil || tok.Kind != jsontext.TokString {
		return -1
	}
	return end
}

// fieldName decodes the field name opening at open: interned verbatim
// when the span certifies as pure clean ASCII (the overwhelmingly
// common case), through the decoding scanner otherwise.
func (a *IndexAbsorber) fieldName(open int) (string, int, bool) {
	w := a.w
	if !w.StructuralQuote(open) {
		return "", 0, false
	}
	close := w.CloseQuote(open + 1)
	if close < 0 {
		return "", 0, false
	}
	if w.VerbatimSpan(open+1, close) {
		return w.InternSpan(open+1, close), close + 1, true
	}
	tok, end, err := w.ScanValueAt(open, false)
	if err != nil || tok.Kind != jsontext.TokString {
		return "", 0, false
	}
	return tok.Str, end, true
}

// absorbObject absorbs an object field-span-at-a-time: names from the
// pattern tree while the record stays on it and from the quote bitmap
// once it has left, colons and separators consumed positionally off the
// structural bitmap, values recursively. The record stages in an
// OpenRecord and commits at '}' exactly as the token walker's does —
// with the layout's Shape if it ended on the tree.
func (a *IndexAbsorber) absorbObject(dst typelang.Target, depth int, under *patternNode) error {
	if !a.consume('{') {
		return errIndexBail
	}
	rec := dst.BeginRecord()
	at := a.tree.root(under) // the names so far as a node of the tree; nil once off it
	a.skipSpace()
	if a.pos < len(a.data) && a.data[a.pos] == '}' {
		if !a.consume('}') {
			rec.Abort()
			return errIndexBail
		}
		dst.EndRecord(rec, a.tree.shape(at))
		return nil
	}
	for {
		if a.pos >= len(a.data) || a.data[a.pos] != '"' {
			rec.Abort()
			return errIndexBail
		}
		var field typelang.Target
		if at = a.follow(at); at != nil {
			field = rec.Stage(at.name)
		} else {
			name, end, ok := a.fieldName(a.pos)
			if !ok {
				rec.Abort()
				return errIndexBail
			}
			a.pos = end
			field = rec.Field(name)
		}
		a.skipSpace()
		if !a.consume(':') {
			rec.Abort()
			return errIndexBail
		}
		a.skipSpace()
		if a.pos >= len(a.data) {
			rec.Abort()
			return errIndexBail
		}
		if err := a.absorbValue(field, depth+1, at); err != nil {
			rec.Abort()
			return err
		}
		a.skipSpace()
		switch {
		case a.consume(','):
			a.skipSpace()
		case a.consume('}'):
			dst.EndRecord(rec, a.tree.shape(at))
			return nil
		default:
			rec.Abort()
			return errIndexBail
		}
	}
}

// absorbArray absorbs array elements into the array bucket's staged
// element collection, committing the observed length at ']'.
func (a *IndexAbsorber) absorbArray(dst typelang.Target, depth int, under *patternNode) error {
	if !a.consume('[') {
		return errIndexBail
	}
	elem := dst.BeginArray()
	a.skipSpace()
	if a.pos < len(a.data) && a.data[a.pos] == ']' {
		if !a.consume(']') {
			dst.AbortArray()
			return errIndexBail
		}
		dst.EndArray(0)
		return nil
	}
	n := 0
	for {
		if a.pos >= len(a.data) {
			dst.AbortArray()
			return errIndexBail
		}
		if err := a.absorbValue(elem, depth+1, under); err != nil {
			dst.AbortArray()
			return err
		}
		n++
		a.skipSpace()
		switch {
		case a.consume(','):
			a.skipSpace()
		case a.consume(']'):
			dst.EndArray(n)
			return nil
		default:
			dst.AbortArray()
			return errIndexBail
		}
	}
}

// The pattern tree. A patternNode is one field name reached by the
// sequence of names some record began with; its followers are the names
// seen next, its shape is the layout of the records that ended there,
// and sub roots the tree of the objects met as that field's value, or
// in the array that is. A root stands for "no name yet": it has no
// parent, and its shape is the empty record's.
type patternNode struct {
	name   string // as decoded and interned; the input spelled it exactly so between two quotes
	parent *patternNode
	next   []*patternNode
	shape  *typelang.Shape
	sub    *patternNode
}

// The tree is a cache, bounded by two constants and no knob: a node
// remembers at most patternFanout followers, and an absorber's tree
// holds at most patternNodes nodes, a layout's shape charged as one and
// a sixteenth of its width (what it holds against what a node does).
// That is a third of a megabyte at worst. A tree that has turned away
// patternStale objects for being full is dropped and learned again, so
// a collection that drifts is not stuck with the layouts a long-lived
// absorber met first.
const (
	patternFanout = 8
	patternNodes  = 4096
	patternStale  = 4 * patternNodes
)

type patternTree struct {
	top    patternNode // top.sub roots the documents themselves
	size   int         // nodes held, shapes included, against patternNodes
	closed int64       // objects closed with a shape the tree already had (TakePatternRecords)
	missed int         // objects turned away because a bound was met
}

// renew, called between documents, drops the tree once it is stale.
func (t *patternTree) renew() {
	if t.missed >= patternStale {
		*t = patternTree{closed: t.closed}
	}
}

// root returns the root of the tree of the objects under a node, nil
// off the tree (under is nil) or when the tree is full.
func (t *patternTree) root(under *patternNode) *patternNode {
	if under == nil {
		return nil
	}
	if under.sub == nil {
		if t.size >= patternNodes {
			t.missed++
			return nil
		}
		under.sub = &patternNode{}
		t.size++
	}
	return under.sub
}

// shape returns the layout of the record whose last name is at — nil
// off the tree — building it the first time a record ends there.
func (t *patternTree) shape(at *patternNode) *typelang.Shape {
	if at == nil {
		return nil
	}
	if at.shape != nil {
		t.closed++
		return at.shape
	}
	width := 0
	for p := at; p.parent != nil; p = p.parent {
		width++
	}
	cost := 1 + width/16
	if t.size+cost > patternNodes {
		t.missed++
		return nil // staged duplicate-free all the same: the record closes unshaped
	}
	names := make([]string, width)
	for p := at; p.parent != nil; p = p.parent {
		width--
		names[width] = p.name
	}
	at.shape = typelang.NewShape(names)
	t.size += cost
	return at.shape
}

// follow takes the record's path one name on: to the follower of at
// that the key opening at the cursor spells byte for byte — the closing
// quote is among the bytes compared, so "f1" is not taken for "f10",
// and a learned name is clean ASCII, so equal bytes decode to the equal
// name — or to a follower learned from it now. It moves the cursor past
// the key; nil, cursor unmoved, means the record leaves the tree here.
func (a *IndexAbsorber) follow(at *patternNode) *patternNode {
	if at == nil || !a.w.StructuralQuote(a.pos) {
		return nil
	}
	lo := a.pos + 1
	for _, f := range at.next {
		if hi := lo + len(f.name); hi < len(a.data) && a.data[hi] == '"' && string(a.data[lo:hi]) == f.name {
			a.pos = hi + 1
			return f
		}
	}
	t := &a.tree
	if len(at.next) == patternFanout || t.size >= patternNodes {
		t.missed++
		return nil
	}
	// Learn the key if it is one fieldName would intern verbatim and
	// the record has not had it yet (a duplicate rebinds: not a layout).
	hi := a.w.CloseQuote(lo)
	if hi < 0 || !a.w.VerbatimSpan(lo, hi) {
		return nil
	}
	name := a.w.InternSpan(lo, hi)
	for p := at; p.parent != nil; p = p.parent {
		if p.name == name {
			return nil
		}
	}
	f := &patternNode{name: name, parent: at}
	at.next = append(at.next, f)
	t.size++
	a.pos = hi + 1
	return f
}
