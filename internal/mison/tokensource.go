package mison

import (
	"math/bits"

	"repro/internal/jsontext"
)

// TokenSource lexes one in-memory chunk of JSON through the structural
// index, implementing the same pull interface as jsontext.TokenReader
// (jsontext.TokenSource). It owns everything the streamed map phase
// raises once per chunk, and the one pass that raises it (index):
// phases 1–3 over the chunk — quote, backslash-or-control and non-ASCII
// bitmaps, escape filtering, and for the FieldWalker (the index-driven
// absorber's view, fieldwalker.go) the structural-character bitmap off
// the same loaded words and the same string mask. Both walkers read
// them; ReadToken is the token walk, used for the records the index
// walk cannot certify and by anything that wants tokens. It resolves
// the common tokens positionally:
//
//   - a string's closing quote is the next structural-quote bit, so
//     string payloads are skipped without touching their bytes — the
//     "no tokenisation of skipped content" half of Mison's design;
//   - plain integers and the true/false/null literals are decided by
//     direct byte comparison;
//   - structural characters are single-byte tokens.
//
// Everything the bitmaps cannot prove clean — strings containing
// escapes, control or non-ASCII bytes, numbers with fractions,
// exponents or more than 18 digits, and every malformed construct — is
// delegated to a jsontext.Scanner at the same position, so payload
// decoding, accept/reject decisions, error messages and offsets are
// byte-identical to TokenReader's on every input. The equivalence is
// pinned by the mison-vs-lexer fuzz target.
//
// A TokenSource is not safe for concurrent use; like the projecting
// Parser it reuses its bitmap storage across Reset calls, so one warm
// source per worker lexes an arbitrary number of chunks without
// per-chunk allocation.
type TokenSource struct {
	data []byte
	base int
	pos  int

	// Structural bitmaps of the current chunk, one bit per byte:
	// unescaped quotes; backslashes and control bytes (< 0x20) together —
	// what a string span must hold none of to be accepted unscanned, and
	// nothing reads the two apart; non-ASCII bytes (>= 0x80).
	quote    []uint64
	dirty    []uint64
	nonascii []uint64

	// scan is the reference lexer tokens are delegated to. It also owns
	// the field-name intern cache, so a name dedups identically
	// whichever path decoded it.
	scan jsontext.Scanner

	// delegations counts tokens handed to the reference scanner instead
	// of resolved positionally — the fast path's miss counter, harvested
	// per chunk by the pipeline's stage stats (TakeDelegations).
	delegations int64
}

// TokenSource implements the TokenReader pull contract.
var _ jsontext.TokenSource = (*TokenSource)(nil)

// NewTokenSource returns an empty TokenSource; bind it to a chunk with
// Reset.
func NewTokenSource() *TokenSource { return &TokenSource{} }

// SetInternStrings toggles the decoded-string intern cache for field
// names, mirroring TokenReader.SetInternStrings. The cache survives
// Reset and is the delegated lexer's own, so a chunk worker dedups
// every name once no matter which path decoded it.
func (ts *TokenSource) SetInternStrings(on bool) { ts.scan.SetInternStrings(on) }

// Reset rebinds the source to a chunk whose first byte sits at absolute
// stream offset base, rebuilding the structural bitmaps in place. Every
// chunk is indexed: the error is always nil, and is kept only because
// bench/ checks it.
func (ts *TokenSource) Reset(data []byte, base int) error {
	ts.index(data, base, nil)
	return nil
}

// index is the one classification pass over a chunk, one 64-byte block
// at a time through classifyBlock (swar.go): full blocks are read in
// place, the tail through one zero-padded block on the stack. It writes
// every word of the quote, backslash-or-control and non-ASCII bitmaps
// and, when structural is not nil (the FieldWalker's, one word per 64
// bytes of data), the six structural characters { } [ ] : , outside
// strings. Escaped quotes are struck once per block (the escape carry
// crosses block edges) and the string mask is the prefix XOR of the
// surviving quotes, carried across blocks as inString. It issues no
// verdict: after a quote with no closer everything reads "in string",
// no structural bit is raised there, and the walks meet the quote
// itself — readString finds no closing bit and the reference scanner
// words the error.
func (ts *TokenSource) index(data []byte, base int, structural []uint64) {
	ts.data, ts.base, ts.pos = data, base, 0
	nw := words(len(data))
	ts.quote = sizeWords(ts.quote, nw)
	ts.dirty = sizeWords(ts.dirty, nw)
	ts.nonascii = sizeWords(ts.nonascii, nw)
	var tail [64]byte
	var escCarry, inString uint64 // inString: all-ones while a string is open across a block edge
	for w := 0; w < nw; w++ {
		blk, n := &tail, len(data)-w*64
		if n >= 64 {
			blk, n = (*[64]byte)(data[w*64:]), 64
		} else {
			copy(tail[:], data[w*64:])
		}
		q, bs, dirty, na, s := classifyBlock(blk)
		dirty &= ^uint64(0) >> uint(64-n) // the zero padding of the tail block is not input
		if bs != 0 || escCarry != 0 {
			var esc uint64
			esc, escCarry = escapedMaskTail(bs, escCarry, n)
			q &^= esc
		}
		ts.quote[w], ts.dirty[w], ts.nonascii[w] = q, dirty, na
		if structural != nil {
			structural[w] = s &^ (prefixXor(q) ^ inString)
		}
		if bits.OnesCount64(q)&1 == 1 {
			inString = ^inString
		}
	}
}

// InputOffset returns the absolute stream offset of the next unconsumed
// byte.
func (ts *TokenSource) InputOffset() int { return ts.base + ts.pos }

// ReadToken scans the next token with decoded payloads.
func (ts *TokenSource) ReadToken() (jsontext.Token, error) { return ts.readToken(false) }

// ReadTokenSkipString scans the next token, validating but not
// materialising string payloads.
func (ts *TokenSource) ReadTokenSkipString() (jsontext.Token, error) { return ts.readToken(true) }

func (ts *TokenSource) readToken(skip bool) (jsontext.Token, error) {
	data := ts.data
	pos := ts.pos
	for pos < len(data) && isSpace(data[pos]) {
		pos++
	}
	if pos >= len(data) {
		ts.pos = pos
		return jsontext.Token{Kind: jsontext.TokEOF, Offset: ts.base + pos}, nil
	}
	switch c := data[pos]; c {
	case '{':
		return ts.delim(jsontext.TokBeginObject, pos)
	case '}':
		return ts.delim(jsontext.TokEndObject, pos)
	case '[':
		return ts.delim(jsontext.TokBeginArray, pos)
	case ']':
		return ts.delim(jsontext.TokEndArray, pos)
	case ':':
		return ts.delim(jsontext.TokColon, pos)
	case ',':
		return ts.delim(jsontext.TokComma, pos)
	case '"':
		return ts.readString(pos, skip)
	case 't':
		if ts.hasLiteral(pos, "true") {
			return ts.literal(jsontext.TokTrue, pos, 4)
		}
		return ts.delegate(pos, skip)
	case 'f':
		if ts.hasLiteral(pos, "false") {
			return ts.literal(jsontext.TokFalse, pos, 5)
		}
		return ts.delegate(pos, skip)
	case 'n':
		if ts.hasLiteral(pos, "null") {
			return ts.literal(jsontext.TokNull, pos, 4)
		}
		return ts.delegate(pos, skip)
	default:
		// Decoding mode keeps NumRaw, so only skip mode takes the fast path.
		if skip && (c == '-' || (c >= '0' && c <= '9')) {
			if end, f, ok := plainInt(data, pos); ok {
				ts.pos = end
				return jsontext.Token{Kind: jsontext.TokNumber, Num: f, Offset: ts.base + pos}, nil
			}
		}
		return ts.delegate(pos, skip)
	}
}

func (ts *TokenSource) delim(kind jsontext.TokenKind, pos int) (jsontext.Token, error) {
	ts.pos = pos + 1
	return jsontext.Token{Kind: kind, Offset: ts.base + pos}, nil
}

func (ts *TokenSource) hasLiteral(pos int, lit string) bool {
	return pos+len(lit) <= len(ts.data) && string(ts.data[pos:pos+len(lit)]) == lit
}

func (ts *TokenSource) literal(kind jsontext.TokenKind, pos, n int) (jsontext.Token, error) {
	ts.pos = pos + n
	return jsontext.Token{Kind: kind, Offset: ts.base + pos}, nil
}

// readString resolves a string token positionally: the closing quote is
// the next structural-quote bit, and the span between the quotes is
// "clean" when it holds no backslash, no control byte and (in decoding
// mode) no non-ASCII byte — exactly the precondition of the reference
// lexer's fast path, so the bytes need never be scanned. Anything else
// delegates to the reference lexer for identical decoding and errors.
func (ts *TokenSource) readString(open int, skip bool) (jsontext.Token, error) {
	if !hasBit(ts.quote, open) {
		// Reachable only after a stray backslash outside a string, which
		// itself lexes as an error first; delegate defensively.
		return ts.delegate(open, skip)
	}
	close := nextSetBit(ts.quote, open+1)
	if close < 0 {
		// Unterminated: the reference lexer words the error.
		return ts.delegate(open, skip)
	}
	if anyInRange(ts.dirty, open+1, close) || (!skip && anyInRange(ts.nonascii, open+1, close)) {
		return ts.delegate(open, skip)
	}
	var s string
	if !skip {
		s = ts.scan.Intern(ts.data[open+1 : close])
	}
	ts.pos = close + 1
	return jsontext.Token{Kind: jsontext.TokString, Str: s, Offset: ts.base + open}, nil
}

// plainInt resolves the plain integer literal at data[pos] — no sign
// beyond a leading '-', no fraction, no exponent, at most 18 digits —
// without strconv, returning its end position and value. It mirrors the
// reference lexer's allocation-free skip-mode path (the int64 → float64
// conversion rounds exactly as strconv.ParseFloat would; the mirrored
// grammar is held in lockstep by FuzzTokenSource and
// TestTokenSourceMatchesLexer). ok is false for every other spelling;
// callers delegate those, keeping overflow handling and error wording
// identical.
func plainInt(data []byte, pos int) (end int, f float64, ok bool) {
	i := pos
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	default:
		return 0, 0, false
	}
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, 0, false
	}
	digits := i - pos
	neg := data[pos] == '-'
	if neg {
		digits--
	}
	if digits > 18 {
		return 0, 0, false
	}
	var v int64
	for _, c := range data[pos:i] {
		if c != '-' {
			v = v*10 + int64(c-'0')
		}
	}
	if neg {
		v = -v
	}
	return i, float64(v), true
}

// TakeDelegations returns the number of tokens delegated to the
// reference scanner since the last call, and resets the count — the
// harvest point of the pipeline's per-chunk stage stats.
func (ts *TokenSource) TakeDelegations() int64 {
	n := ts.delegations
	ts.delegations = 0
	return n
}

// delegate reads the token at pos through the reference lexer.
func (ts *TokenSource) delegate(pos int, skip bool) (jsontext.Token, error) {
	tok, end, err := ts.scanAt(pos, skip)
	if err == nil {
		ts.pos = end
	}
	return tok, err
}

// scanAt hands the token at pos to the reference lexer — payload
// decoding, accept/reject decisions and error wording exactly as
// TokenReader's — and returns it with its offsets rebased onto the
// stream and the chunk-relative position of the first byte after it
// (pos itself on an error, which is rebased too).
func (ts *TokenSource) scanAt(pos int, skip bool) (jsontext.Token, int, error) {
	ts.delegations++
	tok, end, err := ts.scan.ScanAt(ts.data, pos, skip)
	if err != nil {
		if se, ok := err.(*jsontext.SyntaxError); ok {
			err = se.Rebased(ts.base)
		}
		return jsontext.Token{}, pos, err
	}
	tok.Offset += ts.base
	return tok, end, nil
}

// hasBit reports whether bit i of the packed bitmap is set.
func hasBit(bm []uint64, i int) bool { return bm[i>>6]&(1<<uint(i&63)) != 0 }

// nextSetBit returns the smallest set bit position >= from, or -1.
func nextSetBit(bm []uint64, from int) int {
	w := from >> 6
	if w >= len(bm) {
		return -1
	}
	word := bm[w] &^ ((1 << uint(from&63)) - 1)
	for {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(bm) {
			return -1
		}
		word = bm[w]
	}
}

// anyInRange reports whether any bit in [lo, hi) is set.
func anyInRange(bm []uint64, lo, hi int) bool {
	if lo >= hi {
		return false
	}
	wLo, wHi := lo>>6, (hi-1)>>6
	maskLo := ^uint64(0) << uint(lo&63)
	maskHi := ^uint64(0) >> uint(63-(hi-1)&63)
	if wLo == wHi {
		return bm[wLo]&maskLo&maskHi != 0
	}
	if bm[wLo]&maskLo != 0 || bm[wHi]&maskHi != 0 {
		return true
	}
	for w := wLo + 1; w < wHi; w++ {
		if bm[w] != 0 {
			return true
		}
	}
	return false
}
