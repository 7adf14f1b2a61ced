package jsontext

// TokenSource is the pull contract of TokenReader: one token per call,
// absolute byte offsets, TokEOF (with a nil error) at end of input, and
// *SyntaxError with absolute offsets on malformed text. It is the seam
// that lets alternative tokenizers — the Mison structural index in
// internal/mison — slot into the token-only inference path behind the
// same interface as the reference lexer.
//
// ReadTokenSkipString must take exactly the same accept/reject
// decisions as ReadToken while leaving TokString payloads
// unmaterialised; implementations are interchangeable precisely because
// both modes agree byte-for-byte with TokenReader.
type TokenSource interface {
	// ReadToken scans and returns the next token with its decoded
	// payload.
	ReadToken() (Token, error)
	// ReadTokenSkipString is ReadToken with TokString payloads validated
	// but not materialised.
	ReadTokenSkipString() (Token, error)
	// InputOffset returns the absolute stream offset of the next
	// unconsumed byte.
	InputOffset() int
}

// TokenReader is the reference TokenSource.
var _ TokenSource = (*TokenReader)(nil)

// Scanner lexes single tokens at caller-chosen positions of an
// in-memory buffer. It exists for alternative tokenizers that resolve
// most tokens from their own index but must delegate the hard cases —
// strings with escapes or suspect bytes, numbers with fractions,
// exponents or overflow risk, and every malformed construct — to the
// reference lexer, so that payload decoding, accept/reject decisions
// and error offsets stay byte-identical to TokenReader's no matter
// which path produced the token.
//
// Token and error offsets are relative to the data slice passed to
// ScanAt; callers lexing a chunk of a larger stream rebase them.
type Scanner struct {
	lex lexer
}

// SetInternStrings toggles the decoded-string intern cache, exactly as
// TokenReader.SetInternStrings does.
func (s *Scanner) SetInternStrings(on bool) {
	if on && s.lex.intern == nil {
		s.lex.intern = make(map[string]string)
	} else if !on {
		s.lex.intern = nil
	}
}

// Intern returns b as a string through the scanner's intern cache,
// exactly as a decoded field name would be. A caller with its own
// string fast path (the mison token source) dedups the names it
// certifies positionally here, so a name is the same string whether the
// fast path or a delegated token decoded it.
func (s *Scanner) Intern(b []byte) string { return s.lex.internBytes(b) }

// ScanAt lexes the single token beginning at or after data[pos:]
// (leading whitespace is skipped) and returns it together with the
// position of the first byte after it. The data slice is the whole
// window: truncation at its end is a definite error, as in a
// TokenReader over a byte slice. At end of input it returns a TokEOF
// token and a nil error.
func (s *Scanner) ScanAt(data []byte, pos int, skipStr bool) (Token, int, error) {
	s.lex.data = data
	s.lex.pos = pos
	tok, err := s.lex.next(skipStr)
	if err != nil {
		return Token{}, pos, err
	}
	return tok, s.lex.pos, nil
}
