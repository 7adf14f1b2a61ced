package jsontext

import (
	"errors"
	"io"
)

// TokenReader is a streaming JSON lexer over an io.Reader: the promoted,
// public face of the package-private lexer. It yields one Token at a
// time with absolute byte offsets, refilling and growing an internal
// window as needed, so tokens (and the values built from them) may be
// arbitrarily larger than any single read.
//
// It is the front end of the token-only inference path: schema typing
// needs the *kind* of every value but almost none of its payload, so
// ReadTokenSkipString validates string literals without materialising
// them, and SetInternStrings dedups the field-name strings that do get
// decoded. Parse and Decoder are thin wrappers over the same machinery.
//
// A TokenReader over a byte slice (NewTokenReaderBytes) performs no
// copying and no reads: the slice is the whole window.
type TokenReader struct {
	r     io.Reader
	buf   []byte
	start int // unconsumed region is buf[start:end]
	end   int
	eof   bool
	base  int // absolute offset of buf[0] in the stream
	lex   lexer
}

// tokenBufSize is the initial window capacity in streaming mode.
const tokenBufSize = 64 << 10

// NewTokenReader returns a TokenReader lexing the stream r.
func NewTokenReader(r io.Reader) *TokenReader {
	return &TokenReader{r: r, buf: make([]byte, 0, tokenBufSize)}
}

// NewTokenReaderBytes returns a TokenReader lexing the in-memory text
// data. The slice is aliased, not copied.
func NewTokenReaderBytes(data []byte) *TokenReader {
	return &TokenReader{buf: data, end: len(data), eof: true}
}

// ResetBytes rebinds the reader to a new in-memory text whose first byte
// sits at absolute stream offset base (token offsets and syntax errors
// are reported relative to the whole stream, which is what lets parallel
// chunk workers attribute errors exactly). The intern cache survives the
// reset, so a worker reuses one cache across every chunk it types.
func (t *TokenReader) ResetBytes(data []byte, base int) {
	t.r = nil
	t.buf = data
	t.start, t.end = 0, len(data)
	t.eof = true
	t.base = base
}

// SetInternStrings toggles the decoded-string intern cache. Streams of
// NDJSON documents repeat the same field names millions of times;
// interning makes every repeat allocation-free. The cache holds at most
// 1 << 16 names, starting over when full; off drops it, so decoded
// strings are retained nowhere.
func (t *TokenReader) SetInternStrings(on bool) {
	if on && t.lex.intern == nil {
		t.lex.intern = make(map[string]string)
	} else if !on {
		t.lex.intern = nil
	}
}

// InputOffset returns the absolute stream offset of the next unconsumed
// byte.
func (t *TokenReader) InputOffset() int { return t.base + t.start }

// ReadToken scans and returns the next token. At end of input it returns
// a Token of Kind TokEOF and a nil error; errors are *SyntaxError for
// malformed JSON (with absolute offsets) or the reader's I/O error.
func (t *TokenReader) ReadToken() (Token, error) { return t.readToken(false) }

// ReadTokenSkipString is ReadToken, except TokString tokens carry an
// empty Str: the literal is validated byte-for-byte like ReadToken but
// its contents are never materialised. Use it wherever the payload is
// irrelevant — schema typing reads every value string this way.
func (t *TokenReader) ReadTokenSkipString() (Token, error) { return t.readToken(true) }

func (t *TokenReader) readToken(skipStr bool) (Token, error) {
	for {
		t.lex.data = t.buf[t.start:t.end]
		t.lex.pos = 0
		tok, err := t.lex.next(skipStr)
		switch {
		case err != nil:
			// A token truncated at the window edge (half a literal, an
			// unterminated string) is cured by more input; a definite
			// violation surfaces immediately instead of buffering the
			// rest of the stream behind it.
			if !t.eof && errIsTruncation(err) {
				if ferr := t.fill(); ferr != nil {
					return Token{}, ferr
				}
				continue
			}
			return Token{}, t.absError(err)
		case tok.Kind == TokEOF && !t.eof:
			// Window is pure whitespace; consume it and refill.
			t.start += t.lex.pos
			if ferr := t.fill(); ferr != nil {
				return Token{}, ferr
			}
			continue
		case tok.Kind == TokNumber && t.lex.pos == len(t.lex.data) && !t.eof:
			// A number ending exactly at the window edge may be a prefix
			// of a longer literal ("12" of "123"); require more input.
			if ferr := t.fill(); ferr != nil {
				return Token{}, ferr
			}
			continue
		}
		tok.Offset += t.base + t.start
		t.start += t.lex.pos
		return tok, nil
	}
}

// fill reads more input, compacting or growing the window as needed. It
// returns only real I/O errors; io.EOF is recorded in t.eof.
func (t *TokenReader) fill() error {
	if t.start > 0 {
		n := copy(t.buf[0:cap(t.buf)], t.buf[t.start:t.end])
		t.base += t.start
		t.start, t.end = 0, n
		t.buf = t.buf[:n]
	}
	if t.end == cap(t.buf) {
		grown := make([]byte, t.end, 2*cap(t.buf)+1024)
		copy(grown, t.buf[:t.end])
		t.buf = grown
	}
	n, err := t.r.Read(t.buf[t.end:cap(t.buf)])
	t.end += n
	t.buf = t.buf[:t.end]
	if err != nil {
		if errors.Is(err, io.EOF) {
			t.eof = true
			return nil
		}
		return err
	}
	return nil
}

// absError rebases a window-relative syntax error onto the stream.
func (t *TokenReader) absError(err error) error {
	var se *SyntaxError
	if errors.As(err, &se) {
		return se.Rebased(t.base + t.start)
	}
	return err
}
