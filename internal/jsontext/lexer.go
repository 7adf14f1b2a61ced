// lexer.go is the window-relative scanner shared by every front end:
// TokenReader and Scanner drive it over their buffers, Parse and
// Decoder build values from its tokens.

package jsontext

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// TokenKind identifies a lexical token.
type TokenKind uint8

// Token kinds. Delimiters carry no payload; literals carry their decoded
// payload in Token.
const (
	TokEOF TokenKind = iota
	TokBeginObject
	TokEndObject
	TokBeginArray
	TokEndArray
	TokColon
	TokComma
	TokNull
	TokTrue
	TokFalse
	TokNumber
	TokString
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokBeginObject:
		return "'{'"
	case TokEndObject:
		return "'}'"
	case TokBeginArray:
		return "'['"
	case TokEndArray:
		return "']'"
	case TokColon:
		return "':'"
	case TokComma:
		return "','"
	case TokNull:
		return "null"
	case TokTrue:
		return "true"
	case TokFalse:
		return "false"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	default:
		return "unknown"
	}
}

// Token is a lexical token with position and payload.
type Token struct {
	Kind TokenKind
	// Str holds the decoded string for TokString.
	Str string
	// Num and NumRaw hold the numeric value and the literal spelling for
	// TokNumber.
	Num    float64
	NumRaw string
	// Offset is the byte offset of the token's first byte.
	Offset int
}

// SyntaxError reports a JSON syntax violation with its byte offset.
type SyntaxError struct {
	Offset int
	Msg    string
	// truncated marks errors that more input could cure (a literal or
	// string cut at the window edge). TokenReader refills and retries on
	// these; definite errors surface immediately instead of buffering
	// the rest of the stream.
	truncated bool
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("json syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Truncated reports whether more input could cure the error: the window
// ended inside a literal, an escape or a string. A caller that lexes a
// stream window by window retries such a token with more bytes.
func (e *SyntaxError) Truncated() bool { return e.truncated }

// Rebased returns the error moved delta bytes along the stream — how a
// window-relative error becomes an absolute one.
func (e *SyntaxError) Rebased(delta int) *SyntaxError {
	return &SyntaxError{Offset: e.Offset + delta, Msg: e.Msg, truncated: e.truncated}
}

func errAt(off int, format string, args ...any) error {
	return &SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// errTruncAt is errAt for violations that are only violations because
// the window ended: with more input the same bytes might lex cleanly.
func errTruncAt(off int, format string, args ...any) error {
	return &SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...), truncated: true}
}

// errIsTruncation reports whether err might be cured by more input.
func errIsTruncation(err error) bool {
	se, ok := err.(*SyntaxError)
	return ok && se.truncated
}

// lexer scans a window of in-memory JSON text. The optional intern map
// caches decoded strings (field names repeat across millions of NDJSON
// documents), and skipStr mode validates string literals without
// materialising their contents — both serve the token-only inference
// path, which never looks at string payloads except as record labels.
type lexer struct {
	data   []byte
	pos    int
	intern map[string]string
}

// maxInterned bounds the intern cache: a full cache is replaced by a
// fresh map, so a lexer kept warm across an unbounded vocabulary holds
// at most this many names. A fresh map, not clear: a Go map never
// shrinks, and clear would keep the old buckets.
const maxInterned = 1 << 16

func (l *lexer) skipSpace() {
	for l.pos < len(l.data) {
		switch l.data[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

// next scans the next token. With skipStr set, TokString tokens carry an
// empty Str: the literal is validated (escapes, control characters,
// termination) exactly as in decoding mode, but nothing is allocated.
func (l *lexer) next(skipStr bool) (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.data) {
		return Token{Kind: TokEOF, Offset: l.pos}, nil
	}
	start := l.pos
	switch c := l.data[l.pos]; c {
	case '{':
		l.pos++
		return Token{Kind: TokBeginObject, Offset: start}, nil
	case '}':
		l.pos++
		return Token{Kind: TokEndObject, Offset: start}, nil
	case '[':
		l.pos++
		return Token{Kind: TokBeginArray, Offset: start}, nil
	case ']':
		l.pos++
		return Token{Kind: TokEndArray, Offset: start}, nil
	case ':':
		l.pos++
		return Token{Kind: TokColon, Offset: start}, nil
	case ',':
		l.pos++
		return Token{Kind: TokComma, Offset: start}, nil
	case 't':
		if err := l.literal("true"); err != nil {
			return Token{}, err
		}
		return Token{Kind: TokTrue, Offset: start}, nil
	case 'f':
		if err := l.literal("false"); err != nil {
			return Token{}, err
		}
		return Token{Kind: TokFalse, Offset: start}, nil
	case 'n':
		if err := l.literal("null"); err != nil {
			return Token{}, err
		}
		return Token{Kind: TokNull, Offset: start}, nil
	case '"':
		s, err := l.scanString(skipStr)
		if err != nil {
			return Token{}, err
		}
		return Token{Kind: TokString, Str: s, Offset: start}, nil
	default:
		if c == '-' || (c >= '0' && c <= '9') {
			f, raw, err := l.scanNumber(skipStr)
			if err != nil {
				return Token{}, err
			}
			return Token{Kind: TokNumber, Num: f, NumRaw: raw, Offset: start}, nil
		}
		return Token{}, errAt(start, "unexpected byte %q", c)
	}
}

func (l *lexer) literal(lit string) error {
	if avail := len(l.data) - l.pos; avail < len(lit) {
		if string(l.data[l.pos:]) == lit[:avail] {
			// A prefix cut at the window edge; more input decides.
			return errTruncAt(l.pos, "invalid literal, want %q", lit)
		}
		return errAt(l.pos, "invalid literal, want %q", lit)
	}
	if string(l.data[l.pos:l.pos+len(lit)]) != lit {
		return errAt(l.pos, "invalid literal, want %q", lit)
	}
	l.pos += len(lit)
	return nil
}

// scanString decodes (or, with skip set, merely validates) a JSON string
// starting at the opening quote. Skip mode takes exactly the same
// accept/reject decisions as decoding mode.
func (l *lexer) scanString(skip bool) (string, error) {
	start := l.pos
	l.pos++ // opening quote
	// Fast path: ASCII with no escapes and no control bytes. Non-ASCII
	// drops to the slow path, which validates UTF-8 (invalid sequences
	// become U+FFFD, as in encoding/json, keeping parse∘marshal a
	// fixpoint).
	i := l.pos
	for i < len(l.data) {
		c := l.data[i]
		if c == '"' {
			var s string
			if !skip {
				s = l.internBytes(l.data[l.pos:i])
			}
			l.pos = i + 1
			return s, nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	// Slow path with escape decoding.
	var buf []byte
	if !skip {
		buf = append(buf, l.data[l.pos:i]...)
	}
	l.pos = i
	for l.pos < len(l.data) {
		c := l.data[l.pos]
		switch {
		case c == '"':
			l.pos++
			if skip {
				return "", nil
			}
			return string(buf), nil
		case c < 0x20:
			return "", errAt(l.pos, "unescaped control character 0x%02x in string", c)
		case c == '\\':
			l.pos++
			if l.pos >= len(l.data) {
				return "", errTruncAt(l.pos, "unterminated escape")
			}
			esc := l.data[l.pos]
			switch esc {
			case '"', '\\', '/':
				if !skip {
					buf = append(buf, esc)
				}
				l.pos++
			case 'b':
				if !skip {
					buf = append(buf, '\b')
				}
				l.pos++
			case 'f':
				if !skip {
					buf = append(buf, '\f')
				}
				l.pos++
			case 'n':
				if !skip {
					buf = append(buf, '\n')
				}
				l.pos++
			case 'r':
				if !skip {
					buf = append(buf, '\r')
				}
				l.pos++
			case 't':
				if !skip {
					buf = append(buf, '\t')
				}
				l.pos++
			case 'u':
				r, err := l.scanUnicodeEscape()
				if err != nil {
					return "", err
				}
				if !skip {
					buf = utf8.AppendRune(buf, r)
				}
			default:
				return "", errAt(l.pos, "invalid escape character %q", esc)
			}
		default:
			// Copy one UTF-8 rune; invalid encoding is sanitised to
			// U+FFFD so parsed strings are always valid UTF-8.
			r, size := utf8.DecodeRune(l.data[l.pos:])
			if !skip {
				if r == utf8.RuneError && size == 1 {
					buf = utf8.AppendRune(buf, utf8.RuneError)
				} else {
					buf = append(buf, l.data[l.pos:l.pos+size]...)
				}
			}
			l.pos += size
		}
	}
	return "", errTruncAt(start, "unterminated string")
}

// internBytes converts b to a string through the intern cache when one
// is installed. The map lookup with a converted key does not allocate,
// so repeated field names cost zero allocations after the first.
func (l *lexer) internBytes(b []byte) string {
	if l.intern == nil {
		return string(b)
	}
	if s, ok := l.intern[string(b)]; ok {
		return s
	}
	if len(l.intern) >= maxInterned {
		l.intern = make(map[string]string)
	}
	s := string(b)
	l.intern[s] = s
	return s
}

// scanUnicodeEscape decodes \uXXXX (with surrogate-pair handling); the
// leading "\u" has been consumed up to the 'u'.
func (l *lexer) scanUnicodeEscape() (rune, error) {
	l.pos++ // 'u'
	r1, err := l.hex4()
	if err != nil {
		return 0, err
	}
	if utf16.IsSurrogate(rune(r1)) {
		// Expect a low surrogate.
		if l.pos+1 < len(l.data) && l.data[l.pos] == '\\' && l.data[l.pos+1] == 'u' {
			save := l.pos
			l.pos += 2
			r2, err := l.hex4()
			if err != nil {
				return 0, err
			}
			if dec := utf16.DecodeRune(rune(r1), rune(r2)); dec != utf8.RuneError {
				return dec, nil
			}
			l.pos = save
		}
		return utf8.RuneError, nil
	}
	return rune(r1), nil
}

// hex4 decodes the four hex digits of a \u escape. Fewer than four
// bytes in hand is a truncation only when every one of them is a hex
// digit, as literal and numErrAt decide theirs.
func (l *lexer) hex4() (uint32, error) {
	var v uint32
	for i := 0; i < 4; i++ {
		if l.pos+i == len(l.data) {
			return 0, errTruncAt(l.pos, "truncated \\u escape")
		}
		c := l.data[l.pos+i]
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			return 0, errAt(l.pos+i, "invalid hex digit %q in \\u escape", c)
		}
		v = v<<4 | d
	}
	l.pos += 4
	return v, nil
}

// scanNumber validates and parses a JSON number literal. In skip mode
// the literal spelling is not materialised (NumRaw is empty) and plain
// integer literals are converted without strconv, so the token-only
// inference path types numbers allocation-free; the numeric value — and
// therefore the accept/reject decision, including float64 overflow — is
// identical in both modes.
func (l *lexer) scanNumber(skip bool) (float64, string, error) {
	start := l.pos
	simpleInt := true // no fraction, no exponent
	if l.pos < len(l.data) && l.data[l.pos] == '-' {
		l.pos++
	}
	// Integer part.
	switch {
	case l.pos < len(l.data) && l.data[l.pos] == '0':
		l.pos++
	case l.pos < len(l.data) && l.data[l.pos] >= '1' && l.data[l.pos] <= '9':
		for l.pos < len(l.data) && isDigit(l.data[l.pos]) {
			l.pos++
		}
	default:
		return 0, "", numErrAt(l, "invalid number: missing integer part")
	}
	// Fraction.
	if l.pos < len(l.data) && l.data[l.pos] == '.' {
		simpleInt = false
		l.pos++
		if l.pos >= len(l.data) || !isDigit(l.data[l.pos]) {
			return 0, "", numErrAt(l, "invalid number: missing fraction digits")
		}
		for l.pos < len(l.data) && isDigit(l.data[l.pos]) {
			l.pos++
		}
	}
	// Exponent.
	if l.pos < len(l.data) && (l.data[l.pos] == 'e' || l.data[l.pos] == 'E') {
		simpleInt = false
		l.pos++
		if l.pos < len(l.data) && (l.data[l.pos] == '+' || l.data[l.pos] == '-') {
			l.pos++
		}
		if l.pos >= len(l.data) || !isDigit(l.data[l.pos]) {
			return 0, "", numErrAt(l, "invalid number: missing exponent digits")
		}
		for l.pos < len(l.data) && isDigit(l.data[l.pos]) {
			l.pos++
		}
	}
	lit := l.data[start:l.pos]
	if skip {
		if f, ok := parsePlainInt(lit, simpleInt); ok {
			return f, "", nil
		}
		// Rare shape (fraction, exponent, or a huge integer): pay the
		// strconv conversion, still without retaining the spelling.
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			if math.IsInf(f, 0) {
				return 0, "", errAt(start, "number %q overflows float64", lit)
			}
			return 0, "", errAt(start, "invalid number %q", lit)
		}
		return f, "", nil
	}
	raw := string(lit)
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		// Overflow is the only way a grammatical literal fails; clamp as
		// encoding/json does not, so surface it.
		if math.IsInf(f, 0) {
			return 0, "", errAt(start, "number %q overflows float64", raw)
		}
		return 0, "", errAt(start, "invalid number %q", raw)
	}
	return f, raw, nil
}

// numErrAt flags a missing-digits error as a truncation when the window
// ended where the digit should be — "12e" at the window edge may yet
// become "12e5" — and as definite when a wrong byte is present.
func numErrAt(l *lexer, msg string) error {
	if l.pos >= len(l.data) {
		return errTruncAt(l.pos, "%s", msg)
	}
	return errAt(l.pos, "%s", msg)
}

// parsePlainInt converts a fraction-free, exponent-free decimal literal
// of at most 18 digits without allocating. float64 conversion of the
// int64 rounds to nearest exactly as strconv.ParseFloat would.
func parsePlainInt(lit []byte, simpleInt bool) (float64, bool) {
	digits := lit
	neg := false
	if len(digits) > 0 && digits[0] == '-' {
		neg = true
		digits = digits[1:]
	}
	if !simpleInt || len(digits) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range digits {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return float64(v), true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
