package jsontext

import (
	"io"

	"repro/internal/jsonvalue"
)

// Decoder reads a stream of JSON values from an io.Reader, in the style
// of the streaming processing that mongodb-schema applies to collections
// pulled from MongoDB (§4.1): values are consumed one at a time without
// materialising the whole input.
//
// It is a thin wrapper over TokenReader: one token pull decides whether
// a value starts, and the shared pull-style builder consumes exactly the
// value's tokens — no lookahead is held across Decode calls, and a value
// that used to be re-parsed from scratch on every buffer refill is now
// lexed incrementally.
type Decoder struct {
	tr *TokenReader
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{tr: NewTokenReader(r)}
}

// Decode parses and returns the next JSON value in the stream. Values
// may be separated by arbitrary whitespace (covering both NDJSON and
// concatenated-JSON layouts). It returns io.EOF when the stream is
// exhausted.
func (d *Decoder) Decode() (*jsonvalue.Value, error) {
	tok, err := d.tr.ReadToken()
	if err != nil {
		return nil, err
	}
	if tok.Kind == TokEOF {
		return nil, io.EOF
	}
	return parseValueAt(d.tr, tok, 0)
}
