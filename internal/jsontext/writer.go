package jsontext

import (
	"bytes"
	"strconv"
	"unicode/utf8"

	"repro/internal/jsonvalue"
)

// WriteOptions control serialisation.
type WriteOptions struct {
	// Indent, when non-empty, produces multi-line output using Indent as
	// the per-level unit.
	Indent string
}

// Marshal serialises v compactly.
func Marshal(v *jsonvalue.Value) []byte {
	var b []byte
	return AppendValue(b, v, WriteOptions{})
}

// MarshalString is Marshal returning a string.
func MarshalString(v *jsonvalue.Value) string { return string(Marshal(v)) }

// MarshalIndent serialises v with the given indent unit.
func MarshalIndent(v *jsonvalue.Value, indent string) []byte {
	return AppendValue(nil, v, WriteOptions{Indent: indent})
}

// AppendValue appends the serialisation of v to dst and returns the
// extended buffer.
func AppendValue(dst []byte, v *jsonvalue.Value, opts WriteOptions) []byte {
	w := writer{opts: opts}
	return w.value(dst, v, 0)
}

type writer struct {
	opts WriteOptions
}

func (w *writer) value(dst []byte, v *jsonvalue.Value, depth int) []byte {
	switch v.Kind() {
	case jsonvalue.Null, jsonvalue.Invalid:
		return append(dst, "null"...)
	case jsonvalue.Bool:
		if v.Bool() {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case jsonvalue.Number:
		return AppendNumber(dst, v.Num(), v.NumRaw())
	case jsonvalue.String:
		return AppendQuoted(dst, v.Str())
	case jsonvalue.Array:
		return w.array(dst, v, depth)
	case jsonvalue.Object:
		return w.object(dst, v, depth)
	}
	return dst
}

func (w *writer) array(dst []byte, v *jsonvalue.Value, depth int) []byte {
	elems := v.Elems()
	if len(elems) == 0 {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i, e := range elems {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = w.newlineIndent(dst, depth+1)
		dst = w.value(dst, e, depth+1)
	}
	dst = w.newlineIndent(dst, depth)
	return append(dst, ']')
}

func (w *writer) object(dst []byte, v *jsonvalue.Value, depth int) []byte {
	fields := v.Fields()
	if len(fields) == 0 {
		return append(dst, "{}"...)
	}
	dst = append(dst, '{')
	for i, f := range fields {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = w.newlineIndent(dst, depth+1)
		dst = AppendQuoted(dst, f.Name)
		dst = append(dst, ':')
		if w.opts.Indent != "" {
			dst = append(dst, ' ')
		}
		dst = w.value(dst, f.Value, depth+1)
	}
	dst = w.newlineIndent(dst, depth)
	return append(dst, '}')
}

func (w *writer) newlineIndent(dst []byte, depth int) []byte {
	if w.opts.Indent == "" {
		return dst
	}
	dst = append(dst, '\n')
	for i := 0; i < depth; i++ {
		dst = append(dst, w.opts.Indent...)
	}
	return dst
}

// AppendNumber appends a JSON number literal. A remembered raw spelling
// wins; otherwise the shortest round-tripping decimal form is used.
func AppendNumber(dst []byte, f float64, raw string) []byte {
	if raw != "" {
		return append(dst, raw...)
	}
	// JSON has no NaN/Inf; writers conventionally emit null.
	if f != f || f > 1.797693134862315708145274237317043567981e308 || f < -1.797693134862315708145274237317043567981e308 {
		return append(dst, "null"...)
	}
	if f == float64(int64(f)) && f < 1<<62 && f > -(1<<62) {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

const hexDigits = "0123456789abcdef"

// AppendQuoted appends s as a quoted, escaped JSON string literal.
func AppendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch c {
			case '"':
				dst = append(dst, '\\', '"')
			case '\\':
				dst = append(dst, '\\', '\\')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			// Replace invalid UTF-8 with U+FFFD, as encoding/json does.
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// MarshalLines serialises a collection one value per line (NDJSON), the
// on-disk layout assumed by the inference and parsing experiments.
func MarshalLines(vs []*jsonvalue.Value) []byte {
	var dst []byte
	for _, v := range vs {
		dst = AppendValue(dst, v, WriteOptions{})
		dst = append(dst, '\n')
	}
	return dst
}

// ParseLines parses NDJSON: one JSON value per line that holds more
// than JSON whitespace (space, tab, CR). Any other byte, Unicode spaces
// such as '\v' included, is the decoder's to accept or reject.
func ParseLines(data []byte) ([]*jsonvalue.Value, error) {
	var out []*jsonvalue.Value
	for start := 0; start < len(data); {
		end := start
		for end < len(data) && data[end] != '\n' {
			end++
		}
		line := data[start:end]
		if len(bytes.Trim(line, " \t\r")) > 0 {
			v, err := Parse(line)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		start = end + 1
	}
	return out, nil
}
