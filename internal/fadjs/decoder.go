// Package fadjs implements the decoding side of the speculative JSON
// codec of Bonetta and Brantner, "FAD.js: Fast JSON Data Access Using
// JIT-based Speculative Optimizations" (VLDB 2017) — the §4.2 tool built
// on the assumption "that most applications never use all the fields of
// input objects". E7 reproduces the decoding claim; the encoding side
// is not built.
//
// Substitution note (recorded in docs/EXPERIMENTS.md): Fad.js installs
// its speculation in the Graal.js JIT; stdlib Go has no JIT, so the
// speculation here lives in data instead of code. Each Decoder is one
// "call site" owning a small most-recently-used cache of object
// *shapes* (field-name sequences with expected value kinds). On the
// fast path the decoder memcmp-matches the cached raw key bytes
// instead of lexing them, parses used fields with a kind-predicted
// scanner, and structurally skips unused fields without materialising
// anything. A mismatch deoptimises to the generic parser and learns
// the new shape — the same speculate/deoptimise/recompile cycle, with
// a shape cache standing in for compiled code.
package fadjs

import (
	"fmt"
	"strconv"

	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

// maxShapes bounds the per-call-site shape cache, like the polymorphic
// inline cache depth of the JIT.
const maxShapes = 4

// shapeField is one property of a learned shape.
type shapeField struct {
	// rawKey is the exact source bytes of the key including quotes,
	// e.g. `"user"` — matched with a direct byte compare.
	rawKey []byte
	// name is the decoded key.
	name string
	// kind is the value kind observed when the shape was learned; the
	// fast path tries a kind-specialised scanner first.
	kind jsonvalue.Kind
	// used records whether the call site's projection needs the field.
	used bool
}

type shape struct {
	fields []shapeField
}

// Decoder is one decoding call site with speculative shape caching.
// The zero Decoder is not usable; construct with NewDecoder.
type Decoder struct {
	// usedFields is nil when every field is used; otherwise the
	// projection set (top-level names).
	usedFields map[string]bool

	shapes []*shape // MRU order

	// Hits and Deopts count fast-path successes and fallbacks.
	Hits, Deopts int
}

// NewDecoder returns a call-site decoder. With no arguments every
// field is decoded; otherwise only the named top-level fields are
// materialised and all others are skipped lazily.
func NewDecoder(usedFields ...string) *Decoder {
	d := &Decoder{}
	if len(usedFields) > 0 {
		d.usedFields = make(map[string]bool, len(usedFields))
		for _, f := range usedFields {
			d.usedFields[f] = true
		}
	}
	return d
}

// Decode parses one JSON object record.
func (d *Decoder) Decode(data []byte) (*jsonvalue.Value, error) {
	for si, sh := range d.shapes {
		if v, ok := d.tryShape(sh, data); ok {
			d.Hits++
			if si != 0 { // move to front
				copy(d.shapes[1:si+1], d.shapes[:si])
				d.shapes[0] = sh
			}
			return v, nil
		}
	}
	d.Deopts++
	return d.decodeGenericAndLearn(data)
}

// tryShape attempts the speculative fast path for one cached shape.
func (d *Decoder) tryShape(sh *shape, data []byte) (*jsonvalue.Value, bool) {
	pos := skipWS(data, 0)
	if pos >= len(data) || data[pos] != '{' {
		return nil, false
	}
	pos++
	fields := make([]jsonvalue.Field, 0, len(sh.fields))
	for i := range sh.fields {
		f := &sh.fields[i]
		pos = skipWS(data, pos)
		// memcmp the raw key bytes — no lexing, no unescaping.
		if !bytesHasPrefix(data[pos:], f.rawKey) {
			return nil, false
		}
		pos += len(f.rawKey)
		pos = skipWS(data, pos)
		if pos >= len(data) || data[pos] != ':' {
			return nil, false
		}
		pos++
		pos = skipWS(data, pos)
		if f.used {
			v, end, ok := scanValueKind(data, pos, f.kind)
			if !ok {
				return nil, false
			}
			fields = append(fields, jsonvalue.Field{Name: f.name, Value: v})
			pos = end
		} else {
			end, ok := skipValue(data, pos)
			if !ok {
				return nil, false
			}
			pos = end
		}
		pos = skipWS(data, pos)
		if pos >= len(data) {
			return nil, false
		}
		if i < len(sh.fields)-1 {
			if data[pos] != ',' {
				return nil, false
			}
			pos++
		}
	}
	pos = skipWS(data, pos)
	if pos >= len(data) || data[pos] != '}' {
		return nil, false
	}
	pos = skipWS(data, pos+1)
	if pos != len(data) {
		return nil, false
	}
	return jsonvalue.NewObject(fields...), true
}

// decodeGenericAndLearn is the deoptimised path: full parse, then
// record the record's shape for future fast paths.
func (d *Decoder) decodeGenericAndLearn(data []byte) (*jsonvalue.Value, error) {
	full, err := jsontext.Parse(data)
	if err != nil {
		return nil, err
	}
	if full.Kind() != jsonvalue.Object {
		return nil, fmt.Errorf("fadjs: record is %s, want object", full.Kind())
	}
	d.learn(full, data)
	if d.usedFields == nil {
		return full, nil
	}
	kept := make([]jsonvalue.Field, 0, len(d.usedFields))
	for _, f := range full.Fields() {
		if d.usedFields[f.Name] {
			kept = append(kept, f)
		}
	}
	return jsonvalue.NewObject(kept...), nil
}

// learn derives and caches the record's shape. Only records whose keys
// appear verbatim (no escapes) are learnable — others always take the
// generic path, which is safe.
func (d *Decoder) learn(obj *jsonvalue.Value, data []byte) {
	sh := &shape{fields: make([]shapeField, 0, obj.Len())}
	for _, f := range obj.Fields() {
		raw := append(append([]byte{'"'}, f.Name...), '"')
		used := d.usedFields == nil || d.usedFields[f.Name]
		if containsEscapish(f.Name) {
			return // not fast-path learnable
		}
		sh.fields = append(sh.fields, shapeField{
			rawKey: raw,
			name:   f.Name,
			kind:   f.Value.Kind(),
			used:   used,
		})
	}
	if len(d.shapes) == maxShapes {
		d.shapes = d.shapes[:maxShapes-1]
	}
	d.shapes = append([]*shape{sh}, d.shapes...)
}

func containsEscapish(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' || s[i] < 0x20 {
			return true
		}
	}
	return false
}

func bytesHasPrefix(b, prefix []byte) bool {
	if len(b) < len(prefix) {
		return false
	}
	for i := range prefix {
		if b[i] != prefix[i] {
			return false
		}
	}
	return true
}

func skipWS(data []byte, pos int) int {
	for pos < len(data) {
		switch data[pos] {
		case ' ', '\t', '\n', '\r':
			pos++
		default:
			return pos
		}
	}
	return pos
}

// scanValueKind parses the value at pos, trying the predicted kind's
// specialised scanner first and falling back to the generic parser for
// containers or mispredictions within the same record (a value-kind
// change does not force a whole-record deopt, matching Fad.js's
// per-property speculation).
func scanValueKind(data []byte, pos int, kind jsonvalue.Kind) (*jsonvalue.Value, int, bool) {
	switch kind {
	case jsonvalue.String:
		if pos < len(data) && data[pos] == '"' {
			if s, end, ok := scanSimpleString(data, pos); ok {
				return jsonvalue.NewString(s), end, true
			}
		}
	case jsonvalue.Number:
		if v, end, ok := scanNumber(data, pos); ok {
			return v, end, true
		}
	case jsonvalue.Bool:
		if bytesHasPrefix(data[pos:], []byte("true")) {
			return jsonvalue.NewBool(true), pos + 4, true
		}
		if bytesHasPrefix(data[pos:], []byte("false")) {
			return jsonvalue.NewBool(false), pos + 5, true
		}
	case jsonvalue.Null:
		if bytesHasPrefix(data[pos:], []byte("null")) {
			return jsonvalue.NewNull(), pos + 4, true
		}
	}
	// Generic sub-parse: find the value's extent structurally, then
	// parse just that slice.
	end, ok := skipValue(data, pos)
	if !ok {
		return nil, 0, false
	}
	v, err := jsontext.Parse(data[pos:end])
	if err != nil {
		return nil, 0, false
	}
	return v, end, true
}

// scanSimpleString decodes a string with no escapes; escaped strings
// fall back to the generic scanner.
func scanSimpleString(data []byte, pos int) (string, int, bool) {
	i := pos + 1
	for i < len(data) {
		c := data[i]
		if c == '"' {
			return string(data[pos+1 : i]), i + 1, true
		}
		if c == '\\' || c < 0x20 {
			return "", 0, false
		}
		i++
	}
	return "", 0, false
}

func scanNumber(data []byte, pos int) (*jsonvalue.Value, int, bool) {
	end := pos
	for end < len(data) {
		switch c := data[end]; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			end++
		default:
			goto done
		}
	}
done:
	if end == pos {
		return nil, 0, false
	}
	raw := string(data[pos:end])
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return nil, 0, false
	}
	return jsonvalue.NewNumberRaw(f, raw), end, true
}

// skipValue advances past one JSON value without materialising it —
// the lazy skipping of unused fields.
func skipValue(data []byte, pos int) (int, bool) {
	if pos >= len(data) {
		return 0, false
	}
	switch data[pos] {
	case '"':
		i := pos + 1
		for i < len(data) {
			switch data[i] {
			case '\\':
				i += 2
			case '"':
				return i + 1, true
			default:
				i++
			}
		}
		return 0, false
	case '{', '[':
		depth := 0
		i := pos
		for i < len(data) {
			switch data[i] {
			case '"':
				end, ok := skipValue(data, i)
				if !ok {
					return 0, false
				}
				i = end
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return i + 1, true
				}
			}
			i++
		}
		return 0, false
	case 't':
		if bytesHasPrefix(data[pos:], []byte("true")) {
			return pos + 4, true
		}
	case 'f':
		if bytesHasPrefix(data[pos:], []byte("false")) {
			return pos + 5, true
		}
	case 'n':
		if bytesHasPrefix(data[pos:], []byte("null")) {
			return pos + 4, true
		}
	default:
		i := pos
		for i < len(data) {
			switch c := data[i]; {
			case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
				i++
			default:
				return i, i > pos
			}
		}
		return i, i > pos
	}
	return 0, false
}
