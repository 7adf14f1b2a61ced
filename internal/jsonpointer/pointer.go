// Package jsonpointer implements RFC 6901 JSON Pointers over the shared
// JSON value model. Pointers are the addressing mechanism of JSON
// Schema's "$ref" keyword (§2 of the tutorial).
package jsonpointer

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/jsonvalue"
)

// Pointer is a parsed JSON Pointer: a sequence of reference tokens. The
// zero Pointer addresses the whole document.
type Pointer struct {
	tokens []string
}

// Parse parses an RFC 6901 pointer string such as "/a/b/0" or "". The
// escape sequences ~0 (for "~") and ~1 (for "/") are decoded.
func Parse(s string) (Pointer, error) {
	if s == "" {
		return Pointer{}, nil
	}
	if s[0] != '/' {
		return Pointer{}, fmt.Errorf("jsonpointer: %q does not start with '/'", s)
	}
	parts := strings.Split(s[1:], "/")
	tokens := make([]string, len(parts))
	for i, p := range parts {
		t, err := unescapeToken(p)
		if err != nil {
			return Pointer{}, err
		}
		tokens[i] = t
	}
	return Pointer{tokens: tokens}, nil
}

func unescapeToken(p string) (string, error) {
	if !strings.Contains(p, "~") {
		return p, nil
	}
	var b strings.Builder
	for i := 0; i < len(p); i++ {
		if p[i] != '~' {
			b.WriteByte(p[i])
			continue
		}
		if i+1 >= len(p) {
			return "", fmt.Errorf("jsonpointer: dangling '~' in token %q", p)
		}
		switch p[i+1] {
		case '0':
			b.WriteByte('~')
		case '1':
			b.WriteByte('/')
		default:
			return "", fmt.Errorf("jsonpointer: invalid escape ~%c in token %q", p[i+1], p)
		}
		i++
	}
	return b.String(), nil
}

func escapeToken(t string) string {
	t = strings.ReplaceAll(t, "~", "~0")
	return strings.ReplaceAll(t, "/", "~1")
}

// String renders the pointer back to RFC 6901 syntax.
func (p Pointer) String() string {
	if len(p.tokens) == 0 {
		return ""
	}
	var b strings.Builder
	for _, t := range p.tokens {
		b.WriteByte('/')
		b.WriteString(escapeToken(t))
	}
	return b.String()
}

// Eval resolves the pointer against doc. Array tokens must be canonical
// base-10 indices (no leading zeros, per RFC 6901); "-" (the
// past-the-end element) resolves to nothing.
func (p Pointer) Eval(doc *jsonvalue.Value) (*jsonvalue.Value, error) {
	cur := doc
	for i, tok := range p.tokens {
		switch cur.Kind() {
		case jsonvalue.Object:
			next, ok := cur.Get(tok)
			if !ok {
				return nil, fmt.Errorf("jsonpointer: field %q not found at %q", tok, Pointer{tokens: p.tokens[:i]}.String())
			}
			cur = next
		case jsonvalue.Array:
			idx, err := arrayIndex(tok)
			if err != nil {
				return nil, fmt.Errorf("jsonpointer: %v at %q", err, Pointer{tokens: p.tokens[:i]}.String())
			}
			if idx < 0 || idx >= cur.Len() {
				return nil, fmt.Errorf("jsonpointer: index %d out of range [0,%d) at %q", idx, cur.Len(), Pointer{tokens: p.tokens[:i]}.String())
			}
			cur = cur.Elem(idx)
		default:
			return nil, fmt.Errorf("jsonpointer: cannot descend into %s at %q", cur.Kind(), Pointer{tokens: p.tokens[:i]}.String())
		}
	}
	return cur, nil
}

func arrayIndex(tok string) (int, error) {
	if tok == "-" {
		return -1, fmt.Errorf("'-' (past-the-end) does not address an element")
	}
	if tok == "" || (len(tok) > 1 && tok[0] == '0') {
		return 0, fmt.Errorf("non-canonical array index %q", tok)
	}
	n, err := strconv.Atoi(tok)
	if err != nil {
		return 0, fmt.Errorf("invalid array index %q", tok)
	}
	return n, nil
}
