package jsontext

import (
	"strconv"
	"testing"
)

// TestInternCacheIsBounded: a reader with interning on, lexing twice
// maxInterned distinct names, never holds more than maxInterned of
// them — a full cache starts over — and every decoded name still
// equals its bytes.
func TestInternCacheIsBounded(t *testing.T) {
	const names = 2 * maxInterned
	doc := []byte{'{'}
	for i := range names {
		if i > 0 {
			doc = append(doc, ',')
		}
		doc = append(doc, `"n`...)
		doc = strconv.AppendInt(doc, int64(i), 10)
		doc = append(doc, `":0`...)
	}
	doc = append(doc, '}')

	tr := NewTokenReaderBytes(doc)
	tr.SetInternStrings(true)
	seen, restarts, prev := 0, 0, 0
	for {
		tok, err := tr.ReadToken()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == TokEOF {
			break
		}
		if tok.Kind != TokString {
			continue
		}
		if want := "n" + strconv.Itoa(seen); tok.Str != want {
			t.Fatalf("name %d decoded as %q, want %q", seen, tok.Str, want)
		}
		seen++
		n := len(tr.lex.intern)
		if n > maxInterned {
			t.Fatalf("after %d names the cache holds %d, bound %d", seen, n, maxInterned)
		}
		if n < prev {
			restarts++
		}
		prev = n
	}
	if seen != names || restarts != 1 {
		t.Errorf("lexed %d names with %d cache restarts, want %d and 1", seen, restarts, names)
	}
}

// TestSetInternStringsOffRetainsNothing: turning interning off drops
// the cache on both lexers, so decoded strings are retained nowhere.
func TestSetInternStringsOffRetainsNothing(t *testing.T) {
	tr := NewTokenReaderBytes([]byte(`{"alpha": "beta"}`))
	tr.SetInternStrings(true)
	tr.SetInternStrings(false)
	for {
		tok, err := tr.ReadToken()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == TokEOF {
			break
		}
	}
	if tr.lex.intern != nil {
		t.Errorf("reader retained %d strings with interning off", len(tr.lex.intern))
	}

	var sc Scanner
	sc.SetInternStrings(true)
	sc.SetInternStrings(false)
	if tok, _, err := sc.ScanAt([]byte(`"gamma"`), 0, false); err != nil || tok.Str != "gamma" {
		t.Fatalf("ScanAt = %v, %v", tok, err)
	}
	if sc.lex.intern != nil {
		t.Errorf("scanner retained %d strings with interning off", len(sc.lex.intern))
	}
}
