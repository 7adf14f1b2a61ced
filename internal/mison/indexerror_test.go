package mison

import (
	"errors"
	"strings"
	"testing"
)

// TestIndexErrorsCarryAbsoluteOffsets pins the error-path fix: every
// structural defect the index reports names its absolute byte position,
// including when the record is a slice of a larger buffer.
func TestIndexErrorsCarryAbsoluteOffsets(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		base    int
		wantOff int
	}{
		{"unbalanced-close", `{"a": 1}}`, 0, 8},
		{"unbalanced-close-rebased", `{"a": 1}}`, 700, 708},
		{"unbalanced-bracket", `[1, 2]]`, 0, 6},
		{"unclosed-outer", `{"a": 1`, 0, 0},
		{"unclosed-inner", `{"a": [1, 2`, 50, 56},
	}
	for _, c := range cases {
		_, err := BuildIndexAt([]byte(c.input), c.base)
		if err == nil {
			t.Fatalf("%s: BuildIndexAt(%q) succeeded, want error", c.name, c.input)
		}
		var ie *IndexError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: error = %T (%v), want *IndexError", c.name, err, err)
		}
		if ie.Offset != c.wantOff {
			t.Errorf("%s: offset = %d, want %d (error: %v)", c.name, ie.Offset, c.wantOff, err)
		}
	}
}

// TestParseLinesErrorOffsetsAreBufferRelative: a malformed record in
// the middle of an NDJSON buffer must be attributed at its buffer
// position, not its line-local one.
func TestParseLinesErrorOffsetsAreBufferRelative(t *testing.T) {
	data := []byte("{\"x\": 1}\n{\"x\": 2}}\n{\"x\": 3}\n")
	lineStart := strings.Index(string(data), "{\"x\": 2}}")
	wantOff := lineStart + 8 // the stray '}'
	check := func(label string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: accepted malformed buffer", label)
		}
		var ie *IndexError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: error = %T (%v), want *IndexError", label, err, err)
		}
		if ie.Offset != wantOff {
			t.Errorf("%s: offset = %d, want %d", label, ie.Offset, wantOff)
		}
	}
	_, err := MustNewParser("x").ParseLines(data)
	check("ParseLines", err)
}
