package jsontext

import (
	"math"
	"strings"
	"testing"

	"repro/internal/jsonvalue"
)

func TestAppendNumberEdgeCases(t *testing.T) {
	cases := []struct {
		f    float64
		raw  string
		want string
	}{
		{1.5, "", "1.5"},
		{100, "1e2", "1e2"}, // raw wins
		{3, "", "3"},
		{-0.25, "", "-0.25"},
		{math.Inf(1), "", "null"},
		{math.Inf(-1), "", "null"},
		{math.NaN(), "", "null"},
		{1e300, "", "1e+300"},
	}
	for _, c := range cases {
		got := string(AppendNumber(nil, c.f, c.raw))
		if got != c.want {
			t.Errorf("AppendNumber(%v, %q) = %q, want %q", c.f, c.raw, got, c.want)
		}
	}
}

func TestSurrogatePairDecoding(t *testing.T) {
	// 😀 is 😀; a lone high surrogate decodes to U+FFFD.
	v := MustParse(`"😀"`)
	if v.Str() != "😀" {
		t.Errorf("surrogate pair = %q", v.Str())
	}
	lone := MustParse(`"\ud83d"`)
	if lone.Str() != "�" {
		t.Errorf("lone surrogate = %q", lone.Str())
	}
	// High surrogate followed by a non-surrogate escape.
	odd := MustParse(`"\ud83dx"`)
	if !strings.HasPrefix(odd.Str(), "�") {
		t.Errorf("surrogate+char = %q", odd.Str())
	}
}

func TestDecodeReturnsValuesBeforeError(t *testing.T) {
	dec := NewDecoder(strings.NewReader(`{"ok":1} {"broken":`))
	vals, err := decodeAll(dec)
	if err == nil {
		t.Fatal("expected error")
	}
	if len(vals) != 1 || !jsonvalue.Equal(vals[0], MustParse(`{"ok":1}`)) {
		t.Errorf("values before the error = %v", vals)
	}
}

func TestMarshalIndentOfAtoms(t *testing.T) {
	if got := string(MarshalIndent(MustParse(`5`), "  ")); got != "5" {
		t.Errorf("atom indent = %q", got)
	}
	if got := string(MarshalIndent(MustParse(`[]`), "  ")); got != "[]" {
		t.Errorf("empty array indent = %q", got)
	}
}
