package mison

import (
	"strings"
	"testing"
)

// FuzzTokenSource pins the tentpole equivalence of the structural-index
// tokenizer: on every input, in every read mode, TokenSource must
// produce exactly the token stream of the reference TokenReader —
// same kinds, offsets and payloads, and on malformed input the same
// error message and offset. No input is exempt: a chunk with an
// unterminated string (odd structural-quote parity) is indexed and
// compared token for token like any other.
func FuzzTokenSource(f *testing.F) {
	seeds := []string{
		`{"a": [1, {"b": "x"}, null], "c": 1e-3}`,
		"{\"a\": 1}\n{\"b\": [true, false]}\n",
		`[true, false, "é😀", {}]`,
		`  42  `, `-0.5e+10`, `9007199254740993`, `1234567890123456789`,
		`""`, `"A😀\n"`, `"\ud83d"`, `"\ud83dx"`, `"a\"b"`,
		`"run\\\\end"`, `{"kA": "\\"}`,
		// Malformed UTF-8, control bytes, stray backslashes.
		"\"\xff\xfe\"", "\xff{", "\"a\xc3\x28b\"", "\"ctrl\x01\"",
		`\`, `\"`, `{"a": 1}\`, "\\\n{\"a\": 1}",
		// Truncations and structural errors.
		`"\u12`, `"\`, `"unterminated`, `{]`, `[1,]`, `{"a":1 "b":2}`,
		`1 2`, `{"a"}`, ``, `   `, `tru`, `12..5`, `01`, `1e`,
		strings.Repeat("[", 300) + strings.Repeat("]", 300),
		strings.Repeat(`{"a":`, 120) + "1" + strings.Repeat("}", 120),
		strings.Repeat("\\", 67) + `"x"`,
	}
	for _, s := range append(seeds, unterminatedChunks...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		assertTokensMatchLexer(t, string(data))
	})
}

// FuzzIndexBitmaps holds all four bitmaps of the block kernel to the
// byte-at-a-time reference on arbitrary bytes, one warm walker across
// inputs.
func FuzzIndexBitmaps(f *testing.F) {
	for _, s := range escapeAdversarial {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		`{"a": [1, {"b": "x\"]"}, null], "c": "\\"}`,
		"\x0c\x1a[]{}:,\"\x00\x1f\x7f\x80\xff",
		strings.Repeat(`{"k\\": "vé"},`, 9),
	} {
		f.Add([]byte(s))
	}
	w := NewFieldWalker()
	f.Fuzz(func(t *testing.T, data []byte) {
		assertIndexMatchesReference(t, "fuzz", w, data)
	})
}
