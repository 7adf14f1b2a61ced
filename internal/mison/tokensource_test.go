package mison

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/jsontext"
)

// driveTokens pulls tokens from src until EOF or error. mode selects
// skip/decode per token: "skip", "decode", or "mixed" (alternating,
// approximating the inference engine's field-name/value interleaving).
func driveTokens(src jsontext.TokenSource, mode string, limit int) ([]jsontext.Token, error) {
	var out []jsontext.Token
	for i := 0; i < limit; i++ {
		skip := mode == "skip" || (mode == "mixed" && i%2 == 1)
		var (
			tok jsontext.Token
			err error
		)
		if skip {
			tok, err = src.ReadTokenSkipString()
		} else {
			tok, err = src.ReadToken()
		}
		if err != nil {
			return out, err
		}
		out = append(out, tok)
		if tok.Kind == jsontext.TokEOF {
			return out, nil
		}
	}
	return out, nil
}

// assertTokensMatchLexer demands that TokenSource and TokenReader
// produce identical token streams — kinds, offsets, payloads — and
// identical errors (message and offset) on input, in all read modes.
func assertTokensMatchLexer(t *testing.T, input string) {
	t.Helper()
	data := []byte(input)
	for _, mode := range []string{"skip", "decode", "mixed"} {
		tr := jsontext.NewTokenReaderBytes(data)
		want, wantErr := driveTokens(tr, mode, 1<<20)

		ts := NewTokenSource()
		if err := ts.Reset(data, 0); err != nil {
			t.Fatalf("%q/%s: Reset returned %v; every chunk is indexed", input, mode, err)
		}
		got, gotErr := driveTokens(ts, mode, 1<<20)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q/%s: error = %v, lexer error = %v", input, mode, gotErr, wantErr)
		}
		if wantErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q/%s: error %q, lexer error %q", input, mode, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%q/%s: %d tokens, lexer produced %d", input, mode, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q/%s: token %d = %+v, lexer produced %+v", input, mode, i, got[i], want[i])
			}
		}
	}
}

// TestTokenSourceMatchesLexer sweeps the tricky single- and multi-value
// inputs: every fast path, every delegation trigger, every error shape.
func TestTokenSourceMatchesLexer(t *testing.T) {
	cases := []string{
		// Values and layouts.
		``, `   `, `null`, `true`, `false`, `0`, `-0`, `42`, `-17`,
		`{"a": 1}`, `[1, 2, 3]`, `{"a": {"b": [null, true]}}`,
		"{\"a\": 1}\n{\"b\": \"x\"}\n", `1 "two" [3] {"four": 4}`,
		// Strings: clean, escaped, unicode, dirty.
		`""`, `"abc"`, `"a b c"`, `"\n\t\\"`, `"\""`, `"A"`,
		`"😀"`, `"\ud83d"`, `"\ud83dx"`, `"é😀"`, `"mixed é \n"`,
		"\"ctrl\x01char\"", "\"\xff\xfe\"", "\"a\xc3\x28b\"",
		`{"é": 1}`, `{"a\"b": 2}`, `"` + strings.Repeat("x", 200) + `"`,
		`"ends with backslash\\"`, `"\q"`,
		// Numbers: plain, fractional, exponents, edge spellings.
		`3.5`, `1e2`, `1.5e-1`, `-2E+10`, `9007199254740993`,
		`123456789012345678`, `1234567890123456789`, // 18 vs 19 digits
		`123456789012345678901234567890`, `1e999`, `-1e999`,
		`01`, `-01`, `0.5`, `00`, `1.`, `.5`, `1e`, `12e+`, `-`, `12..5`,
		// Structural errors and truncations.
		`{]`, `[1,]`, `{"a"}`, `{"a":1 "b":2}`, `tru`, `nul`, `falsx`,
		`"unterminated`, `"\`, `"\u12`, `{`, `[`, `{"a":`, `\`, `\"`,
		`{"a": 1}\`, "\x00", "a",
		// Deep nesting (no panic; the typer enforces the depth limit).
		strings.Repeat("[", 300) + strings.Repeat("]", 300),
	}
	for _, c := range cases {
		assertTokensMatchLexer(t, c)
	}
}

// unterminatedChunks are the inputs the index used to reject outright
// (odd structural-quote parity): the token walk over the index must
// read them exactly as the reference lexer does, up to and including
// the error the unmatched quote earns.
var unterminatedChunks = []string{
	"{\"a\": 1}\n{\"b\": \"oops}\n",
	"{\"a\":1}\n{\"s\":\"open",
	"\"a\nb\"",
	strings.Repeat("{\"k\": [1, \"v\"]}\n", 100) + `"`,
	`{"s": "odd run` + strings.Repeat(`\`, 7) + `"}`,
	`{"s": "even run` + strings.Repeat(`\`, 8) + `"} "`,
}

// TestTokenSourceRejectsUnterminatedChunk pins what replaced the
// index-rejection fallback: a chunk holding an unterminated string is
// indexed like any other, and the token walk words its error — message
// and absolute offset — as the reference lexer does.
func TestTokenSourceRejectsUnterminatedChunk(t *testing.T) {
	for _, c := range unterminatedChunks {
		assertTokensMatchLexer(t, c)
		if _, err := driveTokens(jsontext.NewTokenReaderBytes([]byte(c)), "skip", 1<<20); err == nil {
			t.Errorf("%q: the reference lexer accepts; the case pins nothing", c)
		}
	}
	data := []byte(unterminatedChunks[0])
	ts := NewTokenSource()
	if err := ts.Reset(data, 1000); err != nil {
		t.Fatal(err)
	}
	_, err := driveTokens(ts, "skip", 1<<20)
	var se *jsontext.SyntaxError
	if wantOff := 1000 + strings.Index(string(data), `"oops`) + len(`"oops}`); !errors.As(err, &se) || se.Offset != wantOff {
		t.Errorf("error = %v, want a *jsontext.SyntaxError at %d (the raw newline in the open string, rebased)", err, wantOff)
	}
}

// TestTokenSourceAbsoluteOffsets verifies base rebasing for tokens and
// for delegated errors.
func TestTokenSourceAbsoluteOffsets(t *testing.T) {
	ts := NewTokenSource()
	if err := ts.Reset([]byte(`{"a": "x"}`), 500); err != nil {
		t.Fatal(err)
	}
	toks, err := driveTokens(ts, "decode", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	wantOffsets := []int{500, 501, 504, 506, 509, 510}
	if len(toks) != len(wantOffsets) {
		t.Fatalf("%d tokens, want %d", len(toks), len(wantOffsets))
	}
	for i, w := range wantOffsets {
		if toks[i].Offset != w {
			t.Errorf("token %d offset = %d, want %d", i, toks[i].Offset, w)
		}
	}
	// A delegated error must carry the rebased offset.
	if err := ts.Reset([]byte(`{"a": tru}`), 500); err != nil {
		t.Fatal(err)
	}
	_, err = driveTokens(ts, "skip", 1<<20)
	se, ok := err.(*jsontext.SyntaxError)
	if !ok {
		t.Fatalf("error = %T (%v), want *jsontext.SyntaxError", err, err)
	}
	if se.Offset != 506 {
		t.Errorf("delegated error offset = %d, want 506", se.Offset)
	}
}

// TestTokenSourceReuseAndInterning pins warm reuse: Reset across chunks
// of different sizes must not leak bitmap state, and interned field
// names must be shared across chunks.
func TestTokenSourceReuseAndInterning(t *testing.T) {
	ts := NewTokenSource()
	ts.SetInternStrings(true)
	big := `{"pad": "` + strings.Repeat("p", 300) + `", "name": 1}`
	small := `{"name": 2}`
	var names []string
	for round := 0; round < 4; round++ {
		input := big
		if round%2 == 1 {
			input = small
		}
		if err := ts.Reset([]byte(input), 0); err != nil {
			t.Fatal(err)
		}
		toks, err := driveTokens(ts, "decode", 1<<20)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, tok := range toks {
			if tok.Kind == jsontext.TokString && tok.Str == "name" {
				names = append(names, tok.Str)
			}
		}
	}
	if len(names) != 4 {
		t.Fatalf("saw %d name fields, want 4", len(names))
	}
	for i := 1; i < len(names); i++ {
		// Interned strings share backing storage; string equality plus
		// the intern map contract is what the engine relies on.
		if names[i] != "name" {
			t.Fatalf("name %d = %q", i, names[i])
		}
	}
}
