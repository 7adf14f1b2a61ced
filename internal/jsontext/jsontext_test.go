package jsontext

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/jsonvalue"
)

func TestParseAtoms(t *testing.T) {
	cases := []struct {
		in   string
		want *jsonvalue.Value
	}{
		{`null`, jsonvalue.NewNull()},
		{`true`, jsonvalue.NewBool(true)},
		{`false`, jsonvalue.NewBool(false)},
		{`0`, jsonvalue.NewInt(0)},
		{`-1`, jsonvalue.NewInt(-1)},
		{`3.25`, jsonvalue.NewNumber(3.25)},
		{`1e2`, jsonvalue.NewNumber(100)},
		{`1E+2`, jsonvalue.NewNumber(100)},
		{`1.5e-1`, jsonvalue.NewNumber(0.15)},
		{`""`, jsonvalue.NewString("")},
		{`"abc"`, jsonvalue.NewString("abc")},
		{`"A"`, jsonvalue.NewString("A")},
		{`"😀"`, jsonvalue.NewString("😀")},
		{`"a\"b\\c\/d\n\t\r\b\f"`, jsonvalue.NewString("a\"b\\c/d\n\t\r\b\f")},
		{`  42  `, jsonvalue.NewInt(42)},
	}
	for _, c := range cases {
		got, err := ParseString(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !jsonvalue.Equal(got, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseContainers(t *testing.T) {
	v := MustParse(`{"a": [1, {"b": null}, "x"], "c": {} , "d": []}`)
	if v.Kind() != jsonvalue.Object || v.Len() != 3 {
		t.Fatalf("bad top object: %v", v)
	}
	a, _ := v.Get("a")
	if a.Len() != 3 {
		t.Fatalf("a has %d elems", a.Len())
	}
	inner, _ := a.Elem(1).Get("b")
	if inner.Kind() != jsonvalue.Null {
		t.Error("a[1].b should be null")
	}
	if c, _ := v.Get("c"); c.Len() != 0 {
		t.Error("c not empty object")
	}
	if d, _ := v.Get("d"); d.Kind() != jsonvalue.Array || d.Len() != 0 {
		t.Error("d not empty array")
	}
}

func TestParseFieldOrderPreserved(t *testing.T) {
	v := MustParse(`{"z":1,"a":2,"m":3}`)
	names := v.FieldNames()
	if names[0] != "z" || names[1] != "a" || names[2] != "m" {
		t.Errorf("field order not preserved: %v", names)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``, `tru`, `nul`, `falsy`, `+1`, `01`, `1.`, `1e`, `1e+`, `.5`,
		`"unterminated`, `"bad \x escape"`, `"\u12"`, `"\uzzzz"`,
		`[1,]`, `[1 2]`, `[`, `]`, `{`, `}`, `{"a"}`, `{"a":}`, `{"a":1,}`,
		`{a:1}`, `{"a":1 "b":2}`, `1 2`, `{"a":1}x`, "\"ctrl\x01char\"",
	}
	for _, in := range bad {
		if _, err := ParseString(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
	// Errors should carry offsets.
	_, err := ParseString(`{"a": tru}`)
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Offset != 6 {
		t.Errorf("offset = %d, want 6", se.Offset)
	}
}

// TestHex4TruncatedOnlyWhenEveryByteIsHex: a \u escape with fewer than
// four bytes in hand is a truncation only when each of those bytes is a
// hex digit, as literal and numErrAt decide theirs; a byte that no more
// input can make a hex digit is the error, at its offset.
func TestHex4TruncatedOnlyWhenEveryByteIsHex(t *testing.T) {
	for _, c := range []struct {
		in        string
		offset    int
		truncated bool
	}{
		{"\"\\u", 3, true},
		{"\"\\u12", 3, true},
		{"\"\\u\n0", 3, false},
		{"\"\\u1x", 4, false},
		{"\"\\u12\n", 5, false},
		{"\"\\u123g\"", 6, false},
	} {
		for _, skip := range []bool{false, true} {
			l := lexer{data: []byte(c.in)}
			_, err := l.next(skip)
			var se *SyntaxError
			if !errors.As(err, &se) || se.Offset != c.offset || se.Truncated() != c.truncated {
				t.Errorf("%q (skip %v): error %v, want one at offset %d, truncated %v", c.in, skip, err, c.offset, c.truncated)
				continue
			}
			if want := "truncated \\u escape"; c.truncated != (se.Msg == want) {
				t.Errorf("%q (skip %v): %q; truncated reads %q, every other error names its digit", c.in, skip, se.Msg, want)
			}
		}
	}
}

func TestParseDeepNestingBounded(t *testing.T) {
	depth := MaxDepth + 10
	in := strings.Repeat("[", depth) + strings.Repeat("]", depth)
	if _, err := ParseString(in); err == nil {
		t.Error("expected depth error")
	}
	ok := strings.Repeat("[", 100) + "1" + strings.Repeat("]", 100)
	if _, err := ParseString(ok); err != nil {
		t.Errorf("depth-100 input rejected: %v", err)
	}
}

func TestNumberRawPreserved(t *testing.T) {
	v := MustParse(`1e2`)
	if got := MarshalString(v); got != "1e2" {
		t.Errorf("round-trip of 1e2 = %q", got)
	}
}

func TestMarshalAtoms(t *testing.T) {
	cases := []struct {
		v    *jsonvalue.Value
		want string
	}{
		{jsonvalue.NewNull(), "null"},
		{jsonvalue.NewBool(true), "true"},
		{jsonvalue.NewInt(-7), "-7"},
		{jsonvalue.NewNumber(0.5), "0.5"},
		{jsonvalue.NewNumber(math.NaN()), "null"},
		{jsonvalue.NewString("a\"b"), `"a\"b"`},
		{jsonvalue.NewString("tab\there"), `"tab\there"`},
		{jsonvalue.NewString("\x01"), `"\u0001"`},
	}
	for _, c := range cases {
		if got := MarshalString(c.v); got != c.want {
			t.Errorf("Marshal(%v) = %s, want %s", c.v, got, c.want)
		}
	}
}

func TestMarshalIndent(t *testing.T) {
	v := MustParse(`{"a":[1,2],"b":{}}`)
	got := string(MarshalIndent(v, "  "))
	want := "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}"
	if got != want {
		t.Errorf("MarshalIndent:\n%s\nwant:\n%s", got, want)
	}
}

func TestRoundTripAgainstStdlib(t *testing.T) {
	// Our serialisation of parsed input must be stdlib-parseable and
	// semantically identical to stdlib's view of the same input.
	inputs := []string{
		`{"a":1,"b":[true,null,"x",1.5e3],"c":{"d":""}}`,
		`[[],{},[[[1]]],"é😀"]`,
		`{"num":-0.0031,"big":123456789012345}`,
	}
	for _, in := range inputs {
		v := MustParse(in)
		out := Marshal(v)
		var ours, theirs any
		if err := json.Unmarshal(out, &ours); err != nil {
			t.Fatalf("stdlib cannot parse our output %s: %v", out, err)
		}
		if err := json.Unmarshal([]byte(in), &theirs); err != nil {
			t.Fatal(err)
		}
		oj, _ := json.Marshal(ours)
		tj, _ := json.Marshal(theirs)
		if string(oj) != string(tj) {
			t.Errorf("round trip of %s diverged: %s vs %s", in, oj, tj)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	// Property: Parse(Marshal(v)) == v for arbitrary generated values.
	f := func(seed int64) bool {
		v := randomValue(seed, 4)
		got, err := Parse(Marshal(v))
		if err != nil {
			return false
		}
		return jsonvalue.Equal(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomValue builds a deterministic pseudo-random value from a seed
// using a splitmix-style generator; shared with other packages' tests via
// duplication to keep test helpers local.
func randomValue(seed int64, depth int) *jsonvalue.Value {
	s := uint64(seed)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var gen func(d int) *jsonvalue.Value
	gen = func(d int) *jsonvalue.Value {
		k := next() % 7
		if d <= 0 && k >= 5 {
			k = next() % 5
		}
		switch k {
		case 0:
			return jsonvalue.NewNull()
		case 1:
			return jsonvalue.NewBool(next()%2 == 0)
		case 2:
			return jsonvalue.NewInt(int64(next()%10000) - 5000)
		case 3:
			return jsonvalue.NewNumber(float64(next()%1000) / 8)
		case 4:
			runes := []rune("abc\"\\\n\tédç😀xyz")
			n := int(next() % 8)
			var sb strings.Builder
			for i := 0; i < n; i++ {
				sb.WriteRune(runes[int(next()%uint64(len(runes)))])
			}
			return jsonvalue.NewString(sb.String())
		case 5:
			n := int(next() % 4)
			elems := make([]*jsonvalue.Value, n)
			for i := range elems {
				elems[i] = gen(d - 1)
			}
			return jsonvalue.NewArray(elems...)
		default:
			n := int(next() % 4)
			fields := make([]jsonvalue.Field, n)
			for i := range fields {
				fields[i] = jsonvalue.Field{Name: string(rune('a' + i)), Value: gen(d - 1)}
			}
			return jsonvalue.NewObject(fields...)
		}
	}
	return gen(depth)
}

func TestStreamingDecoder(t *testing.T) {
	input := `{"a":1}
	[1,2,3]   "str"
	42 null true`
	dec := NewDecoder(strings.NewReader(input))
	vals, err := decodeAll(dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 6 {
		t.Fatalf("decoded %d values, want 6", len(vals))
	}
	if vals[3].Num() != 42 {
		t.Error("4th value wrong")
	}
}

func TestStreamingDecoderSmallReads(t *testing.T) {
	// One byte at a time exercises buffer growth and number termination.
	input := `{"key":"value","n":12345}  678  [true]`
	dec := NewDecoder(iotest{r: strings.NewReader(input)})
	vals, err := decodeAll(dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("decoded %d values, want 3", len(vals))
	}
	if vals[1].Num() != 678 {
		t.Errorf("number across reads = %v", vals[1])
	}
}

type iotest struct{ r io.Reader }

func (o iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// countingReader tracks how many bytes have been handed out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func TestTokenReaderDefiniteErrorSurfacesPromptly(t *testing.T) {
	// A definite syntax violation near the start of a large stream must
	// surface without buffering the rest of the input: only truncation-
	// curable errors may trigger refills.
	tail := strings.Repeat(`{"pad": "xxxxxxxxxxxxxxxx"}`+"\n", 1<<16) // ~1.7 MB
	for _, in := range []string{
		"tru" + tail,  // literal mismatch at the tail's '{'
		"nulx" + tail, // literal mismatch inside the window
		`"bad \x escape"` + tail,
		"\"ctrl\x01char\"" + tail,
		"1.x" + tail, // digits missing with a wrong byte present
		"@" + tail,   // unexpected byte
	} {
		cr := &countingReader{r: strings.NewReader(in)}
		tr := NewTokenReader(cr)
		var err error
		for err == nil {
			var tok Token
			tok, err = tr.ReadToken()
			if err == nil && tok.Kind == TokEOF {
				t.Fatalf("input %.20q unexpectedly lexed to EOF", in)
			}
		}
		if cr.n > 2*tokenBufSize {
			t.Errorf("input %.20q: error surfaced only after reading %d bytes (stream is %d)", in, cr.n, len(in))
		}
	}
}

// failingReader yields its payload, then a non-EOF error.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

func TestTokenReaderPropagatesIOError(t *testing.T) {
	ioErr := errors.New("connection reset")
	tr := NewTokenReader(&failingReader{data: []byte(`{"a": 1}  {"b":`), err: ioErr})
	sawValues := 0
	for {
		tok, err := tr.ReadToken()
		if err != nil {
			if !errors.Is(err, ioErr) {
				t.Fatalf("error = %v, want the reader's I/O error", err)
			}
			break
		}
		if tok.Kind == TokEOF {
			t.Fatal("stream ended without surfacing the I/O error")
		}
		sawValues++
	}
	if sawValues < 4 { // {, "a", :, 1, } of the complete first document
		t.Errorf("only %d tokens before the I/O error; complete data should lex first", sawValues)
	}
}

func TestStreamingDecoderErrors(t *testing.T) {
	dec := NewDecoder(strings.NewReader(`{"a":`))
	if _, err := dec.Decode(); err == nil {
		t.Error("truncated stream should fail")
	}
	dec = NewDecoder(strings.NewReader(``))
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("empty stream error = %v, want io.EOF", err)
	}
}

func TestMarshalLinesNDJSON(t *testing.T) {
	got := string(MarshalLines([]*jsonvalue.Value{MustParse(`{"a":1}`), MustParse(`[2]`)}))
	if got != "{\"a\":1}\n[2]\n" {
		t.Errorf("NDJSON output = %q", got)
	}
}

func TestParseLinesAndMarshalLines(t *testing.T) {
	docs := []*jsonvalue.Value{MustParse(`{"a":1}`), MustParse(`2`)}
	data := MarshalLines(docs)
	back, err := ParseLines(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || !jsonvalue.Equal(back[0], docs[0]) || !jsonvalue.Equal(back[1], docs[1]) {
		t.Errorf("ParseLines round trip failed: %v", back)
	}
	// Blank lines are skipped.
	back, err = ParseLines([]byte("\n{\"x\":1}\n\n \t\r\n5\n"))
	if err != nil || len(back) != 2 {
		t.Errorf("ParseLines with blanks = %v, %v", back, err)
	}
	// A line of Unicode spaces JSON does not allow is no blank line: the
	// decoder and the streamed engine reject it at its first byte.
	for _, space := range []string{"\v", "\f", "\u00a0", "\u0085"} {
		if back, err := ParseLines([]byte(space + "\n0\n")); err == nil {
			t.Errorf("ParseLines(%q) = %v, want the syntax error the decoder reports", space+"\n0\n", back)
		}
	}
}

func TestQuote(t *testing.T) {
	if got := string(AppendQuoted(nil, `a"b`)); got != `"a\"b"` {
		t.Errorf("AppendQuoted = %s", got)
	}
	if got := MarshalString(jsonvalue.NewString("<a>&</a>")); got != `"<a>&</a>"` {
		t.Errorf("HTML characters are escaped: %s", got)
	}
}

func TestInvalidUTF8Replaced(t *testing.T) {
	v := jsonvalue.NewString(string([]byte{0xff, 'a'}))
	out := MarshalString(v)
	if out != `"\ufffda"` {
		t.Errorf("invalid UTF-8 marshal = %s", out)
	}
}

// decodeAll decodes every value dec holds, up to its first error.
func decodeAll(dec *Decoder) ([]*jsonvalue.Value, error) {
	var out []*jsonvalue.Value
	for {
		v, err := dec.Decode()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
}
