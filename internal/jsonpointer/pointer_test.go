package jsonpointer

import (
	"testing"

	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

// rfcDoc is the example document from RFC 6901 §5.
var rfcDoc = jsontext.MustParse(`{
	"foo": ["bar", "baz"],
	"": 0,
	"a/b": 1,
	"c%d": 2,
	"e^f": 3,
	"g|h": 4,
	"i\\j": 5,
	"k\"l": 6,
	" ": 7,
	"m~n": 8
}`)

func TestRFC6901Examples(t *testing.T) {
	cases := []struct {
		ptr  string
		want string // compact JSON of the resolved value
	}{
		{``, ""}, // whole document, checked separately
		{`/foo`, `["bar","baz"]`},
		{`/foo/0`, `"bar"`},
		{`/`, `0`},
		{`/a~1b`, `1`},
		{`/c%d`, `2`},
		{`/e^f`, `3`},
		{`/g|h`, `4`},
		{`/i\j`, `5`},
		{`/k"l`, `6`},
		{`/ `, `7`},
		{`/m~0n`, `8`},
	}
	for _, c := range cases {
		got, err := resolve(rfcDoc, c.ptr)
		if err != nil {
			t.Errorf("Resolve(%q): %v", c.ptr, err)
			continue
		}
		if c.ptr == "" {
			if got != rfcDoc {
				t.Error("root pointer should return the document")
			}
			continue
		}
		if s := jsontext.MarshalString(got); s != c.want {
			t.Errorf("Resolve(%q) = %s, want %s", c.ptr, s, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"foo", "/~", "/~2", "/a~"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	for _, s := range []string{"/nope", "/foo/2", "/foo/-", "/foo/01", "/foo/x", "/foo/0/deep", "//x"} {
		if _, err := resolve(rfcDoc, s); err == nil {
			t.Errorf("Resolve(%q) succeeded, want error", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "/a", "/a/0/b", "/a~1b/m~0n", "/"} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("round trip of %q = %q", s, got)
		}
	}
}

// resolve parses s and evaluates it against doc.
func resolve(doc *jsonvalue.Value, s string) (*jsonvalue.Value, error) {
	p, err := Parse(s)
	if err != nil {
		return nil, err
	}
	return p.Eval(doc)
}
