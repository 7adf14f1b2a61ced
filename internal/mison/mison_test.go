package mison

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

func TestBitmapsAgainstNaive(t *testing.T) {
	inputs := []string{
		`{"a": 1, "b": "x,y:{z}", "c": [1, 2]}`,
		`{"esc": "a\"b\\", "q": "\\\"", "r": 1}`,
		`{"unicode": "héllo "", "n": [{"m": ":"}]}`,
		`{}`,
		`{"empty": "", "s": "}}}}"}`,
	}
	for _, in := range inputs {
		data := []byte(in)
		bm := BuildBitmaps(data)
		// Naive string-interior computation.
		inString := make([]bool, len(data))
		inside, esc := false, false
		for i, c := range data {
			if esc {
				inString[i] = inside
				esc = false
				continue
			}
			switch {
			case c == '\\':
				inString[i] = inside
				esc = true
			case c == '"':
				if !inside {
					inside = true
					inString[i] = true // opening quote included
				} else {
					inside = false
					inString[i] = false // closing quote excluded
				}
			default:
				inString[i] = inside
			}
		}
		for i := range data {
			if bm.InString(i) != inString[i] {
				t.Errorf("%q: InString(%d)=%v, naive %v", in, i, bm.InString(i), inString[i])
			}
		}
		// Structural colons/commas must exclude string interiors.
		iterate(bm.Colon, bm.N, func(pos int) {
			if data[pos] != ':' || inString[pos] {
				t.Errorf("%q: bad structural colon at %d", in, pos)
			}
		})
		iterate(bm.Comma, bm.N, func(pos int) {
			if data[pos] != ',' || inString[pos] {
				t.Errorf("%q: bad structural comma at %d", in, pos)
			}
		})
	}
}

func TestBitmapsCrossWordStrings(t *testing.T) {
	// A string spanning a 64-byte word boundary exercises the carry.
	long := `{"k": "` + stringsRepeat("x", 80) + `", "n": 1}`
	bm := BuildBitmaps([]byte(long))
	colons := 0
	iterate(bm.Colon, bm.N, func(pos int) { colons++ })
	if colons != 2 {
		t.Errorf("structural colons = %d, want 2", colons)
	}
}

func stringsRepeat(s string, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += s
	}
	return out
}

func TestPrefixXor(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0b0, 0b0},
		{0b1, ^uint64(0)},
		{0b1010, 0b0110}, // parity flips at bits 1 and 3
	}
	for _, c := range cases {
		if got := prefixXor(c.in); got != c.want {
			t.Errorf("prefixXor(%b) = %b, want %b", c.in, got, c.want)
		}
	}
}

func TestIndexDepths(t *testing.T) {
	ix, err := BuildIndex([]byte(`{"a": {"b": [1, {"c": 2}]}, "d": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	// Depth-1 colons: a and d. Depth-2: b. Depth-4: c (inside object
	// inside array inside object inside record).
	if got := len(ix.Colons[1]); got != 2 {
		t.Errorf("depth-1 colons = %d, want 2", got)
	}
	if got := len(ix.Colons[2]); got != 1 {
		t.Errorf("depth-2 colons = %d, want 1", got)
	}
	if got := len(ix.Colons[4]); got != 1 {
		t.Errorf("depth-4 colons = %d, want 1", got)
	}
}

// TestColonKeyExtraction pins that the index tells which key owns each
// record-level colon — keyMatches, the projecting parser's
// verification step — when keys and values hold ':', ',' and '}'.
func TestColonKeyExtraction(t *testing.T) {
	ix, err := BuildIndex([]byte(`{"first" : 1, "se:c,ond": {"x}": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Colons[1]) != 2 {
		t.Fatalf("depth-1 colons = %d, want 2", len(ix.Colons[1]))
	}
	for i, want := range []string{"first", "se:c,ond"} {
		pos := ix.Events[ix.Colons[1][i]].Pos
		if !ix.keyMatches(pos, want) {
			t.Errorf("colon %d: key %q not matched", i, want)
		}
		if ix.keyMatches(pos, "x}") || ix.keyMatches(pos, want[1:]) {
			t.Errorf("colon %d: matched a key it does not own", i)
		}
	}
}

func TestIndexUnbalanced(t *testing.T) {
	for _, bad := range []string{`{"a": 1`, `{"a": 1}}`, `[1, 2`} {
		if _, err := BuildIndex([]byte(bad)); err == nil {
			t.Errorf("BuildIndex(%q) succeeded, want error", bad)
		}
	}
}

func TestParseRecordSimpleProjection(t *testing.T) {
	p := MustNewParser("id", "user.name", "missing", "user.missing")
	rec := []byte(`{"id": 42, "text": "ignore, me: fully", "user": {"name": "ada", "age": 36}}`)
	vals, err := p.ParseRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Int() != 42 {
		t.Errorf("id = %v", vals[0])
	}
	if vals[1].Str() != "ada" {
		t.Errorf("user.name = %v", vals[1])
	}
	if vals[2] != nil || vals[3] != nil {
		t.Error("missing fields should be nil")
	}
}

func TestProjectionEquivalentToFullParse(t *testing.T) {
	// Property (per docs/EXPERIMENTS.md, E6): Mison projection ==
	// full-parse + path lookup, across generators and field orders.
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 31},
		genjson.GitHub{Seed: 32},
		genjson.Orders{Seed: 33},
	}
	paths := [][]string{
		{"id", "user.screen_name", "lang"},
		{"type", "repo.name", "payload.action"},
		{"order_id", "customer_city", "date"},
	}
	for gi, g := range gens {
		p := MustNewParser(paths[gi]...)
		docs := genjson.Collection(g, 120)
		for di, d := range docs {
			raw := jsontext.Marshal(d)
			got, err := p.ParseRecord(raw)
			if err != nil {
				t.Fatalf("%s doc %d: %v", g.Name(), di, err)
			}
			for pi, path := range paths[gi] {
				want := lookupDotted(d, path)
				if (got[pi] == nil) != (want == nil) {
					t.Fatalf("%s doc %d field %s: presence mismatch", g.Name(), di, path)
				}
				if want != nil && !jsonvalue.Equal(got[pi], want) {
					t.Fatalf("%s doc %d field %s: %v != %v", g.Name(), di, path, got[pi], want)
				}
			}
		}
		if p.Hits == 0 {
			t.Errorf("%s: speculation never hit", g.Name())
		}
		if p.Hits < p.Misses {
			t.Errorf("%s: hits %d < misses %d — speculation ineffective", g.Name(), p.Hits, p.Misses)
		}
	}
}

func lookupDotted(v *jsonvalue.Value, path string) *jsonvalue.Value {
	cur := v
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '.' {
			next, ok := cur.Get(path[start:i])
			if !ok {
				return nil
			}
			cur = next
			start = i + 1
		}
	}
	return cur
}

func TestProjectionQuickProperty(t *testing.T) {
	g := genjson.Twitter{Seed: 77}
	p := MustNewParser("user.followers_count")
	f := func(i uint16) bool {
		d := g.Generate(int(i % 500))
		raw := jsontext.Marshal(d)
		got, err := p.ParseRecord(raw)
		if err != nil {
			return false
		}
		want := lookupDotted(d, "user.followers_count")
		if want == nil {
			return got[0] == nil
		}
		return jsonvalue.Equal(got[0], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestValuesWithStructuralCharsInStrings(t *testing.T) {
	p := MustNewParser("a", "b")
	rec := []byte(`{"decoy": "a\": 1, \"b\": 2", "a": "x,y", "b": {"t": "}"}}`)
	vals, err := p.ParseRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Str() != "x,y" {
		t.Errorf("a = %v", vals[0])
	}
	if vals[1].Kind() != jsonvalue.Object {
		t.Errorf("b = %v", vals[1])
	}
}

func TestNewParserErrors(t *testing.T) {
	if _, err := NewParser(); err == nil {
		t.Error("empty projection should fail")
	}
	if _, err := NewParser("a..b"); err == nil {
		t.Error("bad path should fail")
	}
}

func TestSpeculationAcrossShapeChange(t *testing.T) {
	// Field moves position: parser must still find it (miss, re-learn).
	p := MustNewParser("x")
	recs := []string{
		`{"x": 1, "y": 2}`,
		`{"x": 2, "y": 2}`,
		`{"a": 0, "b": 0, "x": 3}`,
		`{"a": 0, "b": 0, "x": 4}`,
		`{"x": 5}`,
	}
	want := []int64{1, 2, 3, 4, 5}
	for i, rec := range recs {
		vals, err := p.ParseRecord([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		if vals[0].Int() != want[i] {
			t.Errorf("rec %d: x = %v, want %d", i, vals[0], want[i])
		}
	}
}

// buildBitmapsScalar is the byte-at-a-time phases 1-2 that Bitmaps.build
// replaced with the shared SWAR classifier — kept as the differential
// oracle for TestBitmapsMatchScalar.
func buildBitmapsScalar(data []byte) *Bitmaps {
	nw := (len(data) + 63) / 64
	b := &Bitmaps{N: len(data)}
	b.Backslash = make([]uint64, nw)
	b.Quote = make([]uint64, nw)
	b.Colon = make([]uint64, nw)
	b.Comma = make([]uint64, nw)
	b.LBrace = make([]uint64, nw)
	b.RBrace = make([]uint64, nw)
	b.LBracket = make([]uint64, nw)
	b.RBracket = make([]uint64, nw)
	escaped := false
	for i, c := range data {
		w, bit := i>>6, uint(i&63)
		if escaped {
			escaped = false
			if c == '\\' {
				b.Backslash[w] |= 1 << bit
			}
			continue
		}
		switch c {
		case '\\':
			b.Backslash[w] |= 1 << bit
			escaped = true
		case '"':
			b.Quote[w] |= 1 << bit
		case ':':
			b.Colon[w] |= 1 << bit
		case ',':
			b.Comma[w] |= 1 << bit
		case '{':
			b.LBrace[w] |= 1 << bit
		case '}':
			b.RBrace[w] |= 1 << bit
		case '[':
			b.LBracket[w] |= 1 << bit
		case ']':
			b.RBracket[w] |= 1 << bit
		}
	}
	// Phase 3 (unchanged in the SWAR port, repeated here so the oracle
	// is the complete old build): string mask + in-string filtering.
	b.StringMask = make([]uint64, nw)
	carry := uint64(0)
	for w := 0; w < nw; w++ {
		m := prefixXor(b.Quote[w]) ^ carry
		b.StringMask[w] = m
		if bits.OnesCount64(b.Quote[w])%2 == 1 {
			carry = ^carry
		}
	}
	for w := 0; w < nw; w++ {
		keep := ^b.StringMask[w]
		b.Colon[w] &= keep
		b.Comma[w] &= keep
		b.LBrace[w] &= keep
		b.RBrace[w] &= keep
		b.LBracket[w] &= keep
		b.RBracket[w] &= keep
	}
	return b
}

// TestBitmapsMatchScalar pins the SWAR phases 1-2 to the byte-at-a-time
// reference on adversarial escape layouts: backslash runs of every
// parity straddling the 64-byte word boundary and the 8-byte lane
// boundaries, plus structural characters immediately after.
func TestBitmapsMatchScalar(t *testing.T) {
	inputs := [][]byte{
		[]byte(`{"a": 1, "b": "x,y:{z}", "c": [1, 2]}`),
		[]byte(`{"esc": "a\"b\\", "q": "\\\"", "r": 1}`),
		[]byte("{}"),
		nil,
	}
	// Backslash runs of length 1..5 ending at offsets around the lane
	// (8) and word (64) boundaries, followed by a quote and a colon.
	for _, at := range []int{6, 7, 8, 9, 62, 63, 64, 65, 126, 127, 128} {
		for run := 1; run <= 5; run++ {
			in := make([]byte, 0, at+run+8)
			for len(in) < at {
				in = append(in, 'x')
			}
			for j := 0; j < run; j++ {
				in = append(in, '\\')
			}
			in = append(in, '"', ':', ',', '{', '}', '[', ']')
			inputs = append(inputs, in)
		}
	}
	classes := []string{"Backslash", "Quote", "Colon", "Comma", "LBrace", "RBrace", "LBracket", "RBracket"}
	for _, in := range inputs {
		got, want := BuildBitmaps(in), buildBitmapsScalar(in)
		for ci, pair := range [][2][]uint64{
			{got.Backslash, want.Backslash},
			{got.Quote, want.Quote},
			{got.Colon, want.Colon},
			{got.Comma, want.Comma},
			{got.LBrace, want.LBrace},
			{got.RBrace, want.RBrace},
			{got.LBracket, want.LBracket},
			{got.RBracket, want.RBracket},
		} {
			for w := range pair[1] {
				if pair[0][w] != pair[1][w] {
					t.Errorf("%q: %s word %d = %064b, want %064b",
						in, classes[ci], w, pair[0][w], pair[1][w])
				}
			}
		}
	}
}

// TestBitmapsMatchScalarGenerated runs the same differential over real
// escape-bearing documents from the workload generators.
func TestBitmapsMatchScalarGenerated(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 99}, 50)
	for _, d := range docs {
		in := jsontext.Marshal(d)
		got, want := BuildBitmaps(in), buildBitmapsScalar(in)
		for w := range want.Quote {
			if got.Quote[w] != want.Quote[w] ||
				got.Backslash[w] != want.Backslash[w] ||
				got.Colon[w] != want.Colon[w] ||
				got.Comma[w] != want.Comma[w] ||
				got.LBrace[w] != want.LBrace[w] ||
				got.RBrace[w] != want.RBrace[w] ||
				got.LBracket[w] != want.LBracket[w] ||
				got.RBracket[w] != want.RBracket[w] ||
				got.StringMask[w] != want.StringMask[w] {
				t.Fatalf("doc %q: bitmap word %d diverges from scalar build", in, w)
			}
		}
	}
}
