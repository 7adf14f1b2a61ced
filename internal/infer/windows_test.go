package infer

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// This file pins the sequential shape's input protocol: windows cut at
// raw newlines without scanning, and the straddler — the record a
// window's end cut — left for the next window.

// windowChunkings are byte targets under which a one-worker run cuts
// many windows: one line each, a few lines, a few documents. Over a
// layout whose documents span lines most windows end inside one.
var windowChunkings = []Options{{ChunkBytes: 1}, {ChunkBytes: 7}, {ChunkBytes: 64}, {ChunkBytes: 4096}}

// indented re-renders the documents of data one per several lines, the
// layout `jsgen -indent` writes.
func indented(t *testing.T, data []byte) []byte {
	t.Helper()
	dec := jsontext.NewDecoder(bytes.NewReader(data))
	var out bytes.Buffer
	for {
		v, err := dec.Decode()
		if errors.Is(err, io.EOF) {
			return out.Bytes()
		}
		if err != nil {
			t.Fatal(err)
		}
		out.Write(jsontext.MarshalIndent(v, "  "))
		out.WriteByte('\n')
	}
}

// assertWindowsMatchOracle is assertMatchesOracle at one worker under
// windowChunkings: every input kind, both equivalences.
func assertWindowsMatchOracle(t *testing.T, label string, data []byte) {
	t.Helper()
	for _, e := range sweepEquivs {
		want, wantN, wantErr := oracle(data, e)
		for _, ck := range windowChunkings {
			ck.Equiv = e
			assertEngineYields(t, label, data, ck, []int{1}, want, wantN, wantErr)
		}
	}
}

// TestWindowsMatchOracleFixtures sweeps every checked-in fixture, as
// NDJSON (every window ends between documents) and indented (most end
// inside one).
func TestWindowsMatchOracleFixtures(t *testing.T) {
	forEachFixture(t, func(name string, data []byte) {
		assertWindowsMatchOracle(t, name, data)
		assertWindowsMatchOracle(t, name+"-indent", indented(t, data))
	})
}

// TestWindowsMatchOracleGenerated sweeps every generator family in both
// layouts.
func TestWindowsMatchOracleGenerated(t *testing.T) {
	for _, g := range sweepGenerators {
		data := jsontext.MarshalLines(genjson.Collection(g, 40))
		assertWindowsMatchOracle(t, g.Name(), data)
		assertWindowsMatchOracle(t, g.Name()+"-indent", indented(t, data))
	}
}

// windowEdgeCases are the layouts and defects the straddler rule has to
// get right at a window's end.
var windowEdgeCases = []string{
	// Pretty-printed and concatenated layouts, CRLF, no newline at all.
	"{\n  \"a\": [1,\n 2],\n  \"s\": \"x\\\"\\n{\"\n}\n{\n\"a\": [3], \"s\": \"}\"\n}\n",
	"{\"a\": 1} {\"a\": 2}\n{\"b\": \"x\"} [1,\n2] 3\n\n\n4",
	"{\"a\": 1}\r\n{\r\n\"a\": [1,\r\n2]\r\n}\r\n",
	`{"a": 1} {"a": 2} {"b": "x"}`,
	// A document far longer than the window, between short ones.
	"1\n[" + strings.Repeat("{\"k\": [1, 2, 3]},\n", 200) + "null]\n2\n",
	// A raw newline inside a string at the cut; a stray backslash, an
	// unterminated escape and a short \u escape before it.
	"{\"a\": 1}\n{\"s\": \"line\nbreak\"}\n{\"b\": 2}\n",
	"{\"a\": 1}\\\n{\"b\": 2}\n",
	"{\"a\": 1}\n{\"s\": \"x\\\n\"}\n",
	"{\"a\": 1}\n{\"s\": \"\\u12\n34\"}\n{\"b\": 2}\n",
	// Structural defects in the first, a middle and the last window.
	"{]\n{\"a\": 1}\n", "{\"a\": 1}\n{\n\"a\": ]\n}\n{\"b\": 2}\n", "{\"a\": 1}\n{\n\"a\": 1,\n}\n",
	// Truncated literals, escapes and containers at the end of input.
	"{\"a\": 1}\ntru", "{\"a\": 1}\n\"\\u12", "{\"a\": 1}\n\"abc\\", "{\"a\": 1}\n{\n\"a\": [1,\n", "{\"a\": 1}\n12e", "{\"a\":\n",
	strings.Repeat("[\n", jsontext.MaxDepth+2),
}

// brokenStrings are the defects that leave a run of bytes with an odd
// number of structural quotes — what the index once rejected a whole
// chunk for, to be lexed by the reference lexer: an unterminated string
// before more documents and at the end of input, a raw newline inside a
// string, a stray quote after a document and alone.
var brokenStrings = []string{
	"{\"s\": \"open\n{\"b\": 2}\n",
	"{\"s\": \"open",
	"{\"s\": \"line\nbreak\"}\n{\"b\": 2}\n",
	"{\"b\": 2} \"\n{\"b\": 3}\n",
	"\"",
}

// TestBrokenStringsMatchOracle sweeps brokenStrings after 0, 3, 8 and
// DefaultBatch good documents — so that each is met mid-chunk and as
// the first record of a later chunk — through every worker count, input
// kind and chunking, through every window target, and through the one
// window target that cuts exactly at the defect's first raw newline:
// the oracle's schema and count of the preceding documents, its error
// text and its absolute offset, whichever walk met the defect.
func TestBrokenStringsMatchOracle(t *testing.T) {
	good := `{"a": 1, "s": "x"}` + "\n"
	for _, defect := range brokenStrings {
		for _, n := range []int{0, 3, 8, DefaultBatch} {
			data := []byte(strings.Repeat(good, n) + defect)
			label := fmt.Sprintf("%d+%.20q", n, defect)
			assertMatchesOracle(t, label, data, Options{}, Options{batch: 4}, Options{batch: 1}, Options{ChunkBytes: 2 * len(good)})
			assertWindowsMatchOracle(t, label, data)
			if i := strings.IndexByte(defect, '\n'); i >= 0 {
				for _, e := range sweepEquivs {
					want, wantN, wantErr := oracle(data, e)
					assertEngineYields(t, label+"/cut", data, Options{Equiv: e, ChunkBytes: n*len(good) + i + 1}, []int{1}, want, wantN, wantErr)
				}
			}
		}
	}
}

// windowInputs are those, the shared malformed inputs and the label
// sets typelang's key once confused.
var windowInputs = slices.Concat(windowEdgeCases, brokenStrings, malformedInputs, collidingLabelSets)

// TestWindowsMatchOracleEdgeCases runs them under every window target.
func TestWindowsMatchOracleEdgeCases(t *testing.T) {
	for _, in := range windowInputs {
		assertWindowsMatchOracle(t, fmt.Sprintf("%.40q", in), []byte(in))
	}
}

// FuzzStreamWindows pins the window protocol on arbitrary bytes: a
// one-worker run cutting windows of a fuzz-chosen target — one byte to
// the whole input — must yield the oracle's outcome over the same bytes
// from every input kind: schema (plain and counted), document count,
// error text and absolute offset, under K and under L.
func FuzzStreamWindows(f *testing.F) {
	for _, in := range windowInputs {
		for _, target := range []uint{0, 6, 63} {
			f.Add([]byte(in), target)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, target uint) {
		ck := Options{ChunkBytes: 1 + int(target%uint(len(data)+1))}
		for _, e := range sweepEquivs {
			ck.Equiv = e
			want, wantN, wantErr := oracle(data, e)
			assertEngineYields(t, "fuzz", data, ck, []int{1}, want, wantN, wantErr)
		}
	})
}

// TestStraddlerIsReindexedNotCommitted follows one straddler through
// the flight recorder: a document cut by three windows is absorbed
// once, the windows it failed in commit nothing of it, and the bytes
// indexed again are exactly the cut parts.
func TestStraddlerIsReindexedNotCommitted(t *testing.T) {
	doc := "{\n\"a\": 1,\n\"b\": [2,\n3]\n}\n"
	data := []byte("1\n" + doc + "2\n")
	for _, input := range inputKinds {
		var st PipelineStats
		got, n, err := inferStreamOver(input, data, Options{Workers: 1, ChunkBytes: 4, Stats: &st})
		if err != nil || n != 3 {
			t.Fatalf("%s: %d documents, err %v; want 3", input, n, err)
		}
		if want := "(Int + {a: Int, b: [Int]})"; got.String() != want {
			t.Errorf("%s: schema %s, want %s", input, got, want)
		}
		s := st.Snapshot()
		if s.BytesLexed != int64(len(data)) || s.DocsAbsorbed != 3 || s.IndexRecords != 3 || s.FallbackRecords != 0 {
			t.Errorf("%s: bytes_lexed=%d docs=%d index=%d fallback=%d; want %d/3/3/0",
				input, s.BytesLexed, s.DocsAbsorbed, s.IndexRecords, s.FallbackRecords, len(data))
		}
		if s.BytesReindexed <= 0 || s.BytesReindexed > 2*int64(len(doc)) {
			t.Errorf("%s: bytes_reindexed=%d; want the cut parts of a %d-byte document, growing geometrically", input, s.BytesReindexed, len(doc))
		}
		if s.ChunksSplit < 4 || s.ChunksDirect != s.ChunksSplit || s.SplitNanos != 0 || s.Seals != 1 {
			t.Errorf("%s: windows=%d direct=%d split=%dns seals=%d; want several windows, all direct, no boundary scan, one seal",
				input, s.ChunksSplit, s.ChunksDirect, s.SplitNanos, s.Seals)
		}
	}
}

// countingSplitter is mison.Chunker's stand-in where the pin is whether
// boundaries were looked for at all.
type countingSplitter struct {
	scanSplitter
	calls int
}

func (c *countingSplitter) Splits(block []byte, dst []int) []int {
	c.calls++
	return c.scanSplitter.Splits(block, dst)
}

// TestSequentialShapeNeverSplits pins where the Chunker is off the
// path: a one-worker run of many windows, from either source, and
// InferStreamInto at Workers: 4 never asks the splitter — a collector
// feed reads neither Workers nor batch and is absorbed in windows. The
// control is the same body at four workers and batch 64 through the
// one-shot engine: the splitter runs from the first byte, and the run
// takes the parallel shape.
func TestSequentialShapeNeverSplits(t *testing.T) {
	body := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 22}, 100))
	want, wantN, _ := oracle(body, typelang.EquivKind)
	for _, c := range []struct {
		name        string
		opts        Options
		into        bool
		wantWindows bool
		wantSplit   bool
	}{
		{"w1-windows", Options{Workers: 1, ChunkBytes: 2 << 10}, false, true, false},
		{"into-w4", Options{Workers: 4, batch: 64, ChunkBytes: 2 << 10}, true, true, false},
		{"w4-control", Options{Workers: 4, batch: 64}, false, false, true},
	} {
		for _, src := range []source{{data: body}, readerSource(body)} {
			if c.into && src.r == nil {
				continue // a collector is fed through a reader only
			}
			sp := &countingSplitter{}
			src.sp = sp
			var st PipelineStats
			c.opts.Stats = &st
			engine := run
			if c.into {
				engine = func(_ source, opts Options) (*typelang.Type, int, error) { return inferStreamOver("into", body, opts) }
			}
			got, n, err := engine(src, c.opts)
			if err != nil || n != wantN || got.StringCounted() != want.StringCounted() {
				t.Fatalf("%s: %d documents, err %v, schema %s; want %d of %s", c.name, n, err, got.StringCounted(), wantN, want.StringCounted())
			}
			s := st.Snapshot()
			if (sp.calls > 0) != c.wantSplit || (s.SplitNanos > 0) != c.wantSplit {
				t.Errorf("%s (reader: %t): the splitter was asked %d times (split clock %dns); want asked: %t", c.name, src.r != nil, sp.calls, s.SplitNanos, c.wantSplit)
			}
			if sequential := s.ChunksDirect == s.ChunksSplit; sequential == c.wantSplit || (s.ChunksSplit > 1) != (c.wantWindows || c.wantSplit) {
				t.Errorf("%s (reader: %t): chunks_split=%d chunks_direct=%d", c.name, src.r != nil, s.ChunksSplit, s.ChunksDirect)
			}
		}
	}
}
